import math

import numpy as np
import pytest

from riskbandits import checks as checklib
from riskbandits.criteria import (
    CVaRCriterion,
    MeanCriterion,
    MeanVarianceCriterion,
    SharpeCriterion,
    SmoothnessCertificate,
    SortinoCriterion,
    StabilityCertificate,
    VaRCriterion,
)
from riskbandits.dist import (
    EmpiricalDistribution,
    Gaussian,
    MixtureDistribution,
    PiecewiseLinearCDF,
    PointMass,
    TwoPoint,
    Uniform,
)
from riskbandits.norms import norm_distance

from conftest import bad1_arm_wide


class InfiniteLowerTail(Gaussian):
    """Stub with a divergent lower first moment (heavy-tail stand-in)."""

    def lower_tail(self):
        return -math.inf

    def cdf_integral_below(self, v):
        return math.inf


def test_c1_fails_on_divergent_tail():
    crit = CVaRCriterion(0.1)
    res = checklib.condition_c1(crit, [InfiniteLowerTail(0.0, 1.0)])
    assert not res.passed


def test_c1_passes_on_catalog():
    res = checklib.condition_c1(CVaRCriterion(0.1), [Gaussian(0, 1), Uniform(-1, 1)])
    assert res.passed


def test_c1_scores_each_arm_once():
    class CountingCriterion(CVaRCriterion):
        calls = 0

        def evaluate(self, f):
            CountingCriterion.calls += 1
            return super().evaluate(f)

    crit = CountingCriterion(0.1)
    arms = [Gaussian(0, 1), Uniform(-3, 1), PointMass(2.0)]
    res = checklib.condition_c1(crit, arms)
    assert res.passed and CountingCriterion.calls == len(arms)
    worst = max(abs(CVaRCriterion(0.1).evaluate(a)) for a in arms)
    assert res.detail == f"max |value| = {worst:.6g}"


def test_convexity_check_scores_nine_blends_per_pair():
    # the end blends are the pair itself: 2 endpoint scores and 7 inner blends
    class CountingCriterion(CVaRCriterion):
        calls = 0

        def evaluate(self, f):
            CountingCriterion.calls += 1
            return super().evaluate(f)

    arms = [Gaussian(0, 1), Gaussian(0.5, 2)]
    res = checklib.convexity_check(CountingCriterion(0.1), arms, n_pairs=5, seed=2)
    assert res.passed and res.detail == "5 pairs x 9 blend points"
    assert CountingCriterion.calls == 5 * 9


def test_c2_kind_based():
    assert checklib.condition_c2([Gaussian(0, 1), PointMass(3.0), bad1_arm_wide()]).passed


def test_c3_over_mixture_grid():
    assert checklib.condition_c3([Gaussian(0, 1), Gaussian(0.2, 1)], 0.1).passed
    flat = PiecewiseLinearCDF.from_pairs([(0, 0), (1, 0.1), (2, 0.1), (3, 1.0)])
    res = checklib.condition_c3([flat], 0.1)
    assert not res.passed and "flat stretch" in res.detail
    # the arm of configs/var_flat_rate.yaml, flat at its level 0.3 on [1, 2]
    var_flat = PiecewiseLinearCDF.from_pairs([(0, 0.0), (1, 0.3), (2, 0.3), (3, 1.0)])
    # the (0, 1) vertex is var_flat alone: the zero-weight Gaussian adds nothing
    a = PiecewiseLinearCDF([1.5, 2.0, 3.5, 4.0], [0, 0.2, 0.5, 1], [0.1, 0.2, 0.9, 1])
    b = PiecewiseLinearCDF([1.5, 2.5, 3.0], [0, 0.7, 0.9], [0.5, 0.9, 1])
    for arms, want in [
        ([var_flat], "flat stretch [1, 2] at level 0.3"),
        ([Gaussian(0, 1), var_flat], "flat stretch [1, 2] at level 0.3"),
        # the (0.75, 0.25) mixture meets 0.3 at 2 and at 2 less one ulp: one point
        ([a, b], "worst cardinality class: point"),
    ]:
        res = checklib.condition_c3(arms, 0.3)
        assert (res.passed, res.detail) == (want.startswith("worst"), want)


def test_c4_with_supplied_constants():
    res = checklib.condition_c4([Gaussian(0, 1)], 0.1, b_alpha=12.0, m_alpha=0.05)
    assert res.passed
    too_tight = checklib.condition_c4([Gaussian(0, 1)], 0.1, b_alpha=1.0, m_alpha=0.05)
    assert not too_tight.passed


def test_c5_breakpoint_detection():
    # percentile of a point mass lands on its jump: not differentiable there
    res = checklib.condition_c5([PointMass(1.0)], 0.3)
    assert not res.passed
    assert checklib.condition_c5([Gaussian(0, 1), Gaussian(0.3, 1.2)], 0.3).passed


def test_modulus_check_detects_bogus_certificate():
    from riskbandits.criteria import StabilityCertificate

    crit = MeanCriterion()
    arms = [Gaussian(0, 1), Gaussian(2.0, 1)]
    bogus = StabilityCertificate(a=1.0, b=1e-6, q=1.0)
    res = checklib.modulus_check(crit, arms, bogus, n_pairs=50, seed=3)
    assert not res.passed


def test_dkw_grid_check_trivial_and_failing():
    good = checklib.dkw_grid_check(Gaussian(0, 1), [(25, 0.2)], reps=2000, seed=5)
    assert good.passed
    # an impossible slack factor turns a healthy empirical rate into a failure
    bad = checklib.dkw_grid_check(Gaussian(0, 1), [(25, 0.2)], reps=2000, seed=5, slack=0.1)
    assert not bad.passed


# the `check` command's default dkw_grid (its default dkw_reps is 2000)
_DEFAULT_DKW_GRID = [(25, 0.2), (100, 0.1), (100, 0.14), (400, 0.05), (400, 0.07)]


def test_dkw_grid_check_passes_where_the_bound_is_nearly_tight():
    # at t=400, x=0.07 and t=100, x=0.14 the bound is nearly tight: on these
    # seeds 2000 replications put the exceedance above 1.2x the bound (0.055
    # against 0.0476 on seed 170), which is not improbable under that cap
    for seed in (170, 227, 247, 252):
        res = checklib.dkw_grid_check(Gaussian(0, 1), _DEFAULT_DKW_GRID, reps=2000, seed=seed)
        assert res.passed, (seed, res.detail)


class _ShiftedSampler(Gaussian):
    """Draws from N(mean + stddev / 10, stddev) but reports the CDF of N(mean, stddev)."""

    def _sample(self, rng, n):
        return rng.normal(self.mean_value + 0.1 * self.stddev, self.stddev, size=n)


def test_dkw_grid_check_fails_a_sampler_shifted_from_its_cdf():
    res = checklib.dkw_grid_check(_ShiftedSampler(0, 1), _DEFAULT_DKW_GRID, reps=10_000, seed=0)
    assert not res.passed, res.detail


def test_galois_check_runs_on_catalog():
    res = checklib.galois_check([Gaussian(0, 1), bad1_arm_wide()], n_points=50, seed=1)
    assert res.passed


# ---------------------------------------------------------------------------
# The batched suites against the pair-by-pair loops they replaced
# ---------------------------------------------------------------------------

_CLOSE = [Gaussian(0.0, 1.0), Gaussian(0.1, 1.0)]
_MIXED = [Gaussian(0.5, 1.0), Uniform(-1.0, 2.0), TwoPoint(0.3, -1.0, 3.0)]
_POSITIVE = [Gaussian(1.0, 1.0), Uniform(0.5, 2.0), TwoPoint(0.5, 0.2, 3.0)]
_SEEDS = (3, 5, 14, 15)


def loop_modulus_check(criterion, arms, certificate, n_pairs, seed):
    rng = checklib._rng(seed)
    worst = 0.0
    for _ in range(n_pairs):
        f = checklib._random_mixture(rng, arms)
        g = (
            checklib._random_mixture(rng, arms)
            if rng.random() < 0.4
            else checklib._random_empirical(rng, arms)
        )
        lhs = abs(criterion.evaluate(f) - criterion.evaluate(g))
        dist = norm_distance(f, g, criterion.functionals)
        rhs = certificate.modulus(dist)
        if lhs > rhs * (1.0 + 1e-9) + 1e-15:
            return checklib.CheckResult(
                f"modulus[{criterion.tag}]",
                False,
                f"|dR|={lhs:.6g} exceeds psi(||.||)={rhs:.6g} at distance {dist:.6g}",
            )
        if rhs > 0:
            worst = max(worst, lhs / rhs)
    return checklib.CheckResult(
        f"modulus[{criterion.tag}]", True, f"worst ratio {worst:.4f} over {n_pairs} pairs"
    )


def loop_convexity_check(criterion, arms, n_pairs, seed):
    rng = checklib._rng(seed)
    name = f"convexity[{criterion.tag}]"
    kind = criterion.convexity
    lambdas = np.linspace(0.0, 1.0, 9)
    checked = attempts = 0
    while checked < n_pairs and attempts < 20 * n_pairs:
        attempts += 1
        wf = checklib._random_simplex(rng, len(arms)) if len(arms) > 1 else np.array([1.0])
        wg = checklib._random_simplex(rng, len(arms)) if len(arms) > 1 else np.array([1.0])
        f, g = MixtureDistribution(arms, wf), MixtureDistribution(arms, wg)
        if criterion.domain_flags(f) or criterion.domain_flags(g):
            continue
        rf, rg = criterion.evaluate(f), criterion.evaluate(g)
        for lam in lambdas[1:-1]:
            rm = criterion.evaluate(MixtureDistribution(arms, lam * wf + (1 - lam) * wg))
            chord = lam * rf + (1 - lam) * rg
            if kind in ("linear", "convex") and rm > chord + 1e-9:
                return checklib.CheckResult(
                    name, False, f"convex combination exceeded chord by {rm - chord:.3g}"
                )
            if kind == "linear" and rm < chord - 1e-9:
                return checklib.CheckResult(name, False, f"linearity violated by {chord - rm:.3g}")
            if rm > max(rf, rg) + 1e-9:
                return checklib.CheckResult(
                    name, False, f"quasiconvexity violated by {rm - max(rf, rg):.3g}"
                )
        checked += 1
    return checklib.CheckResult(name, True, f"{checked} pairs x 9 blend points")


def loop_residual_check(criterion, arms, certificate, n_pairs, seed):
    rng = checklib._rng(seed)
    name = f"residual[{criterion.tag}]"
    checked = attempts = 0
    worst = 0.0
    while checked < n_pairs and attempts < 50 * n_pairs:
        attempts += 1
        f = checklib._random_mixture(rng, arms)
        if rng.random() < 0.5:
            g = checklib._random_mixture(rng, arms)
        else:
            g = EmpiricalDistribution(f.sample(rng, 4096))
        d = norm_distance(f, g, criterion.functionals)
        if not (0 < d <= certificate.m0):
            continue
        res = criterion.residual(g, f)
        bound = 0.5 * certificate.d2 * d * d + 1e-10
        if abs(res) > bound:
            return checklib.CheckResult(
                name, False, f"|Res|={abs(res):.6g} exceeds d2/2 * d^2 = {bound:.6g} at d={d:.6g}"
            )
        if bound > 0:
            worst = max(worst, abs(res) / bound)
        checked += 1
    if checked < n_pairs:
        return checklib.CheckResult(
            name, False, f"only {checked}/{n_pairs} admissible pairs within radius {certificate.m0}"
        )
    return checklib.CheckResult(name, True, f"worst |Res|/bound {worst:.4f} on {checked} pairs")


class _ConvexVaR(VaRCriterion):
    convexity = "convex"  # a false claim: VaR is quasiconvex only


class _LinearCVaR(CVaRCriterion):
    convexity = "linear"  # a false claim: CVaR is convex


@pytest.mark.parametrize("seed", _SEEDS)
def test_modulus_check_matches_the_pair_loop(seed):
    cases = [
        (CVaRCriterion(0.1), _CLOSE, None),
        (VaRCriterion(0.1), _CLOSE, None),
        (MeanCriterion(), _MIXED, None),
        (SharpeCriterion(0.0, 0.5), _POSITIVE, None),
        # certificates that fail: the first failing pair names the same numbers
        (CVaRCriterion(0.1), [Gaussian(0.0, 1.0), Gaussian(-0.75, 1.0), Gaussian(-1.5, 1.0)],
         StabilityCertificate(2.0, 0.45, 2.0)),
        (MeanCriterion(), _MIXED, StabilityCertificate(1.0, 0.05, 1.0)),
    ]
    for crit, arms, cert in cases:
        cert = cert or crit.stability_certificate(arms)
        got = checklib.modulus_check(crit, arms, cert, n_pairs=40, seed=seed)
        assert got == loop_modulus_check(crit, arms, cert, 40, seed)


def test_modulus_check_scores_every_named_certificate_on_the_same_pairs():
    crit = CVaRCriterion(0.1)
    arms = [Gaussian(0.0, 1.0), Gaussian(-0.75, 1.0), Gaussian(-1.5, 1.0)]
    certs = {
        "modulus[cvar]": crit.stability_certificate(arms),
        "modulus-override[cvar]": StabilityCertificate(2.0, 0.45, 2.0),
        "tight": StabilityCertificate(2.0, 0.02, 1.0),
    }
    for seed in (3, 314159):
        got = checklib.modulus_check(crit, arms, certs, n_pairs=60, seed=seed)
        want = [loop_modulus_check(crit, arms, c, 60, seed) for c in certs.values()]
        assert [r.name for r in got] == list(certs)
        assert [(r.passed, r.detail) for r in got] == [(r.passed, r.detail) for r in want]
        assert [r.passed for r in got] == [True, False, False]


@pytest.mark.parametrize("seed", _SEEDS)
def test_convexity_check_matches_the_pair_loop(seed):
    cases = [
        (CVaRCriterion(0.25), _MIXED),
        (VaRCriterion(0.25), _MIXED),
        (MeanCriterion(), _MIXED),
        (SortinoCriterion(0.0, 0.5), _POSITIVE),
        (CVaRCriterion(0.1), [Gaussian(0.0, 1.0)]),  # one arm: no draws
        (_ConvexVaR(0.25), _MIXED),
        (_LinearCVaR(0.25), _MIXED),
    ]
    for crit, arms in cases:
        got = checklib.convexity_check(crit, arms, n_pairs=30, seed=seed)
        assert got == loop_convexity_check(crit, arms, 30, seed)
    # the false claims fail
    assert not checklib.convexity_check(_ConvexVaR(0.25), _MIXED, n_pairs=30, seed=3).passed
    assert not checklib.convexity_check(_LinearCVaR(0.25), _MIXED, n_pairs=30, seed=3).passed


@pytest.mark.parametrize("seed", _SEEDS)
def test_residual_check_matches_the_pair_loop(seed):
    crit = CVaRCriterion(0.2)
    smooth = crit.smoothness_certificate(_CLOSE)
    mv = MeanVarianceCriterion(0.8)
    cases = [
        (crit, _CLOSE, smooth, 12, True),
        (crit, _CLOSE, SmoothnessCertificate(smooth.d1, 1e-3 * smooth.d2, smooth.m0), 12, False),
        # a radius that few pairs fall within: the attempts run out
        (crit, _CLOSE, SmoothnessCertificate(smooth.d1, smooth.d2, 2e-4), 3, False),
        (mv, _MIXED, mv.smoothness_certificate(_MIXED), 12, True),
    ]
    for crit, arms, cert, n_pairs, passed in cases:
        got = checklib.residual_check(crit, arms, cert, n_pairs=n_pairs, seed=seed)
        assert got == loop_residual_check(crit, arms, cert, n_pairs, seed)
        assert got.passed == passed
