import math

from riskbandits import checks as checklib
from riskbandits.criteria import CVaRCriterion, MeanCriterion
from riskbandits.dist import Gaussian, PiecewiseLinearCDF, PointMass, Uniform

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
