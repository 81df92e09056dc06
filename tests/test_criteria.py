import math

import numpy as np
import pytest
from scipy import integrate, stats

from riskbandits import checks as checklib
from riskbandits import criteria as criteria_module
from riskbandits.criteria import (
    Bad1Criterion,
    Bad2Criterion,
    CVaRCriterion,
    EntropicCriterion,
    MeanCriterion,
    MeanVarianceCriterion,
    NegTSVCriterion,
    NegVarianceCriterion,
    SecondMomentCriterion,
    SharpeCriterion,
    SmoothnessCertificate,
    SortinoCriterion,
    StabilityCertificate,
    VaRCriterion,
    build_criterion,
    check_growth_condition_c4,
    default_concentration_rate,
    fit_c4_constants,
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
from riskbandits.errors import CriterionDomainError, DomainError, UnsupportedOperationError

from conftest import bad1_arm_wide, distribution_catalog, rng


# ---------------------------------------------------------------------------
# Evaluators against independent oracles
# ---------------------------------------------------------------------------


def test_cvar_small_sample_order_statistic():
    crit = CVaRCriterion(0.5)
    assert crit.evaluate(EmpiricalDistribution([1, 2, 3, 4])) == pytest.approx(1.5)
    # oracle: mean of the two smallest order statistics
    assert (1 + 2) / 2 == 1.5


def test_cvar_gaussian_closed_form_and_quadrature():
    alpha = 0.05
    crit = CVaRCriterion(alpha)
    got = crit.evaluate(Gaussian(0, 1))
    z = stats.norm.ppf(alpha)
    closed = -stats.norm.pdf(z) / alpha
    quad, _ = integrate.quad(lambda x: x * stats.norm.pdf(x), -40, z)
    assert got == pytest.approx(closed, abs=1e-12)
    assert got == pytest.approx(quad / alpha, abs=1e-9)
    assert got == pytest.approx(-2.0627, abs=1e-4)


def test_cvar_shifted_scaled_gaussian():
    alpha, mu, sigma = 0.1, 1.3, 2.5
    got = CVaRCriterion(alpha).evaluate(Gaussian(mu, sigma))
    z = stats.norm.ppf(alpha)
    assert got == pytest.approx(mu - sigma * stats.norm.pdf(z) / alpha, abs=1e-12)


def test_cvar_order_statistic_equality_exhaustive():
    result = checklib.cvar_order_statistic_check(seed=12)
    assert result.passed, result.detail


def test_var_is_quantile():
    f = bad1_arm_wide()
    assert VaRCriterion(0.1).evaluate(f) == pytest.approx(1.0)
    assert VaRCriterion(0.9).evaluate(f) == pytest.approx(45.0)


def test_mean_variance_example_and_composition():
    crit = MeanVarianceCriterion(1.0)
    assert crit.evaluate(EmpiricalDistribution([0, 2])) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize(
    "d",
    [
        Gaussian(0.4, 1.2),
        Uniform(-1, 3),
        TwoPoint(0.25, -2, 4),
        bad1_arm_wide(),
        EmpiricalDistribution([-1.5, 0.2, 0.2, 3.7, 5.0]),
    ],
    ids=repr,
)
def test_composites_match_direct_formulas(d):
    mean = d.mean()
    var = d.second_moment() - mean**2
    tsv = d.below_target_semivariance(0.1)
    assert NegVarianceCriterion().evaluate(d) == pytest.approx(-var, abs=1e-12)
    assert MeanVarianceCriterion(0.7).evaluate(d) == pytest.approx(
        mean - 0.7 * var, abs=1e-12
    )
    assert SharpeCriterion(0.1, 0.5).evaluate(d) == pytest.approx(
        (mean - 0.1) / math.sqrt(0.5 + var), abs=1e-12
    )
    assert SortinoCriterion(0.1, 0.5).evaluate(d) == pytest.approx(
        (mean - 0.1) / math.sqrt(0.5 + tsv), abs=1e-12
    )
    assert MeanCriterion().evaluate(d) == pytest.approx(mean, abs=0)
    assert SecondMomentCriterion().evaluate(d) == pytest.approx(d.second_moment(), abs=0)
    assert NegTSVCriterion(0.1).evaluate(d) == pytest.approx(-tsv, abs=0)


def test_entropic_gaussian_closed_form():
    # certainty equivalent of N(mu, s^2) under exp(-theta x): mu - theta s^2 / 2
    theta, mu, s = 0.8, 0.5, 1.4
    got = EntropicCriterion(theta).evaluate(Gaussian(mu, s))
    assert got == pytest.approx(mu - theta * s * s / 2, abs=1e-12)
    assert EntropicCriterion(1.0).evaluate(PointMass(3.0)) == pytest.approx(3.0)


def test_sortino_point_mass_example():
    got = SortinoCriterion(0.0, 1.0).evaluate(PointMass(-1.0))
    assert got == pytest.approx(-1 / math.sqrt(2), abs=1e-9)


def test_entropic_domain_error():
    class DivergentExp(PointMass):
        def exp_moment(self, theta):
            return math.inf

    # an infinite exp-moment, and a Gaussian one that overflows a float: exp(800)
    for arm in (DivergentExp(0.0), Gaussian(0.0, 40.0)):
        with pytest.raises(CriterionDomainError) as err:
            EntropicCriterion(1.0).evaluate(arm)
        assert "exp-moment" in err.value.constraint


def test_sharpe_guard_flags_not_errors():
    crit = SharpeCriterion(1.0, 0.5)
    low = PointMass(0.0)  # mean below target
    assert crit.domain_flags(low) == ["x1 >= r"]
    assert math.isfinite(crit.evaluate(low))  # regularizer keeps it total
    with pytest.raises(CriterionDomainError):
        crit.h(np.array([1.0, 0.0]))  # infeasible coordinates: x2 < x1^2


# ---------------------------------------------------------------------------
# Pathological demonstration criteria
# ---------------------------------------------------------------------------


def test_bad1_closed_form_table(bad1_arms):
    crit = Bad1Criterion()
    values = {
        0.0: 46.0,
        0.5: 45.0,
        0.95: 10.0,
    }
    for p2, want in values.items():
        f = MixtureDistribution(bad1_arms, [1 - p2, p2]) if p2 > 0 else bad1_arms[0]
        assert crit.evaluate(f) == pytest.approx(want, abs=1e-9)
    # interior branch formula: 5 + (45 - 50 p2) / (1 - p2)
    for p2 in (0.1, 0.25, 0.6, 0.8):
        got = crit.evaluate(MixtureDistribution(bad1_arms, [1 - p2, p2]))
        assert got == pytest.approx(5 + (45 - 50 * p2) / (1 - p2), abs=1e-9)


def test_bad2_closed_form_table(bad2_arms):
    crit = Bad2Criterion()
    cases = {0.5: 5.0, 0.95: 6.0, 1.0: 10.0}
    for p2, want in cases.items():
        f = MixtureDistribution(bad2_arms, [1 - p2, p2])
        assert crit.evaluate(f) == pytest.approx(want, abs=1e-9)
    # the four stationary branches: 5 below 8/9; -85 + 10/(1-p2) on the
    # narrow strip (8/9, 81/91); 6 up to 1; 10 at the vertex
    def stationary(p2):
        if p2 < 8 / 9:
            return 5.0
        if p2 < 81 / 91:
            return -85 + 10 / (1 - p2)
        return 6.0 if p2 < 1 else 10.0

    for p2 in (0.2, 0.7, 0.885, 0.8893, 0.8899, 0.92, 0.99):
        got = crit.evaluate(MixtureDistribution(bad2_arms, [1 - p2, p2]))
        assert got == pytest.approx(stationary(p2), abs=1e-9), p2


def test_bad2_point_mass():
    assert Bad2Criterion().evaluate(PointMass(10.0)) == pytest.approx(10.0)


def test_bad2_on_empirical_flat_stretch():
    # samples below 1 force the +5 bonus; percentile rides the flat stretch
    crit = Bad2Criterion()
    emp = EmpiricalDistribution([0.5] + [20.0] * 9)
    # percentile at 0.1 level = 0.5, flat stretch ends at next atom 20
    assert crit.evaluate(emp) == pytest.approx(25.0)


# ---------------------------------------------------------------------------
# Residuals and linear maps
# ---------------------------------------------------------------------------


def test_residual_zero_at_reference():
    crit = MeanVarianceCriterion(0.4)
    f = Gaussian(0.2, 1.0)
    assert crit.residual(f, f) == pytest.approx(0.0, abs=1e-14)


def test_linear_criterion_zero_residual():
    crit = MeanCriterion()
    g = EmpiricalDistribution([3, 7, -1])
    f = PointMass(1.0)
    assert crit.residual(g, f) == pytest.approx(0.0, abs=1e-14)


def test_neg_variance_residual_hand_example():
    crit = NegVarianceCriterion()
    f = PointMass(0.0)
    g = EmpiricalDistribution([-1.0, 1.0])
    # gradient of -(x2 - x1^2) at (0, 0) is (0, -1): A = -(1 - 0) = -1
    assert crit.linear_map(f, g) == pytest.approx(-1.0)
    assert crit.residual(g, f) == pytest.approx(0.0, abs=1e-14)


def test_var_has_no_linear_map():
    with pytest.raises(UnsupportedOperationError):
        VaRCriterion(0.1).linear_map(Gaussian(0, 1), Gaussian(0.1, 1))


@pytest.mark.parametrize(
    "crit",
    [
        MeanVarianceCriterion(0.6),
        NegVarianceCriterion(),
        SharpeCriterion(0.0, 0.8),
        SortinoCriterion(0.0, 0.8),
        EntropicCriterion(0.5),
        CVaRCriterion(0.2),
    ],
    ids=lambda c: c.tag,
)
def test_linear_map_matches_directional_derivative(crit):
    # finite-difference oracle: A_F(G - F) = lim (R((1-e)F + eG) - R(F)) / e
    f = MixtureDistribution([Gaussian(0.0, 1.0), Gaussian(0.5, 1.2)], [0.6, 0.4])
    g = EmpiricalDistribution(f.sample(rng(4), 400))
    eps = 1e-6
    blend = MixtureDistribution([f, g], [1 - eps, eps])
    fd = (crit.evaluate(blend) - crit.evaluate(f)) / eps
    assert crit.linear_map(f, g) == pytest.approx(fd, abs=5e-4)
    res_fd = crit.evaluate(g) - crit.evaluate(f) - fd
    assert crit.residual(g, f) == pytest.approx(res_fd, abs=5e-4)


def test_cvar_residual_sign_and_bound():
    # the tail-average residual is non-negative and quadratically bounded
    alpha = 0.2
    crit = CVaRCriterion(alpha)
    arms = [Gaussian(0, 1), Gaussian(0.05, 1.1)]
    smooth = crit.smoothness_certificate(arms)
    assert smooth is not None
    r = rng(9)
    from riskbandits.norms import norm_distance

    for _ in range(40):
        w = float(r.uniform(0, 1))
        f = MixtureDistribution(arms, [w, 1 - w])
        g = EmpiricalDistribution(f.sample(r, 3000))
        d = norm_distance(f, g, crit.functionals)
        if d > smooth.m0:
            continue
        res = crit.residual(g, f)
        assert res >= -1e-12
        assert abs(res) <= 0.5 * smooth.d2 * d * d + 1e-10


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


def test_default_concentration_rates():
    assert default_concentration_rate(0) == pytest.approx(2.0)
    assert default_concentration_rate(1) == pytest.approx(2 * math.log(2) / math.log(4))
    assert default_concentration_rate(2) == pytest.approx(2 * math.log(2) / math.log(6))


# m, the number of bound-norm functionals, of every criterion kind with a
# default stability certificate
_BOUND_NORM_SIZE = {
    "mean": 1, "second-moment": 1, "neg-tsv": 1,
    "neg-variance": 2, "mean-variance": 2, "sharpe": 2, "sortino": 2, "var": 2, "cvar": 2,
}


@pytest.mark.parametrize("kind", sorted(criteria_module._FACTORIES))
def test_default_certificate_rate_counts_the_bound_norm_functionals(kind):
    names = criteria_module._FACTORIES[kind][1]
    crit = build_criterion(kind, **{n: _EVERY_KIND_PARAMS[n] for n in names})
    cert = crit.stability_certificate([Gaussian(0.0, 1.0), Gaussian(0.1, 1.0)])
    if kind not in _BOUND_NORM_SIZE:
        assert cert is None
        return
    assert len(crit.functionals) == _BOUND_NORM_SIZE[kind]
    assert cert.a == default_concentration_rate(len(crit.functionals))


def test_cvar_certificate_spec_example():
    # alpha=0.1 and unit norm bound: b = 10 (1 + 3/0.1) = 310
    crit = CVaRCriterion(0.1)
    cert = crit.stability_certificate([PointMass(0.5), PointMass(1.0)])
    assert cert.b == pytest.approx(310.0)
    assert cert.q == 2.0
    assert cert.modulus(0.0) == 0.0
    assert StabilityCertificate(1, 2, 2).modulus(1.0) == pytest.approx(4.0)


def test_certificate_overrides():
    crit = CVaRCriterion(0.1)
    cert = crit.stability_certificate([PointMass(0.0)], a=1.5, b=2.0)
    assert (cert.a, cert.b, cert.q) == (1.5, 2.0, 2.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["a", "b", "q", "d1", "d2", "m0"])
def test_stability_certificate_rejects_non_finite(field, bad):
    if field in ("a", "b", "q"):
        values = {"a": 1.0, "b": 1.0, "q": 2.0, field: bad}
        with pytest.raises(DomainError, match="finite"):
            StabilityCertificate(**values)
        with pytest.raises(DomainError, match="finite"):
            CVaRCriterion(0.1).stability_certificate([PointMass(0.0)], **{field: bad})
    elif field == "m0" and bad == math.inf:
        # the linear criteria's radius: their residual bound holds at every distance
        assert SmoothnessCertificate(1.0, 1.0, math.inf).m0 == math.inf
    else:
        with pytest.raises(DomainError, match="finite"):
            SmoothnessCertificate(**{"d1": 1.0, "d2": 1.0, "m0": 1.0, field: bad})


def test_certificate_q_values():
    arms = [Gaussian(0, 1), Gaussian(0.1, 1)]
    assert CVaRCriterion(0.1).stability_certificate(arms).q == 2.0
    assert VaRCriterion(0.1).stability_certificate(arms).q == 1.0
    assert MeanCriterion().stability_certificate(arms).q == 1.0
    assert MeanVarianceCriterion(1.0).stability_certificate(arms).q == 2.0
    assert SortinoCriterion(0, 1).stability_certificate(arms).q == 2.0
    assert SharpeCriterion(0, 1).stability_certificate(arms).q == 3.0


def test_mean_variance_certificate_formula():
    arms = [PointMass(2.0), PointMass(-1.0)]
    rho = 0.5
    cert = MeanVarianceCriterion(rho).stability_certificate(arms)
    want = rho + max(abs(1 + 2 * rho * 2.0), abs(1 + 2 * rho * (-1.0)))
    assert cert.b == pytest.approx(want)


def test_entropic_has_no_stability_certificate():
    assert EntropicCriterion(1.0).stability_certificate([Gaussian(0, 1)]) is None
    smooth = EntropicCriterion(1.0).smoothness_certificate([PointMass(0.0)])
    assert smooth is not None and smooth.d2 > 0


def test_var_certificate_needs_growth_constants():
    # flat-at-level distribution: growth condition unsatisfiable
    flat = PiecewiseLinearCDF.from_pairs([(0, 0.0), (1, 0.1), (2, 0.1), (3, 1.0)])
    assert fit_c4_constants([flat], 0.1) is None
    assert VaRCriterion(0.1).stability_certificate([flat]) is None
    cert = VaRCriterion(0.1).stability_certificate([Gaussian(0, 1)])
    assert cert is not None and cert.q == 1.0


# ---------------------------------------------------------------------------
# Conditions C3 / C4
# ---------------------------------------------------------------------------


def test_level_set_condition_examples():
    assert Gaussian(0, 1).level_set(0.3)[0] == "point"
    assert PointMass(5.0).level_set(0.3)[0] == "empty"
    assert bad1_arm_wide().level_set(0.1)[0] == "interval"


def test_growth_condition_gaussian_spec_example():
    g = Gaussian(0, 1)
    alpha = 0.1
    f_at_var = stats.norm.pdf(stats.norm.ppf(alpha))
    assert f_at_var == pytest.approx(0.1755, abs=1e-4)
    tight, _, _ = check_growth_condition_c4(g, alpha, 1.01 / f_at_var, 0.05, 1e-3)
    assert not tight  # barely-superunit local slope loses to curvature
    ok, slack, _ = check_growth_condition_c4(g, alpha, 2.0 / f_at_var, 0.05, 1e-3)
    assert ok and slack >= 0


def test_growth_condition_flat_fails_every_scale():
    flat = PiecewiseLinearCDF.from_pairs([(0, 0.0), (1, 0.1), (2, 0.1), (3, 1.0)])
    for b_alpha in (0.5, 1, 4, 64, 1024):
        ok, slack, _ = check_growth_condition_c4(flat, 0.1, b_alpha, 0.05, 1e-3)
        assert not ok and slack < 0


def test_growth_condition_jump_passes():
    ok, _, _ = check_growth_condition_c4(PointMass(5.0), 0.1, 1.0, 0.05, 1e-3)
    assert ok


# ---------------------------------------------------------------------------
# Invariant suites (smaller samples; the acceptance suite runs them at 500)
# ---------------------------------------------------------------------------

_MODULUS_CASES = [
    (MeanCriterion(), [Gaussian(0.2, 1.0), Uniform(-1, 2), TwoPoint(0.3, -1, 3)]),
    (SecondMomentCriterion(), [Gaussian(0.2, 1.0), Uniform(-1, 2)]),
    (NegTSVCriterion(0.0), [Gaussian(0.2, 1.0), TwoPoint(0.4, -2, 1)]),
    (NegVarianceCriterion(), [Gaussian(0.5, 1.0), Uniform(-1, 2)]),
    (MeanVarianceCriterion(0.8), [Gaussian(0.5, 1.0), Uniform(-1, 2)]),
    (SharpeCriterion(0.0, 0.5), [Gaussian(0.5, 1.0), Uniform(0, 2)]),
    (SortinoCriterion(0.0, 0.5), [Gaussian(0.5, 1.0), Uniform(0, 2)]),
    (CVaRCriterion(0.1), [Gaussian(0, 1), Gaussian(0.1, 1.0)]),
    (VaRCriterion(0.1), [Gaussian(0, 1), Gaussian(0.1, 1.0)]),
]


@pytest.mark.parametrize("crit,arms", _MODULUS_CASES, ids=lambda x: getattr(x, "tag", ""))
def test_modulus_inequality(crit, arms):
    cert = crit.stability_certificate(arms)
    assert cert is not None
    result = checklib.modulus_check(crit, arms, cert, n_pairs=80, seed=21)
    assert result.passed, result.detail


_CONVEXITY_CASES = [
    (MeanCriterion(), [Gaussian(0.2, 1.0), Uniform(-1, 2), TwoPoint(0.3, -1, 3)]),
    (EntropicCriterion(0.7), [Gaussian(0.2, 1.0), Uniform(-1, 2)]),
    (NegVarianceCriterion(), [Gaussian(0.5, 1.0), Uniform(-1, 2), PointMass(1.0)]),
    (MeanVarianceCriterion(0.8), [Gaussian(0.5, 1.0), Uniform(-1, 2)]),
    (SharpeCriterion(0.0, 0.5), [Gaussian(1.0, 1.0), Uniform(0.5, 2)]),
    (SortinoCriterion(0.0, 0.5), [Gaussian(1.0, 1.0), Uniform(0.5, 2)]),
    (CVaRCriterion(0.25), [Gaussian(0, 1), Uniform(-1, 2), PointMass(0.3)]),
    (VaRCriterion(0.25), [Gaussian(0, 1), Uniform(-1, 2), PointMass(0.3)]),
]


@pytest.mark.parametrize("crit,arms", _CONVEXITY_CASES, ids=lambda x: getattr(x, "tag", ""))
def test_convexity_class(crit, arms):
    result = checklib.convexity_check(crit, arms, n_pairs=60, seed=33)
    assert result.passed, result.detail


def test_var_quasiconvexity_on_mixture_segments():
    # dedicated percentile check along lambda-blends
    crit = VaRCriterion(0.3)
    arms = [Gaussian(0, 1), TwoPoint(0.5, -1, 2)]
    r = rng(8)
    for _ in range(200):
        w = float(r.uniform(0, 1))
        lam = float(r.uniform(0, 1))
        f = MixtureDistribution(arms, [w, 1 - w])
        g = MixtureDistribution(arms, [1 - w, w])
        blend = MixtureDistribution(arms, [lam * w + (1 - lam) * (1 - w),
                                           lam * (1 - w) + (1 - lam) * w])
        assert crit.evaluate(blend) <= max(crit.evaluate(f), crit.evaluate(g)) + 1e-9


@pytest.mark.parametrize(
    "crit,arms",
    [
        (MeanVarianceCriterion(0.8), [Gaussian(0.5, 1.0), Uniform(-1, 2)]),
        (NegVarianceCriterion(), [Gaussian(0.5, 1.0), Uniform(-1, 2)]),
        (SharpeCriterion(0.0, 0.8), [Gaussian(0.5, 1.0), Uniform(0, 2)]),
        (SortinoCriterion(0.0, 0.8), [Gaussian(0.5, 1.0), Uniform(0, 2)]),
        (CVaRCriterion(0.2), [Gaussian(0, 1), Gaussian(0.05, 1.05)]),
    ],
    ids=lambda x: getattr(x, "tag", ""),
)
def test_residual_quadratic_bound(crit, arms):
    smooth = crit.smoothness_certificate(arms)
    assert smooth is not None
    result = checklib.residual_check(crit, arms, smooth, n_pairs=40, seed=55)
    assert result.passed, result.detail


# ---------------------------------------------------------------------------
# Factory
# ---------------------------------------------------------------------------


def test_build_criterion_roundtrip():
    assert build_criterion("cvar", alpha=0.1).tag == "cvar"
    assert build_criterion("sharpe", r=0.0, eps_sigma=1.0).tag == "sharpe"
    with pytest.raises(DomainError):
        build_criterion("unknown")
    with pytest.raises(DomainError):
        build_criterion("cvar")
    with pytest.raises(DomainError):
        build_criterion("mean", alpha=0.3)


_EVERY_KIND_PARAMS = {"r": 0.0, "theta": 0.5, "rho": 0.8, "eps_sigma": 0.5, "alpha": 0.25}


@pytest.mark.parametrize("kind", sorted(criteria_module._FACTORIES))
def test_evaluate_returns_a_python_float_on_every_distribution_kind(kind):
    # CSV cells are written with str(): a numpy scalar would print as np.float64(...)
    names = criteria_module._FACTORIES[kind][1]
    crit = build_criterion(kind, **{n: _EVERY_KIND_PARAMS[n] for n in names})
    catalog = distribution_catalog()
    dists = catalog + [
        Gaussian(0, 1),
        PointMass(1),
        Uniform(0, 1),
        TwoPoint(0.5, 0, 1),
        MixtureDistribution([Uniform(0.0, 1.0), PointMass(0.05)], [0.5, 0.5]),
        MixtureDistribution([catalog[0], catalog[4], catalog[5]], [0.2, 0.5, 0.3]),
    ]
    for f in dists:
        try:
            value = crit.evaluate(f)
        except DomainError:
            continue
        assert type(value) is float, (f, value)
        assert type(f.cdf_integral_below(0.5)) is float, f


# ---------------------------------------------------------------------------
# Running summaries (accumulators) against the full-sample evaluation
# ---------------------------------------------------------------------------

_ACCUMULATOR_CRITERIA = [
    CVaRCriterion(0.1),
    CVaRCriterion(0.25),
    VaRCriterion(0.1),
    VaRCriterion(0.3),
    MeanCriterion(),
    SecondMomentCriterion(),
    NegTSVCriterion(1.0),
    EntropicCriterion(0.7),
    NegVarianceCriterion(),
    MeanVarianceCriterion(0.2),
    SharpeCriterion(0.0, 0.5),
    SortinoCriterion(0.0, 0.5),
    Bad1Criterion(),
]

_ACCUMULATOR_ARMS = {
    "gaussian": [Gaussian(1.5, 1.0), Gaussian(2.0, 0.5), Gaussian(3.0, 2.0)],
    # rewards tie at the quantile, and at the semivariance target
    "ties": [TwoPoint(0.3, -2.0, 1.0), PointMass(1.0), PointMass(0.5)],
}


@pytest.mark.parametrize("arms", list(_ACCUMULATOR_ARMS))
@pytest.mark.parametrize("crit", _ACCUMULATOR_CRITERIA, ids=lambda c: f"{c.tag}-{c.params_label()}")
def test_accumulator_matches_full_sample_after_every_push(crit, arms):
    arm_set = _ACCUMULATOR_ARMS[arms]
    r = rng(17)
    which = r.integers(0, len(arm_set), size=300)
    rewards = [float(arm_set[i].sample(r, 1)[0]) for i in which]
    acc = crit.accumulator()
    for n, x in enumerate(rewards, start=1):
        acc.push(x)
        assert acc.t == n
        want = crit.evaluate(EmpiricalDistribution(rewards[:n]))
        assert crit.evaluate(acc) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_order_statistic_accumulator_answers_only_its_own_level():
    acc = CVaRCriterion(0.25).accumulator()
    for x in (3.0, 1.0, 2.0, 0.0):
        acc.push(x)
    assert acc.quantile(0.25) == 0.0
    assert acc.cdf_integral_below(0.0) == 0.0
    with pytest.raises(UnsupportedOperationError):
        acc.quantile(0.5)
    with pytest.raises(UnsupportedOperationError):
        acc.cdf_integral_below(1.0)


def test_running_sums_refuse_an_overflowing_exp_moment_like_the_full_sample():
    crit = EntropicCriterion(0.7)
    acc = crit.accumulator()
    for x in (0.5, -2000.0):
        acc.push(x)
    with np.errstate(over="ignore"), pytest.raises(CriterionDomainError):
        crit.evaluate(EmpiricalDistribution([0.5, -2000.0]))
    with pytest.raises(CriterionDomainError):
        crit.evaluate(acc)


def test_running_sums_answer_only_their_functionals():
    acc = MeanCriterion().accumulator()
    acc.push(2.0)
    assert acc.mean() == 2.0
    with pytest.raises(UnsupportedOperationError):
        acc.second_moment()
