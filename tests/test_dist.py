import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from riskbandits.dist import (
    Gaussian,
    PiecewiseLinearCDF,
    PointMass,
    TwoPoint,
    Uniform,
    empirical_from_samples,
    mixture,
    proxy_distribution,
    tail_integral,
)
from riskbandits.errors import DomainError

from conftest import bad1_arm_wide, bad2_arm_step, distribution_catalog, rng


# ---------------------------------------------------------------------------
# CDF / left limits
# ---------------------------------------------------------------------------


def test_point_mass_cdf_step():
    pm = PointMass(5.0)
    assert pm.cdf(4.9) == 0.0
    assert pm.cdf(5.0) == 1.0
    assert pm.cdf_left(5.0) == 0.0


def test_bad1_piecewise_cdf_values():
    f = bad1_arm_wide()
    assert f.cdf(1.0) == pytest.approx(0.1, abs=0)
    assert f.cdf(3.0) == pytest.approx(0.1, abs=0)
    assert f.cdf(-0.1) == 0.0
    assert f.cdf(50.0) == 1.0
    assert f.cdf(27.5) == pytest.approx(27.5 / 50, abs=1e-15)


def test_gaussian_cdf_symmetry():
    assert Gaussian(0, 1).cdf(0.0) == pytest.approx(0.5, abs=1e-15)


def test_bad2_left_limits():
    b2 = bad2_arm_step()
    assert b2.cdf(1.0) == 0.1
    assert b2.cdf_left(1.0) == 0.0
    assert b2.cdf_left(10.0) == 0.1
    assert b2.cdf(10.0) == 1.0


@pytest.mark.parametrize("d", distribution_catalog(), ids=repr)
def test_cdf_monotone_right_continuous(d):
    lo, hi = d.support_bounds()
    pad = max(1.0, 0.2 * (hi - lo))
    ys = np.sort(rng(1).uniform(lo - pad, hi + pad, size=300))
    vals = np.asarray(d.cdf(ys))
    assert np.all(np.diff(vals) >= -1e-15)
    assert np.all((vals >= 0) & (vals <= 1))
    # left limits never exceed the value; they agree off jump points, and the
    # random grid misses the (finitely many) jumps almost surely
    lefts = np.asarray(d.cdf_left(ys))
    assert np.all(lefts <= vals + 1e-15)
    breaks = d.breakpoints()
    off_jump = (
        np.min(np.abs(ys[:, None] - breaks[None, :]), axis=1) > 1e-12
        if len(breaks)
        else np.ones(len(ys), dtype=bool)
    )
    assert np.array_equal(lefts[off_jump], vals[off_jump])
    # right continuity at the jump points themselves
    eps = 1e-9 * max(1.0, hi - lo)
    for b in breaks:
        assert float(d.cdf(b + eps)) - float(d.cdf(b)) <= 1e-6
        assert float(d.cdf(b)) >= float(d.cdf_left(b)) - 1e-15


@pytest.mark.parametrize("d", distribution_catalog(), ids=repr)
def test_cdf_limits_at_infinity(d):
    assert float(d.cdf(-1e12)) == pytest.approx(0.0, abs=1e-12)
    assert float(d.cdf(1e12)) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Quantiles and the Galois connection
# ---------------------------------------------------------------------------


def test_quantile_examples():
    assert PointMass(5.0).quantile(0.1) == 5.0
    f = bad1_arm_wide()
    assert f.quantile(0.1) == pytest.approx(1.0, abs=1e-12)
    assert f.quantile(0.9) == pytest.approx(45.0, abs=1e-12)
    assert empirical_from_samples([1, 2, 3, 4]).quantile(0.5) == 2.0


def test_quantile_brute_force_oracle():
    # independent oracle: scan a fine grid for inf{y | F(y) >= alpha}
    f = bad1_arm_wide()
    ys = np.linspace(-1, 51, 2_000_001)
    vals = np.asarray(f.cdf(ys))
    for alpha in (0.05, 0.1, 0.3, 0.9, 0.99):
        idx = int(np.argmax(vals >= alpha))
        assert f.quantile(alpha) == pytest.approx(ys[idx], abs=5e-5)


def test_quantile_domain_error():
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(DomainError):
            Gaussian(0, 1).quantile(bad)


@pytest.mark.parametrize("d", distribution_catalog(), ids=repr)
def test_galois_connection(d):
    r = rng(7)
    lo, hi = d.support_bounds()
    pad = max(1.0, 0.2 * (hi - lo))
    for _ in range(250):
        alpha = float(r.uniform(1e-9, 1 - 1e-9))
        y = float(r.uniform(lo - pad, hi + pad))
        assert (d.quantile(alpha) <= y) == (alpha <= float(d.cdf(y)))


@given(alpha=st.floats(min_value=1e-6, max_value=1 - 1e-6))
@settings(max_examples=200, deadline=None)
def test_gaussian_quantile_inverts_cdf(alpha):
    g = Gaussian(0.7, 2.0)
    assert float(g.cdf(g.quantile(alpha))) == pytest.approx(alpha, abs=1e-12)


def test_upper_quantile_flat_edges():
    f = bad1_arm_wide()
    assert f.upper_quantile(0.1) == pytest.approx(5.0)
    assert f.upper_quantile(0.5) == pytest.approx(25.0)
    assert bad2_arm_step().upper_quantile(0.1) == pytest.approx(10.0)
    assert Gaussian(0, 1).upper_quantile(0.5) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def test_point_mass_sampling():
    assert np.array_equal(PointMass(5.0).sample(rng(0), 3), [5.0, 5.0, 5.0])


def test_gaussian_sample_mean_clt():
    n = 100_000
    x = Gaussian(0, 1).sample(rng(11), n)
    assert abs(x.mean()) < 4 / math.sqrt(n)


@pytest.mark.parametrize("d", distribution_catalog(), ids=repr)
def test_sampling_deterministic(d):
    a = d.sample(rng(123), 50)
    b = d.sample(rng(123), 50)
    assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "d",
    [Gaussian(0.3, 1.2), PointMass(5.0), Uniform(-1, 2), TwoPoint(0.3, -2, 1), bad1_arm_wide()],
    ids=repr,
)
def test_sampling_is_block_invariant(d):
    # the episode runner draws each arm's rewards in blocks, not one per pull
    n = 200
    whole = d.sample(rng(17), n)
    r = rng(17)
    one_by_one = np.concatenate([d.sample(r, 1) for _ in range(n)])
    r = rng(17)
    two_blocks = np.concatenate([d.sample(r, 73), d.sample(r, n - 73)])
    assert np.array_equal(whole, one_by_one)
    assert np.array_equal(whole, two_blocks)


@pytest.mark.parametrize(
    "d",
    [Gaussian(0, 1), Uniform(-1, 2), TwoPoint(0.3, -2, 1), bad1_arm_wide()],
    ids=repr,
)
def test_sampler_matches_cdf_dkw(d):
    # DKW at n=1000: sup distance < 0.0961 with probability >= 0.99
    n, reps, threshold = 1000, 200, 0.0961
    r = rng(5)
    hits = 0
    for _ in range(reps):
        x = np.sort(d.sample(r, n))
        grid = np.arange(1, n + 1) / n
        right = np.asarray(d.cdf(x))
        left = np.asarray(d.cdf_left(x))
        sup = max(np.max(grid - right), np.max(left - grid + 1.0 / n))
        hits += sup < threshold
    assert hits / reps >= 0.99


def test_mixture_sampling_matches_weights():
    m = mixture([PointMass(0.0), PointMass(1.0)], [0.25, 0.75])
    x = m.sample(rng(3), 40_000)
    assert np.mean(x) == pytest.approx(0.75, abs=0.01)


# ---------------------------------------------------------------------------
# Exact integrals vs quadrature oracles
# ---------------------------------------------------------------------------


def test_gaussian_tail_integrals_quadrature():
    g = Gaussian(0.3, 1.7)
    pdf = stats.norm(0.3, 1.7).pdf
    low, _ = integrate.quad(lambda x: x * pdf(x), -60, 0)
    up, _ = integrate.quad(lambda x: x * pdf(x), 0, 60)
    assert g.lower_tail() == pytest.approx(low, abs=1e-10)
    assert g.upper_tail() == pytest.approx(up, abs=1e-10)
    assert tail_integral(Gaussian(0, 1), "lower") == pytest.approx(0.398942, abs=1e-6)


def test_point_mass_tails():
    assert tail_integral(PointMass(5.0), "lower") == 0.0
    assert tail_integral(PointMass(5.0), "upper") == 5.0


def test_empirical_tails_partial_sums():
    e = empirical_from_samples([-2, 4])
    assert tail_integral(e, "lower") == 1.0
    assert tail_integral(e, "upper") == 2.0


def test_piecewise_moments_quadrature():
    f = bad1_arm_wide()
    # density: 0.1 on [0,1], 0.02 on [5,50]
    def pdf(x):
        if 0 <= x <= 1:
            return 0.1
        if 5 <= x <= 50:
            return 0.02
        return 0.0

    knots = [0, 1, 5, 50]
    mean, _ = integrate.quad(lambda x: x * pdf(x), -1, 51, points=knots, limit=200)
    second, _ = integrate.quad(lambda x: x * x * pdf(x), -1, 51, points=knots, limit=200)
    tsv3, _ = integrate.quad(lambda x: (x - 3) ** 2 * pdf(x), -1, 3, points=[0, 1], limit=200)
    expm, _ = integrate.quad(
        lambda x: math.exp(-0.5 * x) * pdf(x), -1, 51, points=knots, limit=200
    )
    assert f.mean() == pytest.approx(mean, rel=1e-9)
    assert f.second_moment() == pytest.approx(second, rel=1e-9)
    assert f.below_target_semivariance(3.0) == pytest.approx(tsv3, rel=1e-9)
    assert f.exp_moment(0.5) == pytest.approx(expm, rel=1e-9)


def test_gaussian_tsv_quadrature():
    g = Gaussian(-0.4, 0.8)
    pdf = stats.norm(-0.4, 0.8).pdf
    want, _ = integrate.quad(lambda x: (x - 0.2) ** 2 * pdf(x), -40, 0.2)
    assert g.below_target_semivariance(0.2) == pytest.approx(want, abs=1e-10)


def test_cdf_integral_below_quadrature():
    for d in (Gaussian(0.2, 1.1), bad1_arm_wide(), TwoPoint(0.4, -1, 2)):
        v = d.quantile(0.3)
        lo = d.support_bounds()[0] - 40
        want, _ = integrate.quad(lambda y: float(d.cdf(y)), lo, v, limit=400)
        assert d.cdf_integral_below(v) == pytest.approx(want, abs=1e-7)


def test_empirical_cdf_integral_below():
    e = empirical_from_samples([1, 2, 3, 4])
    assert e.cdf_integral_below(2.0) == pytest.approx(0.25)
    assert e.cdf_integral_below(0.0) == 0.0
    assert e.cdf_integral_below(5.0) == pytest.approx((4 + 3 + 2 + 1) / 4)


# ---------------------------------------------------------------------------
# Empirical distributions
# ---------------------------------------------------------------------------


def test_empirical_from_samples_sorted_and_exact():
    e = empirical_from_samples([3, 1, 2])
    assert np.array_equal(e.samples, [1, 2, 3])
    assert float(e.cdf(1)) == pytest.approx(1 / 3)
    assert float(e.cdf(2.5)) == pytest.approx(2 / 3)


def test_empirical_counts_brute_force():
    r = rng(17)
    for _ in range(50):
        x = r.normal(size=int(r.integers(1, 40)))
        e = empirical_from_samples(x)
        for y in r.normal(size=20):
            assert float(e.cdf(y)) == np.mean(x <= y)
            assert float(e.cdf_left(y)) == np.mean(x < y)


def test_empirical_append_keeps_sorted():
    e = empirical_from_samples([5.0])
    for v in [2.0, 7.0, 2.0, -1.0]:
        e = e.with_value(v)
        assert np.all(np.diff(e.samples) >= 0)
    assert e.t == 5


def test_empirical_rejects_empty():
    with pytest.raises(DomainError):
        empirical_from_samples([])


# ---------------------------------------------------------------------------
# Mixtures and the proxy construction
# ---------------------------------------------------------------------------


def test_mixture_vertex_is_component():
    f1, f2 = bad1_arm_wide(), PointMass(5.0)
    m = mixture([f1, f2], [1.0, 0.0])
    ys = np.linspace(-2, 55, 997)
    assert np.allclose(np.asarray(m.cdf(ys)), np.asarray(f1.cdf(ys)), atol=1e-15)


def test_mixture_pointwise_linear(catalog):
    r = rng(23)
    arms = [catalog[0], catalog[4], catalog[6]]
    w = np.array([0.2, 0.5, 0.3])
    m = mixture(arms, w)
    ys = r.uniform(-5, 55, size=200)
    direct = sum(wi * np.asarray(a.cdf(ys)) for wi, a in zip(w, arms))
    assert np.allclose(np.asarray(m.cdf(ys)), direct, atol=1e-12)


def test_mixture_of_point_masses():
    m = mixture([PointMass(0.0), PointMass(1.0)], [0.5, 0.5])
    assert float(m.cdf(0.5)) == 0.5


def test_mixture_weight_validation():
    arms = [PointMass(0.0), PointMass(1.0)]
    with pytest.raises(DomainError):
        mixture(arms, [0.7, 0.4])
    with pytest.raises(DomainError):
        mixture(arms, [-0.1, 1.1])
    m = mixture(arms, [0.5 + 4e-13, 0.5])  # within tolerance: renormalized
    assert float(np.sum(m.weights)) == pytest.approx(1.0, abs=0)


def test_bad1_mixture_quantiles():
    m = mixture([bad1_arm_wide(), PointMass(5.0)], [0.5, 0.5])
    assert m.quantile(0.1) == pytest.approx(5.0, abs=1e-12)
    assert m.quantile(0.9) == pytest.approx(40.0, abs=1e-12)


def test_gaussian_mixture_quantile_bisection():
    m = mixture([Gaussian(0, 1), Gaussian(4, 0.5)], [0.5, 0.5])
    for alpha in (0.05, 0.3, 0.5, 0.9):
        q = m.quantile(alpha)
        assert float(m.cdf(q)) == pytest.approx(alpha, abs=1e-9)


def test_proxy_distribution_weights():
    arms = [PointMass(0.0), PointMass(1.0), PointMass(2.0)]
    assert np.allclose(proxy_distribution(arms[:2], [4, 0], 4).weights, [1, 0])
    assert np.allclose(proxy_distribution(arms[:2], [3, 1], 4).weights, [0.75, 0.25])
    assert np.allclose(proxy_distribution(arms, [1, 1, 2], 4).weights, [0.25, 0.25, 0.5])
    with pytest.raises(DomainError):
        proxy_distribution(arms, [1, 1, 1], 4)


# ---------------------------------------------------------------------------
# Level sets and structure
# ---------------------------------------------------------------------------


def test_level_sets():
    assert Gaussian(0, 1).level_set(0.3)[0] == "point"
    assert PointMass(5.0).level_set(0.3)[0] == "empty"
    kind, lo, hi = bad1_arm_wide().level_set(0.1)
    assert (kind, lo, hi) == ("interval", 1.0, 5.0)


def test_piecewise_validation():
    with pytest.raises(DomainError):
        PiecewiseLinearCDF(np.array([0.0, 0.0]), np.array([0, 0.5]), np.array([0.5, 1]))
    with pytest.raises(DomainError):
        PiecewiseLinearCDF(np.array([0.0, 1.0]), np.array([0, 0.4]), np.array([0.5, 1]))
    with pytest.raises(DomainError):
        PiecewiseLinearCDF.from_pairs([(0, 0.2), (1, 1.0)])  # must start at 0


def test_dkw_concentration_frequency(catalog):
    # over many replications, P(sup >= x) <= 1.2 * 2 exp(-2 t x^2)
    d = Gaussian(0, 1)
    t, x, reps = 64, 0.15, 2000
    r = rng(31)
    draws = np.sort(d.sample(r, reps * t).reshape(reps, t), axis=1)
    grid = np.arange(1, t + 1) / t
    right = np.asarray(d.cdf(draws))
    sup = np.maximum(
        np.max(grid[None, :] - right, axis=1),
        np.max(right - grid[None, :] + 1.0 / t, axis=1),
    )
    bound = 2 * math.exp(-2 * t * x * x)
    assert np.mean(sup >= x) <= 1.2 * bound
