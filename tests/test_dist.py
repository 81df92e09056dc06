import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from riskbandits.dist import (
    EmpiricalDistribution,
    Gaussian,
    MixtureDistribution,
    PiecewiseLinearCDF,
    PointMass,
    TwoPoint,
    Uniform,
    proxy_distribution,
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


def searchsorted_cdf(d, y):
    """The searchsorted form of the piecewise CDF, kept as the reference."""
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    idx = np.searchsorted(d.ys, yv, side="right") - 1
    out = np.zeros(yv.shape, dtype=float)
    last = idx == len(d.ys) - 1
    out[last] = 1.0
    mid = (idx >= 0) & ~last
    k = idx[mid]
    f0 = d.fr[k]
    f1 = d.fl[k + 1]
    t = (yv[mid] - d.ys[k]) / (d.ys[k + 1] - d.ys[k])
    out[mid] = f0 + t * (f1 - f0)
    return out


def searchsorted_cdf_left(d, y):
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    out = searchsorted_cdf(d, yv)
    at_knot = np.isin(yv, d.ys)
    out[at_knot] = d.fl[np.searchsorted(d.ys, yv[at_knot])]
    out[yv > d.ys[-1]] = 1.0
    return out


def random_knot_table(r):
    """A random piecewise CDF: jumps, flat stretches and slopes; 1-7 knots."""
    n = int(r.integers(1, 8))
    ys = r.normal(0.0, 10.0) + np.cumsum(r.choice([1e-3, 0.5, 7.0], size=n) * (r.random(n) + 0.01))
    # interleaved (fl[0], fr[0], fl[1], ...): about 40 % of the steps are 0,
    # which makes flat stretches (between knots) and knots without a jump
    steps = r.random(2 * n) * (r.random(2 * n) < 0.6)
    steps[-1] += 1e-3
    vals = np.cumsum(steps) / np.sum(steps)
    return PiecewiseLinearCDF(ys, np.r_[0.0, vals[2::2]], vals[1::2])


def assert_matches_reference_inside(d, inside):
    """Probes strictly inside segments: within 4 ulp of the segment's end value.

    np.interp computes slope * (y - a) + F(a), the reference
    F(a) + (y - a) / (b - a) * dF: the roundings differ by up to 2 ulp.  A
    slope the constructor lowered to stop an overshoot (see the monotone
    test) moves the line by up to about 2 ulp of the segment's end value.
    """
    ref = searchsorted_cdf(d, inside)
    end_value = d.fl[np.searchsorted(d.ys, inside, side="right")]
    for got in (d.cdf(inside), d.cdf_left(inside)):
        assert np.all(np.abs(got - ref) <= 4 * np.spacing(end_value))
        assert np.all((got >= 0.0) & (got <= 1.0))


def test_kernel_cdf_matches_searchsorted_reference():
    r = rng(29)
    for _ in range(400):
        d = random_knot_table(r)
        lo, hi = d.ys[0], d.ys[-1]
        outside = np.array([lo - 1.0, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf), hi + 5.0])
        for y in (d.ys, outside):
            assert np.array_equal(d.cdf(y), searchsorted_cdf(d, y))
            assert np.array_equal(d.cdf_left(y), searchsorted_cdf_left(d, y))
        inside = r.uniform(lo, hi, 200)
        inside = inside[~np.isin(inside, d.ys)]
        assert_matches_reference_inside(d, inside)
        for y in np.r_[d.ys, inside[:20], outside]:
            assert d.cdf(y) == float(d.cdf(np.array([y]))[0])
            assert d.cdf_left(y) == float(d.cdf_left(np.array([y]))[0])


def test_kernel_cdf_is_monotone_into_every_knot():
    # np.interp's rounded slope can overshoot a segment's end value in the
    # last floats before a knot: with the plain (left limit, value) table,
    # 12 of these tables would dip into the jump-free knot b or rise above 1
    # before the last knot
    r = rng(31)
    for _ in range(10_000):
        a = r.normal() * 10.0 ** r.integers(-3, 4)
        b = a + r.random() * 10.0 ** r.integers(-3, 4) + 1e-9
        f0 = r.random() ** r.integers(1, 6)
        f1 = f0 + (1.0 - f0) * r.random()
        d = PiecewiseLinearCDF([a, b, b + 1.0], [0.0, f1, 1.0], [f0, f1, 1.0])
        knots = np.array([b, b + 1.0])
        before = np.nextafter(knots, -np.inf)
        assert np.all(d.cdf(before) <= d.cdf(knots))
        inside = np.r_[before, r.uniform(a, b + 1.0, 4)]
        assert_matches_reference_inside(d, inside[~np.isin(inside, d.ys)])


def test_kernel_single_knot_and_flat_tables():
    pm = PiecewiseLinearCDF([2.0], [0.0], [1.0])
    ys = np.array([1.0, 2.0, np.nextafter(2.0, np.inf)])
    assert np.array_equal(pm.cdf(ys), [0.0, 1.0, 1.0])
    assert np.array_equal(pm.cdf_left(ys), [0.0, 0.0, 1.0])
    flat = PiecewiseLinearCDF([0.0, 1.0, 3.0], [0.0, 0.4, 0.4], [0.4, 0.4, 1.0])
    ys = np.array([0.0, 0.5, 1.0, 2.0, 3.0])
    assert np.array_equal(flat.cdf(ys), [0.4, 0.4, 0.4, 0.4, 1.0])
    assert np.array_equal(flat.cdf_left(ys), [0.0, 0.4, 0.4, 0.4, 0.4])


@pytest.mark.parametrize("d", distribution_catalog(), ids=repr)
def test_cdf_limits_at_infinity(d):
    assert float(d.cdf(-1e12)) == pytest.approx(0.0, abs=1e-12)
    assert float(d.cdf(1e12)) == pytest.approx(1.0, abs=1e-12)


def test_cdf_of_nan_is_nan_for_every_kind():
    mixtures = [
        MixtureDistribution([EmpiricalDistribution([1.0, 2.0]), EmpiricalDistribution([0.5])],
                            [0.4, 0.6]),
        MixtureDistribution([Gaussian(0.0, 1.0), bad1_arm_wide()], [0.5, 0.5]),
    ]
    for d in [*distribution_catalog(), *mixtures]:
        for f in (d.cdf, d.cdf_left):
            assert math.isnan(f(math.nan)), d
            out = f(np.array([math.nan, 0.0, math.nan]))
            assert np.isnan(out[[0, 2]]).all() and out[1] == f(0.0), d


# ---------------------------------------------------------------------------
# Quantiles and the Galois connection
# ---------------------------------------------------------------------------


def test_quantile_examples():
    assert PointMass(5.0).quantile(0.1) == 5.0
    f = bad1_arm_wide()
    assert f.quantile(0.1) == pytest.approx(1.0, abs=1e-12)
    assert f.quantile(0.9) == pytest.approx(45.0, abs=1e-12)
    assert EmpiricalDistribution([1, 2, 3, 4]).quantile(0.5) == 2.0


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


def test_scalar_and_array_quantiles_agree_on_random_tables():
    # both interpolate on the segment searchsorted finds, which rises: the
    # level lies strictly above its start value; probed at every knot value
    r = rng(37)
    for _ in range(1000):
        d = random_knot_table(r)
        levels = np.r_[r.random(10), d.fl, d.fr]
        want = [d._quantile(float(a)) for a in levels]
        assert np.array_equal(d.quantile_array(levels), want)


def mask_quantile_array(d, u):
    """The gather/mask/scatter inverse CDF that the per-segment tables
    replaced: the oracle for ``PiecewiseLinearCDF.quantile_array``."""
    u = np.asarray(u, dtype=float)
    ks = np.searchsorted(d.fr, u, side="left")
    ks = np.minimum(ks, len(d.ys) - 1)
    out = d.ys[ks].copy()
    interp = (ks > 0) & (d.fl[ks] >= u)
    k = ks[interp]
    f0 = d.fr[k - 1]  # fr[k-1] < u <= fl[k], as in _quantile
    t = (u[interp] - f0) / (d.fl[k] - f0)
    out[interp] = d.ys[k - 1] + t * (d.ys[k] - d.ys[k - 1])
    return out


def oracle_knot_table(r):
    """A random knot table of 1-8 knots, at location scale 1e-3 to 1e3 and
    possibly below 0: flats, knots without a jump, and jumps at either end."""
    n = int(r.integers(1, 9))
    ys = 10.0 ** r.uniform(-3, 3) * (r.normal(0.0, 3.0) + np.cumsum(r.random(n) + 0.05))
    # interleaved (fl[0], fr[0], fl[1], ...) increments; a zero step is a flat
    # stretch (between knots) or a knot without a jump
    steps = r.random(2 * n) * (r.random(2 * n) < 0.6)
    steps[0] = 0.0
    if not steps.any():
        steps[-1] = 1.0
    vals = np.cumsum(steps) / np.sum(steps)
    return PiecewiseLinearCDF(ys, vals[0::2], vals[1::2])


def assert_same_bits(got, want):
    # int64 views tell -0.0 from +0.0
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_quantile_array_matches_mask_oracle_bit_for_bit():
    r = rng(41)
    tables = [oracle_knot_table(r) for _ in range(300)]
    tables += [bad1_arm_wide(), bad2_arm_step(), PointMass(-2.0), Uniform(-1e-3, 1e3), TwoPoint(0.3, -5.0, 5.0)]
    # a subnormal rise: levels above it overflow in lanes quantile_array discards
    tables.append(PiecewiseLinearCDF([0.0, 1.0, 2.0], [0.0, 1e-320, 0.5], [0.0, 0.5, 1.0]))
    sizes = {len(d.ys) for d in tables}
    assert {1, 8} <= sizes
    assert any(d.fr[0] > 0.0 and len(d.ys) > 1 for d in tables)  # jump at the first knot
    assert any(d.fl[-1] < 1.0 for d in tables)  # jump at the last knot
    assert any(np.any(d.fl[1:] == d.fr[:-1]) for d in tables)  # flat stretch
    for d in tables:
        knots = np.r_[d.fl, d.fr]
        levels = np.r_[0.0, r.random(200), knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf)]
        # the level just above 0 (5e-324) underflows in both methods
        with np.errstate(all="raise", under="ignore"):
            assert_same_bits(d.quantile_array(levels), mask_quantile_array(d, levels))


def test_quantile_array_keeps_the_input_shape():
    u = Uniform(0, 2).quantile_array(0.3)
    assert u.shape == () and u == 0.6
    d = bad1_arm_wide()
    levels = rng(2).random((3, 4))
    got = d.quantile_array(levels)
    assert_same_bits(got, mask_quantile_array(d, levels.ravel()).reshape(3, 4))


@pytest.mark.parametrize(
    "d",
    [PiecewiseLinearCDF.from_pairs([(0, 0.0), (1, 0.3), (2, 0.3), (3, 1.0)]), bad1_arm_wide()],
    ids=["var-flat", "bad1-wide"],
)
def test_seeded_draws_match_mask_oracle(d):
    for n in (1, 64, 100_000):
        assert_same_bits(d.sample(rng(9), n), mask_quantile_array(d, rng(9).random(n)))


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


def test_closed_form_kinds_keep_their_seeded_streams():
    n = 100_000
    # Uniform samples through the kernel's inverse CDF: lo + u (hi - lo)
    for lo, hi in [(-1.0, 2.0), (0.5, 0.75), (1e6, 1e6 + 3.0)]:
        assert np.array_equal(Uniform(lo, hi).sample(rng(3), n), rng(3).uniform(lo, hi, n))
    r = rng(3)
    state = r.bit_generator.state
    assert np.array_equal(PointMass(-0.25).sample(r, n), np.full(n, -0.25))
    assert r.bit_generator.state == state
    for p in (0.0, 0.3, 1.0):
        got = TwoPoint(p, -2.0, 1.0).sample(rng(3), n)
        assert np.array_equal(got, np.where(rng(3).random(n) < p, 1.0, -2.0))


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
    m = MixtureDistribution([PointMass(0.0), PointMass(1.0)], [0.25, 0.75])
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
    assert abs(Gaussian(0, 1).lower_tail()) == pytest.approx(0.398942, abs=1e-6)


def test_point_mass_tails():
    assert abs(PointMass(5.0).lower_tail()) == 0.0
    assert abs(PointMass(5.0).upper_tail()) == 5.0


def test_empirical_tails_partial_sums():
    e = EmpiricalDistribution([-2, 4])
    assert abs(e.lower_tail()) == 1.0
    assert abs(e.upper_tail()) == 2.0


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


def test_gaussian_exp_moment_overflows_to_inf():
    # like the piecewise and empirical kinds (np.exp), not OverflowError
    assert Gaussian(0.0, 40.0).exp_moment(1.0) == math.inf
    assert Gaussian(0.0, 1.0).exp_moment(1.0) == math.exp(0.5)


def _exact_integrals(d, r):
    """Mean, second moment, lower tail and semivariance below r of a knot
    table, in exact rational arithmetic on its stored floats."""
    ys = [Fraction(y) for y in d.ys]
    fl = [Fraction(f) for f in d.fl]
    fr = [Fraction(f) for f in d.fr]
    r = Fraction(r)
    mean = second = lower = tsv = Fraction(0)
    for y, a, b in zip(ys, fl, fr):
        mean += y * (b - a)
        second += y * y * (b - a)
        lower += y * (b - a) if y <= 0 else 0
        tsv += (y - r) ** 2 * (b - a) if y <= r else 0
    for a, b, f0, f1 in zip(ys, ys[1:], fr, fl[1:]):
        m = f1 - f0
        mean += m * (a + b) / 2
        second += m * (a * a + a * b + b * b) / 3
        for c, part in ((Fraction(0), "lower"), (r, "tsv")):
            cut = min(b, c)
            if cut <= a:
                continue
            mc = m * (cut - a) / (b - a)
            if part == "lower":
                lower += mc * (a + cut) / 2
            else:
                u, v = a - r, cut - r
                tsv += mc * (u * u + u * v + v * v) / 3
    return mean, second, lower, tsv


@pytest.mark.parametrize(
    "d,r",
    [
        (PiecewiseLinearCDF([1e6, 1e6 + 3.0], [0.0, 1.0], [0.0, 1.0]), 1e6 + 1.0),
        (Uniform(1e6, 1e6 + 3.0), 1e6 + 2.5),
        (Uniform(-1e6 - 0.5, -1e6), -1e6 - 0.25),
        (PiecewiseLinearCDF([-3e5, -3e5 + 1.0, 7e5, 7e5 + 2.0], [0.0, 0.2, 0.5, 0.9],
                            [0.1, 0.5, 0.6, 1.0]), -3e5 + 0.5),
        (TwoPoint(0.3, -2.0, 1.0), 0.0),
        (bad1_arm_wide(), 3.0),
        (Uniform(-1.0, 3.0), 0.5),
    ],
    ids=repr,
)
def test_segment_integrals_match_exact_rationals(d, r):
    # mass x segment average: the slope (b^3 - a^3) / 3 form got the
    # second moment of [1e6, 1e6 + 3] wrong by 4.1
    got = (d.mean(), d.second_moment(), d.lower_tail(), d.below_target_semivariance(r))
    for g, exact in zip(got, _exact_integrals(d, r)):
        assert abs(Fraction(g) - exact) <= 4e-16 * max(abs(exact), 1)


def test_uniform_moments_equal_their_closed_forms():
    for lo, hi in [(-1, 3), (0.1, 0.7), (1e6, 1e6 + 3.0), (-2.5, -0.5)]:
        u = Uniform(lo, hi)
        assert u.mean() == 0.5 * (lo + hi)
        assert u.second_moment() == (lo**2 + lo * hi + hi**2) / 3.0


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
    e = EmpiricalDistribution([1, 2, 3, 4])
    assert e.cdf_integral_below(2.0) == pytest.approx(0.25)
    assert e.cdf_integral_below(0.0) == 0.0
    assert e.cdf_integral_below(5.0) == pytest.approx((4 + 3 + 2 + 1) / 4)


# ---------------------------------------------------------------------------
# Empirical distributions
# ---------------------------------------------------------------------------


def test_empirical_from_samples_sorted_and_exact():
    e = EmpiricalDistribution([3, 1, 2])
    assert np.array_equal(e.samples, [1, 2, 3])
    assert float(e.cdf(1)) == pytest.approx(1 / 3)
    assert float(e.cdf(2.5)) == pytest.approx(2 / 3)


def test_empirical_counts_brute_force():
    r = rng(17)
    for _ in range(50):
        x = r.normal(size=int(r.integers(1, 40)))
        e = EmpiricalDistribution(x)
        for y in r.normal(size=20):
            assert float(e.cdf(y)) == np.mean(x <= y)
            assert float(e.cdf_left(y)) == np.mean(x < y)


def test_empirical_rejects_empty():
    with pytest.raises(DomainError):
        EmpiricalDistribution([])


# ---------------------------------------------------------------------------
# Mixtures and the proxy construction
# ---------------------------------------------------------------------------


def test_mixture_vertex_is_component():
    f1, f2 = bad1_arm_wide(), PointMass(5.0)
    m = MixtureDistribution([f1, f2], [1.0, 0.0])
    ys = np.linspace(-2, 55, 997)
    assert np.allclose(np.asarray(m.cdf(ys)), np.asarray(f1.cdf(ys)), atol=1e-15)


def test_mixture_pointwise_linear(catalog):
    r = rng(23)
    arms = [catalog[0], catalog[4], catalog[6]]
    w = np.array([0.2, 0.5, 0.3])
    m = MixtureDistribution(arms, w)
    ys = r.uniform(-5, 55, size=200)
    direct = sum(wi * np.asarray(a.cdf(ys)) for wi, a in zip(w, arms))
    assert np.allclose(np.asarray(m.cdf(ys)), direct, atol=1e-12)


def test_mixture_of_point_masses():
    m = MixtureDistribution([PointMass(0.0), PointMass(1.0)], [0.5, 0.5])
    assert float(m.cdf(0.5)) == 0.5


def test_mixture_weight_validation():
    arms = [PointMass(0.0), PointMass(1.0)]
    with pytest.raises(DomainError):
        MixtureDistribution(arms, [0.7, 0.4])
    with pytest.raises(DomainError):
        MixtureDistribution(arms, [-0.1, 1.1])
    with pytest.raises(DomainError):
        MixtureDistribution(arms, [math.nan, 1.0])
    m = MixtureDistribution(arms, [0.5 + 4e-13, 0.5])  # within tolerance: renormalized
    assert float(np.sum(m.weights)) == pytest.approx(1.0, abs=0)


def test_bad1_mixture_quantiles():
    m = MixtureDistribution([bad1_arm_wide(), PointMass(5.0)], [0.5, 0.5])
    assert m.quantile(0.1) == pytest.approx(5.0, abs=1e-12)
    assert m.quantile(0.9) == pytest.approx(40.0, abs=1e-12)


def test_gaussian_mixture_quantile_bisection():
    m = MixtureDistribution([Gaussian(0, 1), Gaussian(4, 0.5)], [0.5, 0.5])
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
# The mixture kernel against the per-component loop it replaced
# ---------------------------------------------------------------------------


def loop_mixture_cdf(m, y, left=False):
    """``sum_i p_i F_i(y)``, one component at a time, skipping zero weights."""
    y = np.asarray(y, dtype=float)
    out = np.zeros(y.shape, dtype=float)
    for w, c in zip(m.weights, m.components):
        if w > 0:
            out += w * np.asarray(c.cdf_left(y) if left else c.cdf(y))
    return out if out.ndim else float(out)


def scalar_bisect(m, target, strict, lo, hi):
    """Bisection with one scalar CDF call per midpoint."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        v = loop_mixture_cdf(m, mid)
        if (v > target) if strict else (v >= target):
            hi = mid
        else:
            lo = mid
    return hi


def reference_quantile(m, alpha):
    qs = [c.quantile(alpha) for w, c in zip(m.weights, m.components) if w > 0]
    lo = min(qs)
    lo -= max(1e-9, 1e-12 * abs(lo))
    return scalar_bisect(m, alpha, False, lo, max(qs))


def reference_upper_quantile(m, c):
    qs = [d.upper_quantile(c) for w, d in zip(m.weights, m.components) if w > 0]
    lo, hi = min(qs), max(qs)
    lo -= max(1e-9, 1e-12 * abs(lo))
    hi += max(1e-9, 1e-12 * abs(hi))
    return scalar_bisect(m, c, True, lo, hi)


def random_component(r, kinds):
    kind = kinds[int(r.integers(len(kinds)))]
    if kind == "gaussian":
        return Gaussian(float(r.normal(0.0, 2.0)), float(r.uniform(0.2, 3.0)))
    if kind == "empirical":
        return EmpiricalDistribution(r.normal(0.0, 2.0, size=int(r.integers(1, 40))))
    return distribution_catalog()[int(r.integers(2, 9))]  # the knot-table kinds


def random_mixture(r, kinds):
    k = int(r.integers(1, 13))
    comps = [random_component(r, kinds) for _ in range(k)]
    w = r.dirichlet(np.ones(k))
    if k > 1 and r.random() < 0.3:
        w[int(r.integers(k))] = 0.0
    return MixtureDistribution(comps, w / w.sum())


def probes(r, m):
    lo, hi = m.support_bounds()
    inside = r.uniform(lo - 1.0, hi + 1.0, size=60)
    return np.concatenate([inside, m.breakpoints(), [-np.inf, np.inf]])


MIXTURE_KINDS = {
    "gaussian": ["gaussian"],
    "piecewise": ["table", "empirical"],
    "mixed": ["gaussian", "table", "empirical"],
}


@pytest.mark.parametrize("kinds", MIXTURE_KINDS.values(), ids=MIXTURE_KINDS.keys())
def test_mixture_kernel_is_bit_identical_to_the_component_loop(kinds):
    r = rng(61)
    for _ in range(150):
        m = random_mixture(r, kinds)
        ys = probes(r, m)
        for left, method in ((False, m.cdf), (True, m.cdf_left)):
            want = loop_mixture_cdf(m, ys, left)
            assert np.array_equal(method(ys), want)
            assert np.array_equal(method(ys[:60].reshape(3, 20)), want[:60].reshape(3, 20))
            # a lone float goes through the kernel as a one-element array
            for y in [*ys[::7].tolist(), *m.breakpoints()[:4].tolist(), -math.inf, math.inf]:
                got = method(y)
                assert type(got) is float
                assert got == loop_mixture_cdf(m, y, left)


def test_nested_mixture_is_bit_identical_to_the_component_loop():
    # a nested mixture is one component, answering by its own CDF
    r = rng(62)
    for _ in range(100):
        inner = [random_mixture(r, MIXTURE_KINDS["mixed"]) for _ in range(2)]
        m = MixtureDistribution([inner[0], Gaussian(0.5, 2.0), inner[1]], r.dirichlet(np.ones(3)))
        ys = probes(r, m)[:-2]
        for left, method in ((False, m.cdf), (True, m.cdf_left)):
            want = loop_mixture_cdf(m, ys, left)
            assert np.array_equal(method(ys), want)


def test_mixture_of_large_empirical_components_holds_memory_linear_in_the_knots():
    # ten 2e4-sample components: a table per component over the union of
    # all knots would take 40 floats per union knot for the CDF alone
    r = rng(66)
    comps = [EmpiricalDistribution(r.normal(size=20_000)) for _ in range(10)]
    knot_bytes = 8 * sum(c.t for c in comps)
    m = MixtureDistribution(comps, np.full(10, 0.1))
    tracemalloc.start()
    try:
        m.cdf(0.0)
        cdf_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        m.quantile(0.1)  # merges the components into one knot table
        merge_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cdf_peak < 0.05 * knot_bytes  # measured 0.004
    assert merge_peak < 20 * knot_bytes  # measured 14; the component loop took 18


@pytest.mark.parametrize("kinds", [["gaussian"], ["gaussian", "table", "empirical"]],
                         ids=["gaussian", "mixed"])
def test_block_bisection_is_bit_identical_to_scalar_bisection(kinds):
    r = rng(63)
    for _ in range(100):
        m = random_mixture(r, kinds)
        if not m.has_smooth_part:
            continue  # no Gaussian component: the merged table answers
        for level in r.uniform(0.0, 1.0, size=4):
            level = float(level)
            got = m.quantile(level)
            assert type(got) is float
            assert got == reference_quantile(m, level)
            assert m.upper_quantile(level) == reference_upper_quantile(m, level)


def test_knot_table_mixture_merges_as_the_component_loop():
    # quantiles and level sets of a knot-table mixture come from one table
    # over every component's knots, with the component sums as its values
    r = rng(64)
    for _ in range(100):
        m = random_mixture(r, MIXTURE_KINDS["piecewise"])
        ys = np.unique(np.concatenate([c.breakpoints() for c in m.components]))
        want = PiecewiseLinearCDF(ys, loop_mixture_cdf(m, ys, left=True), loop_mixture_cdf(m, ys))
        got = m._merged_piecewise()
        for attr in ("ys", "fl", "fr", "_interp_fs"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr))


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
