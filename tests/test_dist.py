import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from riskbandits.dist import (
    _BLOCK,
    _GUIDE_BUCKETS,
    EmpiricalDistribution,
    Gaussian,
    MixtureDistribution,
    PiecewiseLinearCDF,
    PointMass,
    TwoPoint,
    Uniform,
    proxy_distribution,
)
from riskbandits import dist
from riskbandits.checks import condition_c5
from riskbandits.config import parse_config
from riskbandits.errors import DomainError
from riskbandits.oracle import simplex_grid_argmax
from riskbandits.policy import UcbPolicy
from riskbandits.sim import geometric_checkpoints, run_episode

from conftest import bad1_arm_wide, bad2_arm_step, distribution_catalog, rng

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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


def block_quantiles(d, u):
    """The block kernel's quantiles of the levels ``u`` in [0, 1)."""
    u = np.array(u, dtype=float)
    out = np.empty_like(u)
    d._quantile_block(u, out)
    return out


def sampler_levels(levels):
    """The levels among ``levels`` that a sampler can draw: those in [0, 1)."""
    return levels[(levels >= 0.0) & (levels < 1.0)]


def test_scalar_and_block_quantiles_agree_on_random_tables():
    # both interpolate on the segment searchsorted finds, which rises: the
    # level lies strictly above its start value; probed at every knot value
    r = rng(37)
    for _ in range(1000):
        d = random_knot_table(r)
        levels = sampler_levels(np.r_[r.random(10), d.fl, d.fr])
        want = [d._quantile(float(a)) for a in levels]
        assert np.array_equal(block_quantiles(d, levels), want)


def mask_quantile_array(d, u):
    """The gather/mask/scatter inverse CDF that the per-segment tables
    replaced: the oracle for the knot-table sampler's block kernel."""
    u = np.asarray(u, dtype=float)
    ks = np.searchsorted(d.fr, u, side="left")
    ks = np.minimum(ks, len(d.ys) - 1)
    out = d.ys[ks].copy()
    interp = (ks > 0) & (d.fl[ks] > u)
    k = ks[interp]
    f0 = d.fr[k - 1]  # fr[k-1] < u < fl[k], as in _inverse
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


def crowded_knot_table():
    """A table whose knot values crowd into one guide bucket, 1e-6 apart."""
    crowd = 0.3 + 1e-6 * np.arange(1, 9)
    return PiecewiseLinearCDF(np.arange(10.0), np.r_[0.0, crowd, 1.0], np.r_[0.0, crowd, 1.0])


def subnormal_rise_table():
    """A segment rising by 1e-320: levels above it overflow in the lanes
    the block kernel discards."""
    return PiecewiseLinearCDF([0.0, 1.0, 2.0], [0.0, 1e-320, 0.5], [0.0, 0.5, 1.0])


def test_block_quantiles_match_mask_oracle_bit_for_bit():
    r = rng(41)
    tables = [oracle_knot_table(r) for _ in range(300)]
    tables += [bad1_arm_wide(), bad2_arm_step(), PointMass(-2.0), Uniform(-1e-3, 1e3), TwoPoint(0.3, -5.0, 5.0)]
    tables += [subnormal_rise_table(), crowded_knot_table()]
    sizes = {len(d.ys) for d in tables}
    assert {1, 8} <= sizes
    assert any(d.fr[0] > 0.0 and len(d.ys) > 1 for d in tables)  # jump at the first knot
    assert any(d.fl[-1] < 1.0 for d in tables)  # jump at the last knot
    assert any(np.any(d.fl[1:] == d.fr[:-1]) for d in tables)  # flat stretch
    # every guide bucket start b / 2^m, with both float neighbours in [0, 1)
    starts = np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS
    edges = np.r_[starts, np.nextafter(starts, -np.inf), np.nextafter(starts, np.inf)]
    for d in tables:
        knots = np.r_[d.fl, d.fr]
        levels = np.r_[0.0, r.random(200), knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf), edges]
        levels = sampler_levels(levels)
        assert levels.max() == np.nextafter(1.0, 0.0)
        # the level just above 0 (5e-324) underflows in both methods
        with np.errstate(all="raise", under="ignore"):
            assert_same_bits(block_quantiles(d, levels), mask_quantile_array(d, levels))


def test_block_kernel_writes_only_its_slice():
    # the sampler hands the kernel one block's slice of the output
    out = np.full(5, -1.0)
    Uniform(0, 2)._quantile_block(np.array([0.3]), out[2:3])
    assert out.tolist() == [-1.0, -1.0, 0.6, -1.0, -1.0]
    d = bad1_arm_wide()
    levels = rng(2).random(12)
    out = np.zeros(16)
    d._quantile_block(levels, out[2:14])
    assert_same_bits(out[2:14], mask_quantile_array(d, levels))
    assert not out[:2].any() and not out[14:].any()


@pytest.mark.parametrize(
    "d", [Uniform(-1e-3, 1e3), subnormal_rise_table()], ids=["uniform", "subnormal-rise"]
)
def test_sampler_block_edges_match_mask_oracle(d):
    # sizes around the block and a short last block, drawn through sample;
    # the kernel's discarded lanes may overflow, and nothing else may raise
    for n in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7):
        with np.errstate(all="raise", under="ignore"):
            got = d.sample(rng(12), n)
        assert_same_bits(got, mask_quantile_array(d, rng(12).random(n)))


@pytest.mark.parametrize(
    "d",
    [PiecewiseLinearCDF.from_pairs([(0, 0.0), (1, 0.3), (2, 0.3), (3, 1.0)]), bad1_arm_wide(), crowded_knot_table()],
    ids=["var-flat", "bad1-wide", "crowded"],
)
def test_seeded_draws_match_mask_oracle(d):
    # sizes around the block: drawn block by block, the stream is one call's
    for n in (1, 64, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7, 100_000):
        assert_same_bits(d.sample(rng(9), n), mask_quantile_array(d, rng(9).random(n)))


@pytest.mark.parametrize(
    "d",
    [
        Gaussian(0.0, 1.0),
        PointMass(5.0),
        Uniform(-1.0, 2.0),
        TwoPoint(0.3, -2.0, 1.0),
        bad1_arm_wide(),
        EmpiricalDistribution(np.linspace(-3, 3, 17)),
    ],
    ids=["gaussian", "point-mass", "uniform", "two-point", "knot-table", "empirical"],
)
def test_samplers_are_prefix_stable(d):
    # sample(rng(s), m) == sample(rng(s), n)[:m] for every m <= n of the
    # sizes: each size's draws are the prefix of the largest size's draws
    sizes = (1, 63, 64, 1000, _BLOCK - 1, _BLOCK + 1, 3 * _BLOCK + 7)
    for seed in (0, 9):
        longest = d.sample(rng(seed), max(sizes))
        for n in sizes:
            assert_same_bits(d.sample(rng(seed), n), longest[:n])


def test_knot_table_draws_hold_the_output_and_a_few_blocks():
    # 1e6 draws take 8 MB; the blocks add cache-sized temporaries only
    d = PiecewiseLinearCDF.from_pairs([(0, 0.0), (1, 0.3), (2, 0.3), (3, 1.0)])
    n = 10**6
    tracemalloc.start()
    try:
        d.sample(rng(3), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n + 16 * 8 * _BLOCK


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


def test_knot_table_quantile_at_a_segments_end_level_is_the_knot():
    # F rises to 0.3 at -7.7 and jumps to 0.6 there: interpolating to the
    # segment's end (t = 1) landed one ulp past the knot
    d = PiecewiseLinearCDF([-20.0, -7.7, -6.7], [0, 0.3, 1], [0, 0.6, 1])
    assert d.quantile(0.3) == -7.7
    assert d.level_set(0.3) == ("point", -7.7, -7.7)


def test_upper_quantile_just_above_a_knot_level_is_on_the_segment():
    # F is 0.5 at 1 and rises by 1e-5 over the next 1000: a level 1e-13 above
    # 0.5 is met on that segment, by both inverses, not at the knot
    d = PiecewiseLinearCDF.from_pairs([(0, 0), (1, 0.5), (1001, 0.50001), (1002, 1)])
    c = 0.5 + 1e-13
    assert d.upper_quantile(c) == d.quantile(c) == 1.0000100031094519


def test_inverses_at_the_unit_levels():
    assert Gaussian(1, 2).upper_quantile(0.0) == -math.inf
    e = EmpiricalDistribution([2.0, 0.0, 1.0])
    assert [e.upper_quantile(c) for c in (-1.0, 0.0, 1.0)] == [-math.inf, 0.0, math.inf]
    for c in (-1.0, 0.0, 1.0):
        with pytest.raises(DomainError):
            e.quantile(c)


def test_empirical_upper_quantile_just_below_level_one_is_the_top_sample():
    # the rank floor(c t + 1e-9) + 1 passes t for c in (1 - 1e-9 / t, 1)
    e = EmpiricalDistribution([0.0, 1.0, 2.0])
    for c in (1 - 2e-10, 1 - 1e-16, 2 / 3 + 1e-10):
        assert e.upper_quantile(c) == 2.0
    assert e.upper_quantile(1.0) == math.inf
    # a mixture with a Gaussian part answers its quantile for both inverses
    m = MixtureDistribution([Gaussian(0, 1), e], [0.5, 0.5])
    got = m.upper_quantile(1 - 2e-10)
    assert got < 7.0 and got == m.quantile(1 - 2e-10)


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
    [
        Gaussian(0.3, 1.2),
        PointMass(5.0),
        Uniform(-1, 2),
        TwoPoint(0.3, -2, 1),
        bad1_arm_wide(),
        EmpiricalDistribution(np.linspace(-3, 3, 17)),
    ],
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_empirical_rejects_non_finite_samples(bad):
    with pytest.raises(DomainError, match="must be finite"):
        EmpiricalDistribution([1.0, bad])


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


def scalar_bisect(m, target, lo, hi):
    """Bisection with one scalar CDF call per midpoint."""
    return scalar_bisect_steps(m, target, lo, hi)[0]


def scalar_bisect_steps(m, target, lo, hi):
    """``scalar_bisect``'s result and the number of midpoints it decides."""
    steps = 0
    while steps < 200:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        steps += 1
        v = loop_mixture_cdf(m, mid)
        if v >= target:
            hi = mid
        else:
            lo = mid
    return hi, steps


def reference_bracket(m, level):
    """The bracket that ``quantile`` solves in."""
    qs = [c.quantile(level) for w, c in zip(m.weights, m.components) if w > 0]
    lo = min(qs)
    return lo - max(1e-9, 1e-12 * abs(lo)), max(qs)


def reference_quantile(m, alpha):
    return scalar_bisect(m, alpha, *reference_bracket(m, alpha))


def random_component(r, kinds):
    kind = kinds[int(r.integers(len(kinds)))]
    if kind == "gaussian":
        return Gaussian(float(r.normal(0.0, 2.0)), float(r.uniform(0.2, 3.0)))
    if kind == "point":  # on the integers, so that roots sit on its jump
        return PointMass(float(r.integers(-3, 4)))
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
    # each mixture on its own: a one-row stack for the quantile, and a
    # one-row solve of the same level for the upper quantile
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
            assert m.upper_quantile(level) == got


def atoms_corpus(seed):
    """(mixture, level) solves on Gaussian mixtures with atoms, as in ``random_mixture``,
    and one-part Gaussian mixtures, at the extreme levels and random ones."""
    r = rng(seed)
    for i in range(60):
        if i % 3 == 0:
            m = MixtureDistribution([random_component(r, ["gaussian"])], [1.0])
        else:
            m = random_mixture(r, ["gaussian", "point"] if i % 3 == 1 else ["gaussian"])
        if not m.has_smooth_part:
            continue  # the merged knot table answers
        for level in (1e-12, 1 - 1e-12, *r.uniform(0.0, 1.0, size=3).tolist()):
            yield m, level


def test_lockstep_bisection_is_bit_identical_on_atoms_one_part_and_extreme_levels():
    on_atom = 0
    for m, level in atoms_corpus(65):
        got = m.quantile(level)
        assert got == reference_quantile(m, level)
        assert m.upper_quantile(level) == got
        on_atom += float(m.cdf_left(got)) < level <= float(m.cdf(got))
    assert on_atom >= 10  # roots on jumps: 19 of the 290 quantiles


def step_cap_mixture():
    """A root on an atom at 0, bracketed from below: bisection halves toward
    0 through the subnormals and stops at its 200-step cap."""
    return MixtureDistribution([PointMass(0.0), Gaussian(-5.0, 1.0)], [0.5, 0.5])


def test_bisection_that_reaches_the_step_cap_is_bit_identical():
    m = step_cap_mixture()
    assert scalar_bisect_steps(m, 0.7, *reference_bracket(m, 0.7))[1] == 200
    assert m.upper_quantile(0.7) == m.quantile(0.7) == reference_quantile(m, 0.7)


def test_lockstep_bisection_of_nan_and_step_cap_brackets_is_scalar_bisection():
    # brackets whose midpoint is NaN decide nothing and answer hi, as
    # bisection does, beside a bracket that closes in ~50 steps
    m = MixtureDistribution([Gaussian(0.0, 1.0), Gaussian(1.0, 1.0)], [0.5, 0.5])
    lo = np.array([math.nan, -math.inf, 0.0, -3.0])
    hi = np.array([1.0, math.inf, math.nan, 3.0])
    rows = MixtureDistribution._rows(m.components, np.stack([m.weights] * 4))
    got = rows._bisect_rows(0.3, lo, hi)
    for g, a, b in zip(got.tolist(), lo.tolist(), hi.tolist()):
        want = scalar_bisect(m, 0.3, a, b)
        assert g == want or (math.isnan(g) and math.isnan(want))
    # the step-cap bracket alone, and beside itself
    cap = step_cap_mixture()
    lo, hi = reference_bracket(cap, 0.7)
    want, steps = scalar_bisect_steps(cap, 0.7, lo, hi)
    assert steps == 200  # lo halves up to the atom at 0
    for n in (1, 3):
        rows = MixtureDistribution._rows(cap.components, np.stack([cap.weights] * n))
        got = rows._bisect_rows(0.7, np.full(n, lo), np.full(n, hi))
        assert got.tolist() == [want] * n


# ---------------------------------------------------------------------------
# Mixtures as rows of one weight matrix, quantiles in lockstep
# ---------------------------------------------------------------------------

ACCEPTANCE_8_MIXED = [Gaussian(0.5, 1.0), Uniform(-1.0, 2.0), TwoPoint(0.3, -1.0, 3.0)]


def weight_rows(r, k, n):
    """n raw weight rows over k components: Dirichlet draws, some with zero
    entries, some with entries a little below zero, as rounding leaves them."""
    w = r.dirichlet(np.ones(k), size=n)
    for row in w[: n // 3]:
        row[int(r.integers(k))] = 0.0
        row /= row.sum()
    for row in w[n // 3 : n // 2]:
        row[0] = -1e-13
        row[1:] /= row[1:].sum()
    return w


def mixtures(components, raw):
    return [MixtureDistribution(components, w) for w in raw]


@pytest.mark.parametrize(
    "components",
    [
        ACCEPTANCE_8_MIXED,
        [Gaussian(0.0, 1.0), Gaussian(0.1, 1.0)],
        [Gaussian(-1.0, 0.5), PointMass(0.0), distribution_catalog()[3], Gaussian(2.0, 3.0)],
    ],
    ids=["acceptance-8-mixed", "close-gaussians", "atoms-and-tables"],
)
def test_stacked_quantiles_equal_plain_bisection(components, monkeypatch):
    r = rng(92)
    k = len(components)
    raw = weight_rows(r, k, 60)
    rows = mixtures(components, raw)
    MixtureDistribution.stack(rows)
    stack = rows[0]._stack[0]
    # stacks of a few rows each, the last of one row
    few = mixtures(components, raw[:57])
    monkeypatch.setattr(dist, "_STACK_ROWS", 7)
    MixtureDistribution.stack(few)
    assert few[-1]._stack[0].weights.shape == (1, k) and few[-2]._stack[1] == 6
    for level in (1e-12, 0.1, 0.25, *r.uniform(0.0, 1.0, size=3).tolist(), 1 - 1e-12):
        # every row of the lockstep, knot-table rows too, is plain bisection
        # on its bracket
        want = [scalar_bisect(m, level, *reference_bracket(m, level)) for m in rows]
        assert stack._solve(level).tolist() == want
        smooth = [m.has_smooth_part for m in rows]  # the others answer from their table
        got = [m.quantile(level) for m in rows]
        assert [g for g, s in zip(got, smooth) if s] == [w for w, s in zip(want, smooth) if s]
        assert [m.quantile(level) for m in few] == got[:57]
        assert all(type(g) is float for g in got)


def test_lockstep_bisection_at_the_step_cap_and_with_one_row():
    # the step-cap root (an atom at 0 approached through the subnormals)
    # beside rows that close in ~50 steps
    comps = step_cap_mixture().components
    raw = np.array([[0.5, 0.5], [0.3, 0.7], [0.9, 0.1], [0.0, 1.0]])
    rows = mixtures(comps, raw)
    MixtureDistribution.stack(rows)
    for m, single in zip(rows, mixtures(comps, raw)):
        assert m.quantile(0.7) == single.quantile(0.7) == reference_quantile(single, 0.7)
    assert scalar_bisect_steps(rows[0], 0.7, *reference_bracket(rows[0], 0.7))[1] == 200
    # a lone mixture is a one-row stack, whether stacked or first solved alone
    lone, unstacked = mixtures(comps, raw[:2])
    MixtureDistribution.stack([lone])
    assert lone._stack[1] == 0 and lone._stack[0].weights.shape == (1, 2)
    assert unstacked._stack is None
    assert unstacked.quantile(0.7) == rows[1].quantile(0.7)
    assert unstacked._stack[1] == 0 and unstacked._stack[0].weights.shape == (1, 2)
    with pytest.raises(DomainError):
        MixtureDistribution.stack([rows[0], MixtureDistribution([Gaussian(0, 1)], [1.0])])


def reweighted_stack(r, m):
    """``m`` and another mixture of its components, without one of them
    when it has more than one, stacked as rows 0 and 1."""
    k = len(m.components)
    w = r.dirichlet(np.ones(k))
    if k > 1:
        w[int(r.integers(k))] = 0.0
        w /= w.sum()
    ms = [m, MixtureDistribution(m.components, w)]
    MixtureDistribution.stack(ms)
    return ms


def check_stacked_solve(monkeypatch, ms, level):
    """The stack of ``ms`` solves ``level`` as each row's plain bisection, in
    as many CDF calls as its slowest row takes steps."""
    calls = [0]
    cdf = vars(MixtureDistribution)["cdf"]

    def counted_cdf(self, y):
        calls[0] += 1
        return cdf(self, y)

    with monkeypatch.context() as patch:
        patch.setattr(MixtureDistribution, "cdf", counted_cdf)
        got = ms[0]._stack[0]._solve(level).tolist()
    want = [scalar_bisect_steps(m, level, *reference_bracket(m, level)) for m in ms]
    assert got == [w for w, _ in want]
    assert calls[0] == max(steps for _, steps in want)


@pytest.mark.parametrize("kinds", [["gaussian"], ["gaussian", "table", "empirical"]],
                         ids=["gaussian", "mixed"])
def test_lockstep_takes_one_cdf_call_per_step_of_its_slowest_row(kinds, monkeypatch):
    # the first mixtures of the block-bisection corpus, each stacked beside
    # a reweighting of its components
    r = rng(63)
    solved = 0
    while solved < 25:
        m = random_mixture(r, kinds)
        if not m.has_smooth_part:
            continue
        ms = reweighted_stack(r, m)
        for level in r.uniform(0.0, 1.0, size=2).tolist():
            check_stacked_solve(monkeypatch, ms, level)
        solved += 1


def test_stacked_rows_are_bit_identical_on_atoms_one_part_and_extreme_levels(monkeypatch):
    # the atoms corpus, each mixture stacked beside a reweighting of its
    # components: the quantile of every row
    r = rng(66)
    stacks = {}
    for m, level in atoms_corpus(65):
        if id(m) not in stacks:
            stacks[id(m)] = reweighted_stack(r, m)
        check_stacked_solve(monkeypatch, stacks[id(m)], level)
    assert len(stacks) >= 50


def test_stacked_cdf_rows_are_each_mixtures_cdf():
    r = rng(93)
    comps = [Gaussian(0.5, 1.0), Uniform(-1.0, 2.0), EmpiricalDistribution(r.normal(size=30))]
    raw = weight_rows(r, 3, 12)
    singles = mixtures(comps, raw)
    stack = MixtureDistribution._rows(comps, np.stack([m.weights for m in singles])[:, None, :])
    y = r.normal(0.0, 2.0, size=(12, 17))
    for left in (False, True):
        got = stack.cdf_left(y) if left else stack.cdf(y)
        want = [m.cdf_left(row) if left else m.cdf(row) for m, row in zip(singles, y)]
        assert np.array_equal(got, np.stack(want))


def lockstep_counter(monkeypatch):
    """From here on, the row count of each lockstep solve and the mixture
    CDF calls made under ``_quantile``."""
    rows, calls, depth = [], [0], [0]
    quantile, solve, cdf = (vars(MixtureDistribution)[a] for a in ("_quantile", "_solve", "cdf"))

    def counted_quantile(self, alpha):
        depth[0] += 1
        try:
            return quantile(self, alpha)
        finally:
            depth[0] -= 1

    def counted_solve(self, level):
        rows.append(len(self.weights))
        return solve(self, level)

    def counted_cdf(self, y):
        calls[0] += depth[0] > 0
        return cdf(self, y)

    monkeypatch.setattr(MixtureDistribution, "_quantile", counted_quantile)
    monkeypatch.setattr(MixtureDistribution, "_solve", counted_solve)
    monkeypatch.setattr(MixtureDistribution, "cdf", counted_cdf)
    return rows, calls


def test_every_family_of_mixtures_solves_a_level_in_one_lockstep(monkeypatch):
    # each family of the package on the arms of cvar_gaussians.yaml: the
    # checkpoint proxies of a UCB episode, the mixtures of eval, the lattice
    # of C3-C5 and the fit, and the simplex sweep.  A solve per mixture would
    # take ~50 CDF calls each, about 8x the time of one lockstep of them all.
    raw = yaml.safe_load((CONFIG_DIR / "cvar_gaussians.yaml").read_text(encoding="utf-8"))
    raw["mixtures"] = [[0.34, 0.33, 0.33], [0.5, 0.5, 0.0], [0.2, 0.3, 0.5]]
    cfg = parse_config(raw)
    arms, crit = cfg.arms, cfg.criterion
    ucb = next(p for _, p in cfg.policies if isinstance(p, UcbPolicy))
    families = {
        "episode": (lambda: run_episode(arms, ucb, crit, 1000, seed=cfg.seed),
                    len(geometric_checkpoints(3, 1000))),
        "eval": (lambda: [crit.evaluate(m) for _, m in cfg.mixtures], 3),
        "lattice": (lambda: condition_c5(arms, crit.alpha), 45),
        "sweep": (lambda: simplex_grid_argmax(crit, arms, 0.1), 66),
    }
    rows, calls = lockstep_counter(monkeypatch)
    for name, (run, size) in families.items():
        rows.clear()
        calls[0] = 0
        run()
        assert rows == [size], name
        assert 0 < calls[0] <= 200, name  # one lockstep's step cap


@pytest.mark.parametrize(
    "parts,at_zero",
    [
        ([Gaussian(0, 1), Gaussian(1, 1)], -math.inf),
        ([Uniform(0, 1), Uniform(2, 3)], 0.0),
        ([Gaussian(0, 1), Uniform(2, 3)], -math.inf),
    ],
    ids=["gaussian", "knot-table", "mixed"],
)
def test_mixture_upper_quantile_at_and_beyond_the_unit_levels(parts, at_zero):
    # a Gaussian part puts mass below every y, as Gaussian.upper_quantile says
    m = MixtureDistribution(parts, [0.5, 0.5])
    assert m.upper_quantile(-0.1) == -math.inf
    assert m.upper_quantile(0.0) == at_zero
    assert m.upper_quantile(1.0) == math.inf
    assert m.upper_quantile(1.5) == math.inf


def test_knot_table_mixture_merges_as_the_component_loop():
    # quantiles and level sets of a knot-table mixture come from one table
    # over the knots of its positive-weight components, with the component
    # sums as its values
    r = rng(64)
    for _ in range(100):
        m = random_mixture(r, MIXTURE_KINDS["piecewise"])
        parts = [c for w, c in zip(m.weights, m.components) if w > 0]
        ys = np.unique(np.concatenate([c.breakpoints() for c in parts]))
        want = PiecewiseLinearCDF(ys, loop_mixture_cdf(m, ys, left=True), loop_mixture_cdf(m, ys))
        got = m._merged_piecewise()
        for attr in ("ys", "fl", "fr", "_interp_fs"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr))


_ONE_PART_TABLES = {
    "point-mass": PointMass(0.8),
    "uniform": Uniform(-1.0, 2.0),
    "two-point": TwoPoint(0.3, -2.0, 1.0),
    "two-point-certain": TwoPoint(1.0, 0.0, 1.0),
    "var-flat-rate": PiecewiseLinearCDF.from_pairs([(0, 0.0), (1, 0.3), (2, 0.3), (3, 1.0)]),
    "bad1-wide": bad1_arm_wide(),
    "bad2-step": bad2_arm_step(),
    "jumps-and-slopes": PiecewiseLinearCDF.from_pairs(
        [(-1, 0.0), (-1, 0.2), (0.5, 0.35), (0.5, 0.6), (0.7, 0.6), (2, 0.9), (2, 1.0)]
    ),
}


@pytest.mark.parametrize("name", list(_ONE_PART_TABLES))
def test_one_part_knot_table_mixture_is_its_own_merged_table(name):
    # the merge over a lone part's knots rebuilds the part's own arrays, so
    # the mixture answers with the part itself, zero-weight parts or not
    part = _ONE_PART_TABLES[name]
    levels = np.concatenate([np.linspace(0.0, 1.0, 201), [0.1, 0.3, 0.35, 0.6, 0.7, 0.9]])
    for m in (
        MixtureDistribution([part], [1.0]),
        MixtureDistribution([Gaussian(0, 1), part, PointMass(9.0)], [0.0, 1.0, 0.0]),
    ):
        knots = m.breakpoints()
        rebuilt = PiecewiseLinearCDF(knots, m._evaluate(knots, True), m._evaluate(knots, False))
        got = m._merged_piecewise()
        assert got is part
        for attr in ("ys", "fl", "fr", "_interp_ys", "_interp_fs"):
            assert getattr(got, attr).tobytes() == getattr(rebuilt, attr).tobytes(), attr
        for c in levels:
            assert m.upper_quantile(c) == rebuilt.upper_quantile(c)
            if 0.0 < c < 1.0:
                assert m.quantile(c) == rebuilt.quantile(c)
                assert m.level_set(c) == rebuilt.level_set(c)


# ---------------------------------------------------------------------------
# Level sets and structure
# ---------------------------------------------------------------------------


def test_level_sets():
    assert Gaussian(0, 1).level_set(0.3)[0] == "point"
    assert PointMass(5.0).level_set(0.3)[0] == "empty"
    kind, lo, hi = bad1_arm_wide().level_set(0.1)
    assert (kind, lo, hi) == ("interval", 1.0, 5.0)
    # a zero-weight Gaussian adds nothing: the mixture is the flat table alone
    flat = PiecewiseLinearCDF.from_pairs([(0, 0), (1, 0.3), (2, 0.3), (3, 1.0)])
    m = MixtureDistribution([Gaussian(0, 1), flat], [0, 1])
    assert not m.has_smooth_part
    assert m.level_set(0.3) == ("interval", 1.0, 2.0)


def knot_table_level_set(d, alpha):
    """A knot table's level set by the tolerance loop over its knots and
    segments that ``level_set`` replaced."""
    hits = []  # list of (lo, hi) closed intervals where F == alpha
    for k in range(len(d.ys)):
        if abs(d.fr[k] - alpha) <= 1e-12:
            hits.append((d.ys[k], d.ys[k]))
        if k + 1 < len(d.ys):
            f0, f1 = d.fr[k], d.fl[k + 1]
            a, b = d.ys[k], d.ys[k + 1]
            if abs(f0 - alpha) <= 1e-12 and abs(f1 - alpha) <= 1e-12:
                hits.append((a, b))
            elif min(f0, f1) - 1e-12 < alpha < max(f0, f1) + 1e-12 and f1 > f0:
                if f0 <= alpha <= f1:
                    t = (alpha - f0) / (f1 - f0)
                    y = a + t * (b - a)
                    hits.append((y, y))
    if not hits:
        return ("empty", math.nan, math.nan)
    hits.sort()
    lo, hi = hits[0]
    for a, b in hits[1:]:
        if a <= hi + 1e-12:
            hi = max(hi, b)
        else:
            break  # non-decreasing CDF: level set is one component
    if hi - lo > 1e-12:  # hits merged within the tolerance are one point
        return ("interval", float(lo), float(hi))
    return ("point", float(lo), float(hi))


def per_kind_level_set(d, alpha):
    """The four per-kind level sets that ``RewardDistribution.level_set``
    replaced, kept as its oracle."""
    if isinstance(d, Gaussian):
        q = d._quantile(alpha)
        return ("point", q, q)
    if isinstance(d, EmpiricalDistribution):
        vals, counts = np.unique(d.samples, return_counts=True)
        cum = np.cumsum(counts) / d.t
        return knot_table_level_set(PiecewiseLinearCDF(vals, np.r_[0.0, cum[:-1]], cum), alpha)
    if isinstance(d, MixtureDistribution):
        merged = d._merged_piecewise()
        if merged is not None:
            return knot_table_level_set(merged, alpha)
        # a Gaussian part makes the mixture CDF strictly increasing
        q = d._quantile(alpha)
        if abs(float(d.cdf(q)) - alpha) <= 1e-12:
            return ("point", q, q)
        return ("empty", math.nan, math.nan)
    return knot_table_level_set(d, alpha)


def knot_levels(d):
    """The levels in (0, 1) that d's knot tables take at their knots (F and
    its left limit): its own, or a mixture's merged table and its parts'; and
    k/t for an empirical CDF of t samples."""
    tables = [d]
    if isinstance(d, MixtureDistribution):
        tables = [d._merged_piecewise(), *(c for _, c in d._parts)]
    levels = set()
    for t in tables:
        if isinstance(t, PiecewiseLinearCDF):
            levels.update(t.fl.tolist() + t.fr.tolist())
    if isinstance(d, EmpiricalDistribution):
        levels.update((np.arange(d.t + 1) / d.t).tolist())
    return {c for c in levels if 0.0 < c < 1.0}


def level_set_corpus():
    """(distribution, levels) pairs: the catalog; 300 mixtures of 1-3 random
    knot tables, half on lattice weights; 200 mixtures of N(0, 1), N(0.1, 1),
    a point mass at 0.5 and the Bad1 wide arm; 100 empirical CDFs of small
    integers, so with ties.  The levels are a 57-point grid and every knot
    level.  The Gaussian mixtures are stacked, so each level is solved once
    for all of them: a stacked quantile is plain bisection's float."""
    r = rng(25)
    dists = distribution_catalog()
    for _ in range(300):
        k = int(r.integers(1, 4))
        w = np.round(4 * r.random(k)) + (r.random() < 0.5) * r.random(k)
        w[0] += not w.any()
        dists.append(MixtureDistribution([oracle_knot_table(r) for _ in range(k)], w / w.sum()))
    arms = [Gaussian(0.0, 1.0), Gaussian(0.1, 1.0), PointMass(0.5), bad1_arm_wide()]
    smooth = []
    for _ in range(200):
        w = r.random(4) * (r.random(4) < 0.7)
        w[int(r.integers(4))] += 0.1
        smooth.append(MixtureDistribution(arms, w / w.sum()))
    MixtureDistribution.stack(smooth)
    dists += smooth
    for _ in range(100):
        samples = r.integers(0, 5, size=int(r.integers(1, 12)))
        dists.append(EmpiricalDistribution(samples.astype(float)))
    grid = set(np.linspace(0.0, 1.0, 59)[1:-1].tolist())
    return [(d, sorted(grid | knot_levels(d))) for d in dists]


def level_set_bits(t):
    return (t[0], float(t[1]).hex(), float(t[2]).hex())


def assert_near_one_level_set(got, want):
    # within 1e-12 of 1, the loop took F at 1 (between a part's last knot
    # and the table's) for alpha; only levels in (0, 1) count now
    assert got[0] == want[0] or (want[0], got[0]) == ("interval", "point"), (got, want)
    assert math.isclose(got[1], want[1], rel_tol=1e-12, abs_tol=1e-12), (got, want)


def test_level_set_matches_the_per_kind_oracle():
    kinds = {"empty": 0, "point": 0, "interval": 0}
    cases = 0
    for d, levels in level_set_corpus():
        for alpha in levels:
            got, want = d.level_set(alpha), per_kind_level_set(d, alpha)
            kinds[got[0]] += 1
            cases += 1
            if level_set_bits(got) == level_set_bits(want):
                continue
            if 1.0 - alpha <= 1e-12:
                assert_near_one_level_set(got, want)
                continue
            # the loop gave a point the spread of its hits merged within 1e-12,
            # and an interval its lowest hit: the inverses agree to 1e-12
            assert got[0] == want[0], (d, alpha, got, want)
            assert np.allclose(got[1:], want[1:], rtol=1e-12, atol=1e-12), (d, alpha, got, want)
    assert cases > 37_000 and min(kinds.values()) > 500, kinds


def test_upper_quantile_is_at_least_the_quantile_on_the_level_set_corpus():
    # every kind's closed-form inverses; a mixture with a Gaussian part
    # answers its quantile for both, as the solver corpora check
    cases = 0
    for d, levels in level_set_corpus():
        if isinstance(d, MixtureDistribution) and d.has_smooth_part:
            continue
        for c in levels:
            assert d.upper_quantile(c) >= d.quantile(c), (d, c)
            cases += 1
    assert cases > 25_000


def test_level_set_one_ulp_off_a_knot_level():
    # the corpus's knot tables, one ulp either side of each level: the
    # oracle's kind, but where 1e-12 now reaches what the loop left out
    for d, _ in level_set_corpus():
        if d.has_smooth_part:
            continue
        knots = d.breakpoints()
        for level in knot_levels(d):
            for alpha in {math.nextafter(level, 0.0), math.nextafter(level, 1.0)} - {1.0}:
                got, want = d.level_set(alpha), per_kind_level_set(d, alpha)
                if got[0] == want[0]:
                    continue
                if 1.0 - alpha <= 1e-12:
                    assert_near_one_level_set(got, want)
                elif want[0] == "empty":
                    # a jump whose left limit is within 1e-12 of alpha: the
                    # loop matched left limits exactly, values within 1e-12
                    assert got[0] == "point", (d, alpha, got, want)
                    k = knots[np.argmin(np.abs(knots - got[1]))]
                    assert abs(k - got[1]) <= 1e-12 * max(1.0, abs(k)), (d, alpha, got, want)
                    assert abs(float(d.cdf_left(k)) - alpha) <= 1e-12, (d, alpha, got, want)
                else:
                    # a flat stretch at a level within 1e-12 of alpha, more than
                    # 1e-12 past the crossing: the loop's chain of hits stopped short
                    assert (want[0], got[0]) == ("point", "interval"), (d, alpha, got, want)
                    assert got[1] == want[1], (d, alpha, got, want)
                    assert abs(float(d.cdf_left(got[2])) - alpha) <= 1e-12, (d, alpha, got, want)


def test_level_set_of_a_segment_rising_to_a_jumps_left_limit_is_a_point():
    # F rises to 0.3 at 1 and jumps to 0.6 there: F(1) is 0.6, its left limit 0.3
    d = PiecewiseLinearCDF.from_pairs([(0, 0.0), (1, 0.3), (1, 0.6), (2, 1.0)])
    assert d.quantile(0.3) == 1.0 and d.cdf(1.0) == 0.6 and d.cdf_left(1.0) == 0.3
    assert d.level_set(0.3) == per_kind_level_set(d, 0.3) == ("point", 1.0, 1.0)
    # one ulp above the left limit is within 1e-12 of it too (the loop said empty)
    assert d.level_set(math.nextafter(0.3, 1.0)) == ("point", 1.0, 1.0)
    assert d.level_set(0.3 + 2e-12)[0] == "empty"


def test_level_set_keeps_a_flat_stretch_that_rounding_moved_off_the_level():
    # flats at 0.2 and 0.4 on [1, 2], mixed half and half: the flat is at
    # 0.5 * 0.2 + 0.5 * 0.4 = 0.30000000000000004, not at 0.3
    a = PiecewiseLinearCDF.from_pairs([(0, 0.0), (1, 0.2), (2, 0.2), (3, 1.0)])
    b = PiecewiseLinearCDF.from_pairs([(0, 0.0), (1, 0.4), (2, 0.4), (3, 1.0)])
    m = MixtureDistribution([a, b], [0.5, 0.5])
    assert float(m.cdf(1.5)) == 0.30000000000000004
    assert m.upper_quantile(0.3) - m.quantile(0.3) <= 1e-12  # exact inverses see no stretch
    got = m.level_set(0.3)
    assert got == per_kind_level_set(m, 0.3)
    assert got[0] == "interval" and got[2] == 2.0 and abs(got[1] - 1.0) <= 1e-12


def test_level_set_with_a_smooth_part_is_at_most_one_point():
    # a Gaussian tail under a flat arm: F rises by less than its own ulp over
    # more than 1e-12, yet F is strictly increasing, so its two inverses are one
    m = MixtureDistribution([Gaussian(0.0, 1.0), bad1_arm_wide()], [0.3, 0.7])
    alpha = float(m.cdf(4.5))
    assert m.upper_quantile(alpha) == m.quantile(alpha)
    q = m.quantile(alpha)
    assert m.level_set(alpha) == per_kind_level_set(m, alpha) == ("point", q, q)


def test_smooth_mixture_upper_quantile_is_its_quantile_where_float_cdf_falls():
    # the float CDF is not monotone to the last ulp: F at the quantile is
    # exactly c, yet F two ulps below it is c + 2.8e-17, where a bisection
    # on F > c stopped
    w = [float.fromhex(h) for h in ("0x1.1e8c7eb6f2494p-1", "0x1.3fcabf33f3198p-3",
                                    "0x1.2301a2f821e0cp-2")]
    arms = [Gaussian(0.0, 1.0), Gaussian(0.1, 1.0), PointMass(0.5), bad1_arm_wide()]
    m = MixtureDistribution(arms, [*w, 0.0])
    c = 4 / 29
    assert m.quantile(c) == -0.8469517668373229
    assert m.upper_quantile(c) == m.quantile(c)


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
