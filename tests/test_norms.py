import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.special import ndtr

from riskbandits import norms
from riskbandits.checks import _random_empirical, _random_mixture
from riskbandits.dist import (
    EmpiricalDistribution,
    Gaussian,
    MixtureDistribution,
    PointMass,
    TwoPoint,
    Uniform,
)
from riskbandits.norms import (
    SemiNormFunctional,
    norm_distance,
    norm_value,
    seminorm_value,
    sup_distance,
)

from conftest import bad1_arm_wide, distribution_catalog, rng

BOTH_TAILS = (SemiNormFunctional("lower-tail"), SemiNormFunctional("upper-tail"))


def brute_sup(f, g, lo=-60.0, hi=80.0, n=200_001):
    """Grid oracle with two zoom passes around the coarse argmax."""
    best = 0.0
    for _ in range(3):
        ys = np.linspace(lo, hi, n)
        d = np.abs(np.asarray(f.cdf(ys)) - np.asarray(g.cdf(ys)))
        dl = np.abs(np.asarray(f.cdf_left(ys)) - np.asarray(g.cdf_left(ys)))
        vals = np.maximum(d, dl)
        k = int(np.argmax(vals))
        best = max(best, float(vals[k]))
        h = ys[1] - ys[0]
        lo, hi = ys[k] - 2 * h, ys[k] + 2 * h
    return best


def test_sup_identity_and_disjoint_steps():
    g = Gaussian(0, 1)
    assert sup_distance(g, g) == 0.0
    assert sup_distance(EmpiricalDistribution([0]), EmpiricalDistribution([1])) == 1.0


def test_sup_gaussian_vs_point_mass():
    # sup approached from the left of the jump at 0
    assert sup_distance(Gaussian(0, 1), PointMass(0.0)) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize(
    "f,g",
    [
        (Gaussian(0, 1), Gaussian(0.5, 1.0)),
        (Gaussian(0, 1), Gaussian(0.3, 2.0)),
        (Gaussian(0.2, 0.7), Uniform(-1, 1.5)),
        (bad1_arm_wide(), Gaussian(10, 8)),
        (
            MixtureDistribution([Gaussian(0, 1), PointMass(1.0)], [0.6, 0.4]),
            MixtureDistribution([Gaussian(1, 2), Uniform(0, 3)], [0.5, 0.5]),
        ),
        (EmpiricalDistribution([-1, 0.3, 2.2]), Gaussian(0, 1)),
        (bad1_arm_wide(), PointMass(5.0)),
    ],
)
def test_sup_against_brute_force_grid(f, g):
    oracle = brute_sup(f, g)
    got = sup_distance(f, g)
    assert got == pytest.approx(oracle, abs=1e-8)
    assert got >= oracle - 1e-10  # a sup may never fall below a grid maximum


def test_sup_two_gaussians_closed_form():
    # equal variances: extremum at the midpoint of the means
    got = sup_distance(Gaussian(0, 1), Gaussian(0.5, 1))
    assert got == pytest.approx(2 * ndtr(0.25) - 1, abs=1e-12)


def test_seminorm_examples():
    assert seminorm_value(EmpiricalDistribution([1, 2, 3]), SemiNormFunctional("mean")) == 2.0
    assert seminorm_value(PointMass(3.0), SemiNormFunctional("second-moment")) == 9.0
    m = MixtureDistribution([PointMass(0.0), PointMass(-math.log(2))], [0.5, 0.5])
    assert seminorm_value(m, SemiNormFunctional("exp-moment", 1.0)) == pytest.approx(1.5)


@pytest.mark.parametrize(
    "fn",
    [
        SemiNormFunctional("lower-tail"),
        SemiNormFunctional("upper-tail"),
        SemiNormFunctional("mean"),
        SemiNormFunctional("second-moment"),
        SemiNormFunctional("tsv", 0.3),
        SemiNormFunctional("exp-moment", 0.7),
    ],
    ids=lambda fn: fn.kind,
)
def test_seminorm_value_is_the_sample_mean_of_its_integrand(fn):
    r = rng(17)
    for samples in ([-1.5, 0.0, 2.0], r.normal(0.2, 1.5, size=41), r.uniform(-3, 1, size=200)):
        emp = EmpiricalDistribution(samples)
        want = np.mean([fn.integrand(float(x), fn.param) for x in samples])
        assert seminorm_value(emp, fn) == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_norm_distance_partial_sum_example():
    f = EmpiricalDistribution([-2, 4])
    g = EmpiricalDistribution([-2, -2])
    assert sup_distance(f, g) == pytest.approx(0.5)
    lower = SemiNormFunctional("lower-tail")
    upper = SemiNormFunctional("upper-tail")
    assert abs(seminorm_value(f, lower) - seminorm_value(g, lower)) == pytest.approx(1.0)
    assert abs(seminorm_value(f, upper) - seminorm_value(g, upper)) == pytest.approx(2.0)
    assert norm_distance(f, g, BOTH_TAILS) == pytest.approx(2.0)


def test_norm_dominates_sup(catalog):
    r = rng(3)
    for _ in range(60):
        f, g = r.choice(len(catalog), size=2)
        f, g = catalog[f], catalog[g]
        assert norm_distance(f, g, BOTH_TAILS) >= sup_distance(f, g) - 1e-15


def test_sup_only_spec_matches_sup(catalog):
    for f in catalog[:4]:
        for g in catalog[4:8]:
            assert norm_distance(f, g, ()) == sup_distance(f, g)


def test_norm_symmetry_and_triangle(catalog):
    r = rng(11)
    spec = (*BOTH_TAILS, SemiNormFunctional("mean"))
    pool = catalog + [
        MixtureDistribution([catalog[0], catalog[4]], [0.3, 0.7]),
        EmpiricalDistribution(rng(5).normal(size=23)),
    ]
    for _ in range(500):
        i, j, k = r.integers(0, len(pool), size=3)
        f, g, h = pool[i], pool[j], pool[k]
        dfg = norm_distance(f, g, spec)
        assert norm_distance(g, f, spec) == pytest.approx(dfg, abs=1e-12)
        assert dfg <= norm_distance(f, h, spec) + norm_distance(h, g, spec) + 1e-12
        assert norm_distance(f, f, spec) == 0.0


def test_norm_value_of_distribution():
    assert norm_value(Gaussian(0, 1), BOTH_TAILS) == 1.0
    wide = Gaussian(0, 10)
    # upper tail of N(0,100) is sigma/sqrt(2 pi) ~ 3.99 > 1
    assert norm_value(wide, BOTH_TAILS) == pytest.approx(10 / math.sqrt(2 * math.pi))


def test_empirical_norm_convergence_median():
    # stability surrogate: the norm distance to the source law decreases in t
    g = Gaussian(0.5, 1.3)
    reps, ts = 100, (100, 1000, 10_000, 100_000)
    r = rng(29)
    medians = []
    for t in ts:
        dists = []
        for _ in range(reps):
            emp = EmpiricalDistribution(g.sample(r, t))
            dists.append(norm_distance(emp, g, BOTH_TAILS))
        medians.append(float(np.median(dists)))
    assert all(a > b for a, b in zip(medians, medians[1:]))


def test_two_point_vs_uniform_exact():
    f = TwoPoint(0.5, 0.0, 1.0)
    g = Uniform(0.0, 1.0)
    # |F-G| peaks approaching the atoms: 0.5 at y -> 0+ and y -> 1-
    assert sup_distance(f, g) == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# The zoom pass against the per-interval Brent loop it replaced
# ---------------------------------------------------------------------------


def brent_loop_sup_distance(f, g):
    """Candidates, the 33-point coarse pass, then a bounded Brent search on
    every interval within 1e-2 of the best value."""
    pts = norms._candidate_points(f, g)
    d_right = np.abs(np.asarray(f.cdf(pts)) - np.asarray(g.cdf(pts)))
    d_left = np.abs(np.asarray(f.cdf_left(pts)) - np.asarray(g.cdf_left(pts)))
    best = float(max(d_right.max(), d_left.max()))
    needs_refine = (f.has_smooth_part and (g.has_smooth_part or g.has_sloped_part)) or (
        g.has_smooth_part and (f.has_smooth_part or f.has_sloped_part)
    )
    if needs_refine and len(pts) > 1:
        a, b = pts[:-1], pts[1:]
        keep = b - a > 1e-12
        a, b = a[keep], b[keep]
        grid = a[:, None] + (b - a)[:, None] * np.linspace(0.0, 1.0, 33)[None, :]
        flat = grid.ravel()
        coarse = np.abs(np.asarray(f.cdf(flat)) - np.asarray(g.cdf(flat))).reshape(grid.shape)
        per_interval = coarse.max(axis=1)
        best = max(best, float(per_interval.max()))

        def neg_abs_diff(y):
            return -abs(float(f.cdf(y)) - float(g.cdf(y)))

        for i in np.flatnonzero(per_interval >= best - 1e-2):
            res = minimize_scalar(
                neg_abs_diff, bounds=(a[i], b[i]), method="bounded", options={"xatol": 1e-11}
            )
            best = max(best, -float(res.fun))
    return best


def run_search(fun, lo, hi, xatol=1e-11):
    """Drive the ``norms.minimize_scalar`` generator with ``fun``."""
    search = norms.minimize_scalar(lo, hi, xatol)
    x = next(search)
    while True:
        try:
            x = search.send(fun(x))
        except StopIteration as stop:
            return stop.value


def pair_sup_distance(f, g):
    """``sup_distance`` one pair at a time, as it was before pairs were
    batched: candidates, the coarse pass and the zoom rounds on this pair's
    CDFs alone, then one Brent search after another."""
    pts = norms._candidate_points(f, g)
    d_right = np.abs(np.asarray(f.cdf(pts)) - np.asarray(g.cdf(pts)))
    d_left = np.abs(np.asarray(f.cdf_left(pts)) - np.asarray(g.cdf_left(pts)))
    best = float(max(d_right.max(), d_left.max()))
    if not (norms._needs_refine(f, g) and len(pts) > 1):
        return best

    def abs_diff(y):
        flat = y.ravel()
        return np.abs(np.asarray(f.cdf(flat)) - np.asarray(g.cdf(flat))).reshape(y.shape)

    a, b = pts[:-1], pts[1:]
    keep = b - a > 1e-12
    a, b = a[keep], b[keep]
    grid = a[:, None] + (b - a)[:, None] * np.linspace(0.0, 1.0, 33)[None, :]
    coarse = abs_diff(grid)
    per_interval = coarse.max(axis=1)
    best = max(best, float(per_interval.max()))
    sel = np.flatnonzero(per_interval >= best - 1e-2)
    a, b = a[sel], b[sel]
    rows = np.arange(len(sel))
    centre = grid[sel, coarse[sel].argmax(axis=1)]
    top = per_interval[sel]
    offsets = np.linspace(-1.0, 1.0, 33)
    half_width = (b - a) / 32
    for _ in range(12):
        zoom = np.clip(centre[:, None] + half_width[:, None] * offsets, a[:, None], b[:, None])
        values = abs_diff(zoom)
        arg = values.argmax(axis=1)
        centre = zoom[rows, arg]
        top = np.maximum(top, values[rows, arg])
        half_width /= 16
    best = max(best, float(top.max(initial=best)))
    for i in np.flatnonzero(top == best):
        _, low, _ = run_search(
            lambda y: -abs(float(f.cdf(y)) - float(g.cdf(y))), float(a[i]), float(b[i])
        )
        best = max(best, -low)
    return best


ACCEPTANCE_8_ARMS = {
    "mixed": [Gaussian(0.5, 1.0), Uniform(-1.0, 2.0), TwoPoint(0.3, -1.0, 3.0)],
    "positive": [Gaussian(1.0, 1.0), Uniform(0.5, 2.0), TwoPoint(0.5, 0.2, 3.0)],
    "close-gaussians": [Gaussian(0.0, 1.0), Gaussian(0.1, 1.0)],
}


def sup_corpus():
    catalog = distribution_catalog()
    pairs = [(f, g) for f in catalog for g in catalog]
    r = rng(71)
    for arms in ACCEPTANCE_8_ARMS.values():  # the pairs the modulus suite draws
        for _ in range(60):
            f = _random_mixture(r, arms)
            g = _random_mixture(r, arms) if r.random() < 0.5 else _random_empirical(r, arms)
            pairs.append((f, g))
    for _ in range(100):
        f, g = (
            MixtureDistribution(
                [Gaussian(float(r.normal()), float(r.uniform(0.3, 2.0))),
                 Uniform(*np.sort(r.normal(size=2)))],
                r.dirichlet(np.ones(2)),
            )
            for _ in range(2)
        )
        pairs.append((f, g))
    return pairs


def test_sup_distance_never_falls_below_the_brent_loop(monkeypatch):
    calls = []
    brent = norms.minimize_scalar
    monkeypatch.setattr(
        norms, "minimize_scalar", lambda *a, **k: calls.append(1) or brent(*a, **k)
    )
    pairs = sup_corpus()
    for f, g in pairs:
        assert sup_distance(f, g) >= brent_loop_sup_distance(f, g)
    # the polish runs only where the zoom found the best value
    assert len(calls) <= len(pairs)


def test_batched_sup_distances_equal_one_pair_at_a_time(monkeypatch):
    pairs = sup_corpus()
    want = [pair_sup_distance(f, g) for f, g in pairs]
    assert bit_pattern(norms.sup_distances(pairs)) == bit_pattern(want)
    # reversed, and in chunks of a few probe points, each pair still gets its own value
    monkeypatch.setattr(norms, "_BATCH_POINTS", 200)
    assert bit_pattern(norms.sup_distances(pairs[::-1])) == bit_pattern(want[::-1])
    assert [sup_distance(f, g) for f, g in pairs[::9]] == want[::9]
    spec = (*BOTH_TAILS, SemiNormFunctional("mean"))
    some = pairs[::5]
    assert norms.norm_distances(some, spec) == [norm_distance(f, g, spec) for f, g in some]


# ---------------------------------------------------------------------------
# The bounded Brent search against scipy's, bit for bit
# ---------------------------------------------------------------------------


def bit_pattern(values):
    """Floats as hex strings, so -0.0 and NaN compare by their bits."""
    return [float(v).hex() for v in values]


def port_and_scipy(fun, lo, hi):
    """The port's run and scipy's bounded search at the polish tolerance, each
    as ([x, fun(x)], evaluations, probes), floats as bits; the evaluations
    are also counted in the objective."""
    runs = []
    for search in ("port", "scipy"):
        probes = []

        def counted(y):
            probes.append(y)
            return fun(y)

        if search == "port":
            x, fx, nfev = run_search(counted, lo, hi)
        else:
            with np.errstate(over="ignore", invalid="ignore"):  # the parabola may overflow
                res = minimize_scalar(counted, bounds=(lo, hi), method="bounded",
                                      options={"xatol": 1e-11})
            x, fx, nfev = res.x, res.fun, res.nfev
        assert nfev == len(probes)
        runs.append((bit_pattern([x, fx]), nfev, bit_pattern(probes)))
    return runs


def test_bounded_brent_matches_scipy_on_every_sup_polish(monkeypatch):
    polished = []
    brent = norms.minimize_scalar
    for f, g in sup_corpus():
        bounds = []

        def record(lo, hi, xatol):
            bounds.append((lo, hi))
            return brent(lo, hi, xatol)

        with monkeypatch.context() as patch:
            patch.setattr(norms, "minimize_scalar", record)
            sup_distance(f, g)

        def fun(y, f=f, g=g):
            return -abs(float(f.cdf(y)) - float(g.cdf(y)))

        polished += [(fun, lo, hi) for lo, hi in bounds]
    assert len(polished) > 50
    for fun, lo, hi in polished:
        port, reference = port_and_scipy(fun, lo, hi)
        assert port == reference


def random_objectives(r):
    """Smooth objectives, kinked ones, a flat one and a step."""
    for _ in range(60):
        w, phi, c = r.uniform(0.1, 8.0), r.uniform(0, 2 * math.pi), r.normal()
        yield lambda y, w=w, phi=phi, c=c: math.cos(w * y + phi) + c * y * y
        m, s = r.normal(), r.uniform(0.05, 3.0)
        yield lambda y, m=m, s=s: -math.exp(-((y - m) / s) ** 2) + 0.1 * y
        k1, k2, c = r.normal(size=2).tolist() + [r.uniform(0.0, 2.0)]
        yield lambda y, k1=k1, k2=k2, c=c: abs(y - k1) + c * abs(y - k2)
        k = r.normal()
        yield lambda y, k=k: max(y - k, 0.5 * (k - y)) ** 3
    yield lambda y: 1.0
    yield lambda y: 0.0 if y < 0.1 else -1.0


def test_bounded_brent_matches_scipy_on_random_objectives():
    r = rng(83)
    for fun in random_objectives(r):
        for width in (1e-9, 1e-3, 1.0, 50.0):
            lo = float(r.normal(scale=3.0))
            port, reference = port_and_scipy(fun, lo, lo + width * float(r.uniform(0.5, 1.0)))
            assert port == reference


def test_bounded_brent_degenerate_interval_and_bad_bounds():
    port, reference = port_and_scipy(lambda y: y * y, 0.75, 0.75)
    assert port == reference
    assert port[1] == 1  # one evaluation, at the single point
    for lo, hi in ((1.0, 0.0), (0.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError):
            next(norms.minimize_scalar(lo, hi, xatol=1e-11))


def test_bounded_brent_matches_scipy_at_the_evaluation_cap():
    # golden steps from a width of 1e300 down to 1e-11 take ~1500 evaluations;
    # the parabola through such values overflows to inf and NaN
    for lo, hi in ((-1e300, 1e300), (-1e200, 3e200)):
        port, reference = port_and_scipy(abs, lo, hi)
        assert port == reference
        assert port[1] == 500


@pytest.mark.parametrize(
    "fun",
    [lambda y: math.nan, lambda y: math.nan if y > 0.3 else (y - 0.2) ** 2],
    ids=["always-nan", "nan-above-0.3"],
)
def test_bounded_brent_matches_scipy_on_nan_objectives(fun):
    port, reference = port_and_scipy(fun, -1.0, 2.0)
    assert port == reference
