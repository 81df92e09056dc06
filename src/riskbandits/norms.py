"""Composite norms on distribution differences.

The norms used here all share one shape: a sup-norm baseline on the CDF
difference, augmented by the absolute difference of finitely many linear
functionals (tail first moments, raw moments, below-target semivariance,
exponential moments):

    ||F - G|| = max{ sup_y |F(y)-G(y)|,  |B_l(F) - B_l(G)| for each l }.

A norm is named by its tuple of ``SemiNormFunctional``s (a criterion's
``functionals``); the empty tuple is the bare sup norm.  ``_FUNCTIONALS``
defines each kind once, by its value on a distribution and its integrand.

``sup_distance`` is exact for piecewise-linear/step CDF pairs (the sup of a
piecewise-linear difference is attained at knots, approached at jump left
limits).  Pairs involving Gaussian parts add closed-form probe points and
refine between candidates: a 33-point coarse grid on every interval, then
one zoom pass over all intervals that can still hold the sup (each round a
33-point grid around every interval's argmax, 16 times narrower than the
last), then a bounded Brent search only on the intervals whose zoomed
value is the best found, which can still gain a few ulp.  The search
(``minimize_scalar``) is a port of scipy's bounded ``minimize_scalar`` to
Python floats, step for step: the same probes and the same minimum.

``sup_distances`` solves many pairs together (``sup_distance`` is its
one-pair case): each pass and zoom round in kernel calls of at most
``_BATCH_POINTS`` probe points of all pairs, and the Brent searches of all
pairs in lockstep.  Every value is the one a pair alone gets, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import MixtureDistribution, RewardDistribution, _exp
from .errors import DomainError

# sup-distance refinement: points per grid, grid shrink per zoom round, rounds
# (32 * 16**12 spacings cover an interval to float resolution)
_ZOOM_POINTS = 33
_ZOOM_SHRINK = 16
_ZOOM_ROUNDS = 12

# probe points per kernel call of ``sup_distances``: with both sides' values
# and weights, a call's arrays hold at most 2^16 floats up to four components
_BATCH_POINTS = 1 << 13
_ONE = np.ones(1)

# bounded Brent search: scipy's constants and evaluation cap
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_BRENT_MAX_EVALS = 500

__all__ = [
    "SemiNormFunctional",
    "seminorm_value",
    "sup_distance",
    "sup_distances",
    "norm_distance",
    "norm_distances",
    "norm_value",
]


# kind -> (value on a distribution through its exact method, integrand g(x, param));
# each functional is B_l(F) = integral of g(x, param) dF(x)
_FUNCTIONALS = {
    "lower-tail": (lambda d, p: d.lower_tail(), lambda x, p: x if x <= 0 else 0.0),
    "upper-tail": (lambda d, p: d.upper_tail(), lambda x, p: x if x > 0 else 0.0),
    "mean": (lambda d, p: d.mean(), lambda x, p: x),
    "second-moment": (lambda d, p: d.second_moment(), lambda x, p: x * x),
    "tsv": (
        lambda d, r: d.below_target_semivariance(r),
        lambda x, r: (x - r) * (x - r) if x <= r else 0.0,
    ),
    "exp-moment": (lambda d, theta: d.exp_moment(theta), lambda x, theta: _exp(-theta * x)),
}


@dataclass(frozen=True)
class SemiNormFunctional:
    """One linear functional B_l used as a semi-norm component."""

    kind: str  # a key of _FUNCTIONALS
    param: float = 0.0

    def __post_init__(self):
        if self.kind not in _FUNCTIONALS:
            raise DomainError(f"unknown semi-norm functional {self.kind!r}")

    @property
    def integrand(self):
        """``g(x, param)``, with B_l(F) the integral of g against dF."""
        return _FUNCTIONALS[self.kind][1]


def seminorm_value(dist: RewardDistribution, functional: SemiNormFunctional) -> float:
    """Signed value of the linear functional B_l on a distribution."""
    return _FUNCTIONALS[functional.kind][0](dist, functional.param)


def _candidate_points(f: RewardDistribution, g: RewardDistribution) -> np.ndarray:
    parts = [f.breakpoints(), g.breakpoints()]
    if f.has_smooth_part or g.has_smooth_part:
        parts += [f.smooth_probe_points(), g.smooth_probe_points()]
        lo = min(f.support_bounds()[0], g.support_bounds()[0])
        hi = max(f.support_bounds()[1], g.support_bounds()[1])
        parts.append(np.array([lo, hi]))
    parts = [p for p in parts if len(p)]
    if not parts:
        return np.array([0.0])
    return np.unique(np.concatenate(parts))


def _needs_refine(f: RewardDistribution, g: RewardDistribution) -> bool:
    return (f.has_smooth_part and (g.has_smooth_part or g.has_sloped_part)) or (
        g.has_smooth_part and (f.has_smooth_part or f.has_sloped_part)
    )


def _sides(d: RewardDistribution):
    """``d`` as weights over CDFs summed in order: a mixture's components, else d alone."""
    if isinstance(d, MixtureDistribution):
        return d.components, d.weights
    return (d,), _ONE


def _pair_kernel(pairs):
    """``diff(owner, y, left=False)``: ``|F - G|`` at each row ``y[r]`` (or at
    its left limits) for the pair ``pairs[owner[r]]``.  Pairs over the same
    component lists form a group, one stack of mixtures with two weight
    rows per pair: each component's CDF is taken once over the group's
    points, for both sides.  A side that is not a mixture weighs itself by
    1, and a component it does not hold by 0, which adds an exact +0.0."""
    components, tables, group, local = [], [], [], []
    index = {}
    for f, g in pairs:
        (fc, fw), (gc, gw) = _sides(f), _sides(g)
        key = (tuple(map(id, fc)), tuple(map(id, gc)))
        k = index.get(key)
        if k is None:
            k = index[key] = len(components)
            components.append(fc if key[0] == key[1] else fc + gc)
            tables.append([])
        if key[0] != key[1]:
            fw, gw = np.append(fw, np.zeros(len(gc))), np.append(np.zeros(len(fc)), gw)
        group.append(k)
        local.append(len(tables[k]))
        tables[k].append((fw, gw))
    tables = [np.array(t).transpose(1, 0, 2) for t in tables]  # (side, pair, component)
    group, local = np.array(group), np.array(local)

    def values(k, owner, y, left):
        # a group of one pair weighs every row alike
        w = tables[k] if tables[k].shape[1] == 1 else tables[k][:, local[owner]]
        w = w.reshape(w.shape[:2] + (1,) * (y.ndim - 1) + w.shape[2:])
        rows = MixtureDistribution._rows(components[k], w)
        v = rows.cdf_left(y) if left else rows.cdf(y)
        return np.abs(v[0] - v[1])

    def diff(owner, y, left=False):
        of = group[owner]
        if (of == of[0]).all():
            return values(of[0], owner, y, left)
        out = np.empty(y.shape)
        order = np.argsort(of, kind="stable")
        ranked = of[order]
        for sel in np.split(order, np.flatnonzero(ranked[1:] != ranked[:-1]) + 1):
            out[sel] = values(of[sel[0]], owner[sel], y[sel], left)
        return out

    return diff


def sup_distance(f: RewardDistribution, g: RewardDistribution) -> float:
    """``sup_y |F(y) - G(y)|``, exact on the piecewise catalog."""
    return sup_distances([(f, g)])[0]


def sup_distances(pairs) -> list[float]:
    """``sup_distance`` of every pair, solved together: each pass (the
    candidates, the coarse grid, the zoom rounds) takes one kernel call per
    chunk of at most ``_BATCH_POINTS`` probe points over all pairs, and the
    Brent searches of all pairs run in one lockstep."""
    pairs = list(pairs)
    diff = _pair_kernel(pairs)
    candidates = [_candidate_points(f, g) for f, g in pairs]

    # candidates and their left limits, in chunks of whole pairs (a pair
    # with more points than a chunk holds is a chunk of its own)
    best = np.empty(len(pairs))
    sizes = [len(pts) for pts in candidates]
    for chunk in _runs(sizes, _BATCH_POINTS):
        owner = np.repeat(chunk, [sizes[i] for i in chunk])
        y = np.concatenate([candidates[i] for i in chunk])
        values = np.maximum(diff(owner, y), diff(owner, y, left=True))
        best[chunk] = np.maximum.reduceat(values, np.searchsorted(owner, chunk))

    # coarse pass over every interval of the pairs that need refining
    a, b, owner = [], [], []
    for i, ((f, g), pts) in enumerate(zip(pairs, candidates)):
        if _needs_refine(f, g) and len(pts) > 1:
            keep = pts[1:] - pts[:-1] > 1e-12
            a.append(pts[:-1][keep])
            b.append(pts[1:][keep])
            owner.append(np.full(int(keep.sum()), i))
    if not a:
        return best.tolist()
    a, b, owner = np.concatenate(a), np.concatenate(b), np.concatenate(owner)
    step = max(1, _BATCH_POINTS // _ZOOM_POINTS)  # intervals per kernel call
    frac = np.linspace(0.0, 1.0, _ZOOM_POINTS)
    top = np.empty(len(a))
    centre = np.empty(len(a))
    for s in range(0, len(a), step):
        rows = slice(s, s + step)
        grid = a[rows, None] + (b[rows] - a[rows])[:, None] * frac[None, :]
        coarse = diff(owner[rows], grid)
        top[rows] = coarse.max(axis=1)
        centre[rows] = grid[np.arange(len(grid)), coarse.argmax(axis=1)]
    np.maximum.at(best, owner, top)

    # zoom on every interval where an interior extremum can still beat its
    # pair's best candidate: a grid around each argmax, its half-width one
    # spacing of the previous grid
    keep = top >= best[owner] - 1e-2
    a, b, owner, top, centre = a[keep], b[keep], owner[keep], top[keep], centre[keep]
    offsets = np.linspace(-1.0, 1.0, _ZOOM_POINTS)
    for s in range(0, len(a), step):
        rows = slice(s, s + step)
        lo, hi, at = a[rows, None], b[rows, None], np.arange(len(centre[rows]))
        half_width = (b[rows] - a[rows]) / (_ZOOM_POINTS - 1)
        for _ in range(_ZOOM_ROUNDS):
            zoom = np.clip(centre[rows, None] + half_width[:, None] * offsets, lo, hi)
            values = diff(owner[rows], zoom)
            arg = values.argmax(axis=1)
            centre[rows] = zoom[at, arg]
            top[rows] = np.maximum(top[rows], values[at, arg])
            half_width /= _ZOOM_SHRINK
    np.maximum.at(best, owner, top)

    # polish the intervals that hold their pair's best value with bounded
    # Brent searches, which can still gain a few ulp on the zoom: all in
    # lockstep, one kernel call per round of probes
    polish = np.flatnonzero(top == best[owner])
    searches = [minimize_scalar(float(a[i]), float(b[i]), xatol=1e-11) for i in polish]
    probes = [next(search) for search in searches]
    live = list(range(len(searches)))
    while live:
        values = diff(owner[polish[live]], np.array([probes[j] for j in live]))
        still = []
        for j, v in zip(live, (-values).tolist()):
            try:
                probes[j] = searches[j].send(v)
                still.append(j)
            except StopIteration as stop:
                i = owner[polish[j]]
                best[i] = max(best[i], -stop.value[1])
        live = still
    return best.tolist()


def _runs(sizes, budget):
    """Runs of consecutive indices whose sizes add up to at most ``budget``;
    an index whose size alone exceeds it is a run of its own."""
    start, total = 0, 0
    for i, n in enumerate(sizes):
        if i > start and total + n > budget:
            yield np.arange(start, i)
            start, total = i, 0
        total += n
    if start < len(sizes):
        yield np.arange(start, len(sizes))


def minimize_scalar(lo: float, hi: float, xatol: float):
    """Bounded Brent search for a minimum of a function on ``[lo, hi]``.

    A port of scipy's ``minimize_scalar(method="bounded")`` (golden-section
    steps, parabolic steps where the fit is acceptable, at most 500
    evaluations) with every comparison and update in the same order, so it
    probes the same points.  A generator: it yields each probe x, takes
    ``fun(x)`` back by ``send`` and returns ``(x, fun(x), evaluations)``,
    so that one caller can run many searches in lockstep.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise DomainError(f"bounds must be finite with lo <= hi, got ({lo}, {hi})")
    a, b = lo, hi
    # xf: best point so far; nfc, fulc: the second and third best
    xf = nfc = fulc = a + _GOLDEN * (b - a)
    rat = e = 0.0
    fx = ffulc = fnfc = yield xf
    num = 1
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm - xf >= 0 else -tol1
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN * e
        step = max(abs(rat), tol1)
        x = xf + step if rat >= 0 else xf - step
        fu = yield x
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _BRENT_MAX_EVALS:
            break
    return xf, fx, num


def _with_functionals(sup: float, f, g, functionals) -> float:
    out = sup
    for functional in functionals:
        a = seminorm_value(f, functional)
        b = seminorm_value(g, functional)
        if not (math.isfinite(a) and math.isfinite(b)):
            return math.inf
        out = max(out, abs(a - b))
    return out


def norm_distance(
    f: RewardDistribution, g: RewardDistribution, functionals: tuple[SemiNormFunctional, ...]
) -> float:
    """Composite norm of F - G with the given functionals; infinite parts propagate."""
    return _with_functionals(sup_distance(f, g), f, g, functionals)


def norm_distances(pairs, functionals: tuple[SemiNormFunctional, ...]) -> list[float]:
    """``norm_distance`` of every pair, their sup parts from ``sup_distances``."""
    return [
        _with_functionals(sup, f, g, functionals)
        for sup, (f, g) in zip(sup_distances(pairs), pairs)
    ]


def norm_value(f: RewardDistribution, functionals: tuple[SemiNormFunctional, ...]) -> float:
    """Composite norm of a proper distribution (sup part equals 1)."""
    out = 1.0
    for functional in functionals:
        v = seminorm_value(f, functional)
        if not math.isfinite(v):
            return math.inf
        out = max(out, abs(v))
    return out
