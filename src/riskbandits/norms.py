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
refine between candidates in batches: a 33-point coarse grid on every
interval, then one zoom pass over all intervals that can still hold the
sup (each round a 33-point grid around every interval's argmax, 16 times
narrower than the last, with one CDF call per distribution and round),
then a bounded Brent search only on the intervals whose zoomed value is
the best found, which can still gain a few ulp.  The search
(``minimize_scalar``) is a port of scipy's bounded ``minimize_scalar`` to
Python floats, step for step: the same probes and the same minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import RewardDistribution, _exp
from .errors import DomainError

# sup-distance refinement: points per grid, grid shrink per zoom round, rounds
# (32 * 16**12 spacings cover an interval to float resolution)
_ZOOM_POINTS = 33
_ZOOM_SHRINK = 16
_ZOOM_ROUNDS = 12

# bounded Brent search: scipy's constants and evaluation cap
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_BRENT_MAX_EVALS = 500

__all__ = [
    "SemiNormFunctional",
    "seminorm_value",
    "sup_distance",
    "norm_distance",
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


def sup_distance(f: RewardDistribution, g: RewardDistribution) -> float:
    """``sup_y |F(y) - G(y)|``, exact on the piecewise catalog."""
    pts = _candidate_points(f, g)
    d_right = np.abs(np.asarray(f.cdf(pts)) - np.asarray(g.cdf(pts)))
    d_left = np.abs(np.asarray(f.cdf_left(pts)) - np.asarray(g.cdf_left(pts)))
    best = float(max(d_right.max(), d_left.max()))

    needs_refine = (f.has_smooth_part and (g.has_smooth_part or g.has_sloped_part)) or (
        g.has_smooth_part and (f.has_smooth_part or f.has_sloped_part)
    )
    if needs_refine and len(pts) > 1:
        # coarse vectorized pass over every interval
        a = pts[:-1]
        b = pts[1:]
        keep = b - a > 1e-12
        a, b = a[keep], b[keep]
        frac = np.linspace(0.0, 1.0, _ZOOM_POINTS)
        grid = a[:, None] + (b - a)[:, None] * frac[None, :]
        coarse = _abs_diff(f, g, grid)
        per_interval = coarse.max(axis=1)
        best = max(best, float(per_interval.max()))

        # zoom on every interval where an interior extremum can still beat
        # the best candidate, all at once: a grid around each argmax, its
        # half-width one spacing of the previous grid
        sel = np.flatnonzero(per_interval >= best - 1e-2)
        a, b = a[sel], b[sel]
        rows = np.arange(len(sel))
        centre = grid[sel, coarse[sel].argmax(axis=1)]
        top = per_interval[sel]
        offsets = np.linspace(-1.0, 1.0, _ZOOM_POINTS)
        half_width = (b - a) / (_ZOOM_POINTS - 1)
        for _ in range(_ZOOM_ROUNDS):
            zoom = np.clip(centre[:, None] + half_width[:, None] * offsets, a[:, None], b[:, None])
            values = _abs_diff(f, g, zoom)
            arg = values.argmax(axis=1)
            centre = zoom[rows, arg]
            top = np.maximum(top, values[rows, arg])
            half_width /= _ZOOM_SHRINK
        best = max(best, float(top.max(initial=best)))

        # polish the intervals that hold the best value with a bounded Brent
        # search, which can still gain a few ulp on the zoom
        def neg_abs_diff(y):
            return -abs(float(f.cdf(y)) - float(g.cdf(y)))

        for i in np.flatnonzero(top == best):
            _, low, _ = minimize_scalar(neg_abs_diff, float(a[i]), float(b[i]), xatol=1e-11)
            best = max(best, -low)
    return best


def minimize_scalar(fun, lo: float, hi: float, xatol: float) -> tuple[float, float, int]:
    """Bounded Brent search for a minimum of ``fun`` on ``[lo, hi]``.

    A port of scipy's ``minimize_scalar(method="bounded")`` (golden-section
    steps, parabolic steps where the fit is acceptable, at most 500
    evaluations) with every comparison and update in the same order, so it
    probes the same points.  Returns ``(x, fun(x), evaluations)``.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise DomainError(f"bounds must be finite with lo <= hi, got ({lo}, {hi})")
    a, b = lo, hi
    # xf: best point so far; nfc, fulc: the second and third best
    xf = nfc = fulc = a + _GOLDEN * (b - a)
    rat = e = 0.0
    fx = ffulc = fnfc = fun(xf)
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
        fu = fun(x)
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


def _abs_diff(f: RewardDistribution, g: RewardDistribution, y: np.ndarray) -> np.ndarray:
    """``|F(y) - G(y)|`` on a 2-d grid, in one CDF call per distribution."""
    flat = y.ravel()
    return np.abs(np.asarray(f.cdf(flat)) - np.asarray(g.cdf(flat))).reshape(y.shape)


def norm_distance(
    f: RewardDistribution, g: RewardDistribution, functionals: tuple[SemiNormFunctional, ...]
) -> float:
    """Composite norm of F - G with the given functionals; infinite parts propagate."""
    out = sup_distance(f, g)
    for functional in functionals:
        a = seminorm_value(f, functional)
        b = seminorm_value(g, functional)
        if not (math.isfinite(a) and math.isfinite(b)):
            return math.inf
        out = max(out, abs(a - b))
    return out


def norm_value(f: RewardDistribution, functionals: tuple[SemiNormFunctional, ...]) -> float:
    """Composite norm of a proper distribution (sup part equals 1)."""
    out = 1.0
    for functional in functionals:
        v = seminorm_value(f, functional)
        if not math.isfinite(v):
            return math.inf
        out = max(out, abs(v))
    return out
