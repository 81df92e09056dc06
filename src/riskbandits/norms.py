"""Composite norms on distribution differences.

The norms used here all share one shape: a sup-norm baseline on the CDF
difference, augmented by the absolute difference of finitely many linear
functionals (tail first moments, raw moments, below-target semivariance,
exponential moments):

    ||F - G|| = max{ sup_y |F(y)-G(y)|,  |B_l(F) - B_l(G)| for each l }.

``sup_distance`` is exact for piecewise-linear/step CDF pairs (the sup of a
piecewise-linear difference is attained at knots, approached at jump left
limits); pairs involving Gaussian parts add closed-form probe points and a
bounded scalar refinement between candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .dist import RewardDistribution
from .errors import DomainError

__all__ = [
    "SemiNormFunctional",
    "NormSpec",
    "seminorm_value",
    "sup_distance",
    "norm_distance",
    "norm_value",
]


@dataclass(frozen=True)
class SemiNormFunctional:
    """One linear functional B_l used as a semi-norm component."""

    kind: str  # lower-tail | upper-tail | mean | second-moment | tsv | exp-moment
    param: float = 0.0

    def __post_init__(self):
        if self.kind not in (
            "lower-tail",
            "upper-tail",
            "mean",
            "second-moment",
            "tsv",
            "exp-moment",
        ):
            raise DomainError(f"unknown semi-norm functional {self.kind!r}")


@dataclass(frozen=True)
class NormSpec:
    """Sup-norm baseline plus a tuple of semi-norm functionals."""

    functionals: tuple[SemiNormFunctional, ...] = ()


def seminorm_value(dist: RewardDistribution, functional: SemiNormFunctional) -> float:
    """Signed value of the linear functional B_l on a distribution."""
    k = functional.kind
    if k == "lower-tail":
        return dist.lower_tail()
    if k == "upper-tail":
        return dist.upper_tail()
    if k == "mean":
        return dist.mean()
    if k == "second-moment":
        return dist.second_moment()
    if k == "tsv":
        return dist.below_target_semivariance(functional.param)
    if k == "exp-moment":
        return dist.exp_moment(functional.param)
    raise DomainError(f"unknown functional {k!r}")


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
        # coarse vectorized pass over every interval, then scalar refinement
        # only where an interior extremum can still beat the best candidate
        a = pts[:-1]
        b = pts[1:]
        keep = b - a > 1e-12
        a, b = a[keep], b[keep]
        frac = np.linspace(0.0, 1.0, 33)
        grid = a[:, None] + (b - a)[:, None] * frac[None, :]
        flat = grid.ravel()
        coarse = np.abs(np.asarray(f.cdf(flat)) - np.asarray(g.cdf(flat))).reshape(grid.shape)
        per_interval = coarse.max(axis=1)
        best = max(best, float(per_interval.max()))

        def neg_abs_diff(y):
            return -abs(float(f.cdf(y)) - float(g.cdf(y)))

        for i in np.flatnonzero(per_interval >= best - 1e-2):
            res = minimize_scalar(
                neg_abs_diff, bounds=(a[i], b[i]), method="bounded",
                options={"xatol": 1e-11},
            )
            best = max(best, -float(res.fun))
    return best


def norm_distance(f: RewardDistribution, g: RewardDistribution, spec: NormSpec) -> float:
    """Composite norm of F - G under ``spec``; infinite parts propagate."""
    out = sup_distance(f, g)
    for functional in spec.functionals:
        a = seminorm_value(f, functional)
        b = seminorm_value(g, functional)
        if not (math.isfinite(a) and math.isfinite(b)):
            return math.inf
        out = max(out, abs(a - b))
    return out


def norm_value(f: RewardDistribution, spec: NormSpec) -> float:
    """Composite norm of a proper distribution (sup part equals 1)."""
    out = 1.0
    for functional in spec.functionals:
        v = seminorm_value(f, functional)
        if not math.isfinite(v):
            return math.inf
        out = max(out, abs(v))
    return out
