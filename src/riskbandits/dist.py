"""Reward distributions: analytic arm models, empirical CDFs, and mixtures.

Every distribution exposes the same small surface: a right-continuous CDF
with first-class left limits, the two generalized inverses (``quantile``
and ``upper_quantile``, one ``_inverse(c, strict)`` per kind), exact
moment/tail integrals, a seeded sampler, and the CDF integral
``int_{-inf}^{v} F(y) dy`` used by the low-tail-average criterion.

All values are immutable after construction; samplers take an explicit
numpy ``Generator``, so instances are safe to share across threads and
processes.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import sys
import threading
from dataclasses import dataclass

import numpy as np
# np.unique reads numpy.ma, and np.random is numpy.random: both load with the
# package, so no command imports a module for the first time
import numpy.ma
import numpy.random

from .errors import DomainError

__all__ = [
    "RewardDistribution",
    "Gaussian",
    "PointMass",
    "Uniform",
    "TwoPoint",
    "PiecewiseLinearCDF",
    "EmpiricalDistribution",
    "MixtureDistribution",
    "proxy_distribution",
]

_WEIGHT_TOL = 1e-12

# levels per block of the knot-table sampler, so a block's temporaries stay
# in cache; and the level guide's bucket count, a power of two
_BLOCK = 8192
_GUIDE_BUCKETS = 256

# rows per stack of mixtures: a lockstep step's arrays, and the weights of up
# to eight components, hold at most 2^16 floats
_STACK_ROWS = 1 << 13

# entries (rows x knots) per block of a knot-table stack's level tables: a
# stack's rows over many knots are tabulated a block of knots at a time
_TABLE_FLOATS = 1 << 16

# a Gaussian's smooth probe points, in standard deviations from its mean
_PROBE_STEPS = np.linspace(-8.0, 8.0, 33)

# Density of the standard normal at 0 and friends.
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


# scipy.special (ndtr, ndtri) is about half of the package's cold import, and
# only Gaussian arms call it, so it is bound lazily, after the importlib
# "Implementing lazy imports" recipe: a config without a Gaussian arm never
# loads it.  Reading any attribute loads it; a module already imported is
# reused as it is.  The first read is made under a lock: before Python 3.12,
# a thread that reads a lazy module while another loads it finds it half
# loaded.
_special_lock = threading.Lock()
_special = sys.modules.get("scipy.special")
if _special is None:
    _spec = importlib.util.find_spec("scipy.special")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _special = sys.modules["scipy.special"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_special)


def _norm_pdf(z):
    return _INV_SQRT_2PI * np.exp(-0.5 * np.square(z))


def _exp(y: float) -> float:
    """``math.exp`` that overflows to inf, as ``np.exp`` does."""
    try:
        return math.exp(y)
    except OverflowError:
        return math.inf


class RewardDistribution:
    """Common interface for all reward distribution kinds: each defines its
    CDF and left limit, one generalized inverse ``_inverse(c, strict)``,
    sampler and integrals; ``quantile``, ``upper_quantile``, ``level_set``
    and (unless a kind sums its own) ``upper_tail`` follow.  A mixture
    answers both inverses itself, by level tables or by bisection."""

    #: True when the CDF has an absolutely continuous non-linear part (a
    #: Gaussian component), which makes F strictly increasing, so its two
    #: generalized inverses are one.  Drives sup-distance refinement.
    has_smooth_part = False

    #: True when the CDF has linear pieces with positive slope.
    has_sloped_part = False

    # -- CDF surface ----------------------------------------------------

    def cdf(self, y):
        """Right-continuous CDF, scalar or elementwise on arrays."""
        raise NotImplementedError

    def cdf_left(self, y):
        """Left limit ``lim_{z -> y-} F(z)``."""
        raise NotImplementedError

    def quantile(self, alpha: float) -> float:
        """Generalized inverse ``inf{y | F(y) >= alpha}`` for alpha in (0,1)."""
        _check_alpha(alpha)
        return self._quantile(alpha)

    def upper_quantile(self, c: float) -> float:
        """``inf{y | F(y) > c}``: the right edge of the level-c stretch."""
        if c >= 1.0:
            return math.inf
        if c < 0.0:
            return -math.inf
        return self._inverse(c, True)

    def _quantile(self, alpha: float) -> float:
        return self._inverse(alpha, False)

    def _inverse(self, c: float, strict: bool) -> float:
        """``inf{y | F(y) >= c}``, or ``inf{y | F(y) > c}`` when strict, for
        c in [0, 1): a kind's one generalized inverse."""
        raise NotImplementedError

    # -- sampling --------------------------------------------------------

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n i.i.d. draws; deterministic given the generator state.

        Two contracts, kept by every kind but ``MixtureDistribution``,
        which draws all its labels first:

        - prefix-stable: the first m of n draws are the m draws from the
          same state.  ``simulate``'s shorter horizons, cut from the longest
          run, and the shorter horizons of ``checks.dkw_grid_check``'s pass
          rest on it.
        - block-invariant: draws of m then of n - m are the n draws from
          the same state.  The closed loop's block refills and the blocks
          of ``checks.dkw_grid_check``'s pass rest on it.  ``EmpiricalDistribution``
          keeps it because the default generator (PCG64) holds the spare
          half of a 64-bit word, which its bounded integers use, in its own
          state.
        """
        if n < 1:
            raise DomainError(f"sample size must be >= 1, got {n}")
        return self._sample(rng, n)

    def _sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError

    # -- exact integrals ---------------------------------------------------

    def mean(self) -> float:
        raise NotImplementedError

    def second_moment(self) -> float:
        raise NotImplementedError

    def below_target_semivariance(self, r: float) -> float:
        """``int (x-r)^2 1{x <= r} dF`` (non-negative)."""
        raise NotImplementedError

    def exp_moment(self, theta: float) -> float:
        """``int exp(-theta x) dF`` for theta > 0."""
        raise NotImplementedError

    def lower_tail(self) -> float:
        """Signed ``int_{-inf}^0 x dF`` (typically <= 0)."""
        raise NotImplementedError

    def upper_tail(self) -> float:
        """Signed ``int_0^inf x dF`` (>= 0): the mean less the lower tail."""
        return self.mean() - self.lower_tail()

    def cdf_integral_below(self, v: float) -> float:
        """``int_{-inf}^v F(y) dy`` (finite whenever the lower tail is)."""
        raise NotImplementedError

    # -- structure used by norms / checks ---------------------------------

    def breakpoints(self) -> np.ndarray:
        """Jump and kink locations of the CDF (sorted)."""
        raise NotImplementedError

    def smooth_probe_points(self) -> np.ndarray:
        """Extra evaluation candidates bracketing smooth-part extrema."""
        return np.array([])

    def support_bounds(self) -> tuple[float, float]:
        """An interval carrying all but ~1e-12 of the mass."""
        raise NotImplementedError

    def level_set(self, alpha: float):
        """Classify ``{y | F(y) = alpha}`` as ('empty'|'point'|'interval', lo, hi).

        The set runs from ``quantile(alpha)`` to ``upper_quantile(alpha)``
        (one point with a smooth part, which makes F strictly increasing) and
        is empty unless F or its left limit meets alpha at its start.  Levels within
        1e-12 of alpha count as alpha, so a flat stretch that rounding moved
        off alpha (0.5 * 0.2 + 0.5 * 0.4 is not 0.3) joins the set.  It is an
        interval when wider than 1e-12, else the point at its start.
        """
        _check_alpha(alpha)
        lo = hi = self._quantile(alpha)
        levels = []
        if not self.has_smooth_part:
            hi = self.upper_quantile(alpha)
            # a flat stretch starts at a breakpoint, at the level F takes there
            levels = self.cdf(self.breakpoints()).tolist()
        met = min(abs(self.cdf(lo) - alpha), abs(self.cdf_left(lo) - alpha)) <= 1e-12
        for c in {c for c in levels if c != alpha and 0.0 < c < 1.0 and abs(c - alpha) <= 1e-12}:
            start, end = self._quantile(c), self.upper_quantile(c)
            if end - start > 1e-12:
                lo, hi, met = min(lo, start), max(hi, end), True
        if not met:
            return ("empty", math.nan, math.nan)
        if hi - lo > 1e-12:
            return ("interval", float(lo), float(hi))
        return ("point", float(lo), float(lo))


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"percentile level must lie in (0,1), got {alpha}")


# ---------------------------------------------------------------------------
# Analytic kinds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Gaussian(RewardDistribution):
    mean_value: float
    stddev: float

    has_smooth_part = True

    def __post_init__(self):
        if not (math.isfinite(self.mean_value) and math.isfinite(self.stddev)):
            raise DomainError(
                f"gaussian mean and stddev must be finite, got {self.mean_value}, {self.stddev}"
            )
        if self.stddev <= 0:
            raise DomainError(f"stddev must be positive, got {self.stddev}")
        # the first Gaussian loads scipy.special: with the config, not in a
        # command; every Gaussian, unpickled ones too, passes through here
        with _special_lock:
            _special.ndtr

    def __reduce__(self):
        # unpickling constructs, so __post_init__ loads scipy.special
        return Gaussian, (self.mean_value, self.stddev)

    def cdf(self, y):
        # standardised in place: one temporary the size of y
        z = np.asarray(y, dtype=float) - self.mean_value
        z /= self.stddev
        return _special.ndtr(z, out=z) if z.ndim else _special.ndtr(z)

    def cdf_left(self, y):
        return self.cdf(y)

    def _inverse(self, c, strict):
        # F is strictly increasing, so both inverses are one; ndtri(0) is -inf
        return self.mean_value + self.stddev * float(_special.ndtri(c))

    def _sample(self, rng, n):
        return rng.normal(self.mean_value, self.stddev, size=n)

    def mean(self):
        return self.mean_value

    def second_moment(self):
        return self.mean_value**2 + self.stddev**2

    def below_target_semivariance(self, r):
        beta = (r - self.mean_value) / self.stddev
        phi = float(_norm_pdf(beta))
        Phi = float(_special.ndtr(beta))
        s = self.stddev
        return s * s * (Phi - beta * phi) + 2 * s * (r - self.mean_value) * phi + (
            r - self.mean_value
        ) ** 2 * Phi

    def exp_moment(self, theta):
        return _exp(-theta * self.mean_value + 0.5 * theta**2 * self.stddev**2)

    def _partial_mean(self, c):
        # int_{-inf}^c x dF
        beta = (c - self.mean_value) / self.stddev
        return self.mean_value * float(_special.ndtr(beta)) - self.stddev * float(_norm_pdf(beta))

    def lower_tail(self):
        return self._partial_mean(0.0)

    def cdf_integral_below(self, v):
        beta = (v - self.mean_value) / self.stddev
        return self.stddev * (beta * float(_special.ndtr(beta)) + float(_norm_pdf(beta)))

    def breakpoints(self):
        return np.array([])

    def smooth_probe_points(self):
        return self.mean_value + self.stddev * _PROBE_STEPS

    def support_bounds(self):
        return (self.mean_value - 9 * self.stddev, self.mean_value + 9 * self.stddev)


class PiecewiseLinearCDF(RewardDistribution):
    """CDF made of jumps, flat stretches, and sloped linear segments.

    Knots are stored as strictly increasing locations ``ys`` with the left
    limit ``fl[k]`` and the right-continuous value ``fr[k]`` at each knot;
    a jump at ``ys[k]`` is encoded by ``fl[k] < fr[k]``.  Between knots the
    CDF interpolates linearly from ``fr[k]`` to ``fl[k+1]``; it is 0 before
    the first knot and 1 from the last one on.
    """

    def __init__(self, ys, fl, fr):
        ys = np.asarray(ys, dtype=float)
        fl = np.asarray(fl, dtype=float)
        fr = np.asarray(fr, dtype=float)
        if ys.ndim != 1 or len(ys) < 1 or len(fl) != len(ys) or len(fr) != len(ys):
            raise DomainError("piecewise CDF needs matching non-empty knot arrays")
        if not (np.all(np.isfinite(ys)) and np.all(np.isfinite(fl)) and np.all(np.isfinite(fr))):
            raise DomainError(f"piecewise CDF knots must be finite, got locations {ys}")
        if np.any(np.diff(ys) <= 0):
            raise DomainError("piecewise knot locations must be strictly increasing")
        interleaved = np.column_stack([fl, fr]).ravel()
        if np.any(np.diff(interleaved) < -1e-12):
            raise DomainError("piecewise CDF values must be non-decreasing")
        if abs(fl[0]) > 1e-12 or abs(fr[-1] - 1.0) > 1e-12:
            raise DomainError("piecewise CDF must start at 0 and end at 1")
        self.ys = ys
        self.fl = np.minimum(np.maximum(fl, 0.0), 1.0)
        self.fr = np.minimum(np.maximum(fr, 0.0), 1.0)
        self.fl[0] = 0.0
        self.fr[-1] = 1.0
        # the np.interp table lists each knot twice, as (left limit, value):
        # interp then returns the value at a knot and the segment line between
        self._interp_ys = np.repeat(self.ys, 2)
        self._interp_fs = np.column_stack([self.fl, self.fr]).ravel()
        # interp's rounded slope can overshoot a segment's end value by an ulp
        # in the last floats before the knot.  A left-limit entry only sets
        # the slope (interp returns the value entry at the knot itself), and
        # interp rises along a segment, so lower it an ulp at a time until the
        # last float before the knot stays at or below the left limit.
        seg = np.flatnonzero(self.fl[1:] > self.fr[:-1])
        last = np.nextafter(self.ys[seg + 1], -np.inf)
        while True:
            over = np.interp(last, self._interp_ys, self._interp_fs) > self.fl[seg + 1]
            if not over.any():
                break
            end = 2 * seg[over] + 2
            self._interp_fs[end] = np.nextafter(self._interp_fs[end], -np.inf)
        for a in (self.ys, self.fl, self.fr, self._interp_ys, self._interp_fs):
            a.setflags(write=False)
        self.has_sloped_part = bool(seg.size)

    @classmethod
    def from_pairs(cls, pairs):
        """Build from (y, F(y)) pairs, linearly interpolated in between.

        A repeated y encodes a jump: ``(1, 0.0), (1, 0.1)`` jumps from 0 to
        0.1 at y=1.  The first pair must carry the left limit of the first
        knot, so a CDF jumping at its left edge starts with ``(y0, 0.0)``.
        """
        if not pairs:
            raise DomainError("piecewise CDF needs at least one knot")
        ys, fl, fr = [], [], []
        for y, f in pairs:
            y = float(y)
            f = float(f)
            if ys and y == ys[-1]:
                fr[-1] = f
            else:
                ys.append(y)
                fl.append(f)
                fr.append(f)
        return cls(np.array(ys), np.array(fl), np.array(fr))

    # CDF evaluation: vectorized over y.
    def cdf(self, y):
        out = np.interp(y, self._interp_ys, self._interp_fs)
        return out if out.ndim else float(out)

    def cdf_left(self, y):
        # cdf with the knot entries replaced by their left limits, so it
        # equals cdf exactly away from the knots
        y = np.asarray(y, dtype=float)
        k = np.minimum(np.searchsorted(self.ys, y), len(self.ys) - 1)
        out = np.where(self.ys[k] == y, self.fl[k], self.cdf(y))
        return out if out.ndim else float(out)

    def _inverse(self, c, strict):
        return _table_inverse(self.ys, self.fl, self.fr, c, strict)

    @functools.cached_property
    def _segment_table(self):
        """Per knot k, the segment from knot k-1 to k: start level, rise (1.0
        where it does not rise), start location, run, and end level (NaN at
        k = 0, which no level lies below).  Built on the first draw and
        pickled with the arm, so only tables that sample build it."""
        f0 = np.r_[0.0, self.fr[:-1]]
        rise = self.fl - f0
        rise[rise <= 0.0] = 1.0
        y0 = np.r_[self.ys[0], self.ys[:-1]]
        return f0, rise, y0, self.ys - y0, np.r_[np.nan, self.fl[1:]]

    @functools.cached_property
    def _guide(self):
        """Level guide over the ``_GUIDE_BUCKETS`` equal buckets of [0, 1):
        slot b holds the count of ``fr`` below ``b / _GUIDE_BUCKETS`` (exact,
        as the bucket edges are dyadic), or -1 where the bucket holds an
        ``fr`` value.  Built on the first draw and pickled with the arm
        (2 KB), so only tables that sample build it."""
        below = np.searchsorted(self.fr, np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS)
        guide = below[:-1].copy()
        guide[below[1:] > below[:-1]] = -1
        return guide

    def _quantile_block(self, u, out):
        """Write the quantiles of the 1-d levels ``u``, which lie in [0, 1),
        into ``out``.

        Each level's knot k has fr[k-1] < u <= fr[k], as in ``_inverse``:
        the guide gives it, and ``searchsorted`` finds it for the levels in
        the guide's -1 slots.  ``out`` holds the bucket index first, then the
        interpolated value, computed by the operations of the masked gather
        in its order, so every level keeps its bits."""
        f0, rise, y0, run, top = self._segment_table
        # u * 2^8 is exact and not negative, so truncation is its floor
        np.multiply(u, _GUIDE_BUCKETS, out=out)
        k = self._guide.take(out.astype(np.intp))
        searched = k < 0
        if searched.any():
            k[searched] = np.searchsorted(self.fr, u[searched])
        # interpolate where fr[k-1] < u < fl[k]; there the rise is positive.
        # A subnormal rise can overflow in the lanes the mask below discards.
        with np.errstate(over="ignore"):
            np.subtract(u, f0.take(k), out=out)
            np.divide(out, rise.take(k), out=out)
            np.multiply(out, run.take(k), out=out)
            np.add(y0.take(k), out, out=out)
        # the knot itself where not (top > u): at the segment's end value, in
        # the knot's jump and at k = 0
        np.copyto(out, self.ys.take(k), where=~(top.take(k) > u))

    def _sample(self, rng, n):
        # each block's levels go into one reused buffer; drawn block by block,
        # the generator gives the same stream as one rng.random(n) call
        out = np.empty(n)
        levels = np.empty(min(n, _BLOCK))
        for s in range(0, n, _BLOCK):
            block = levels[: n - s]
            rng.random(out=block)
            self._quantile_block(block, out[s : s + _BLOCK])
        return out

    # exact segment/jump integrals ---------------------------------------
    # Each sloped segment contributes its mass times the average of the
    # integrand over it, e.g. m (a+b)/2 for x and m (a^2+ab+b^2)/3 for x^2:
    # no difference of large powers, so no cancellation far from 0.

    def _jump_masses(self):
        return self.fr - self.fl

    def _segments_below(self, c):
        """(a, b, mass) of the sloped pieces cut to (-inf, c], with mass > 0."""
        a = self.ys[:-1]
        b = self.ys[1:]
        m = self.fl[1:] - self.fr[:-1]
        bb = np.minimum(b, c)
        keep = (m > 0) & (a < bb)
        a, b, bb, m = a[keep], b[keep], bb[keep], m[keep]
        return a, bb, m * ((bb - a) / (b - a))

    @functools.cached_property
    def _fixed_integrals(self):
        """(mean, second moment, lower tail), computed once: every mixture
        of this table asks for them again."""
        a, b, m = self._segments_below(math.inf)
        second = float(np.dot(self.ys**2, self._jump_masses()))
        second += float(np.sum(m * (a * a + a * b + b * b) / 3.0))
        return self._partial_mean(math.inf), second, self._partial_mean(0.0)

    def mean(self):
        return self._fixed_integrals[0]

    def second_moment(self):
        return self._fixed_integrals[1]

    def below_target_semivariance(self, r):
        sel = self.ys <= r
        out = float(np.dot((self.ys[sel] - r) ** 2, self._jump_masses()[sel]))
        a, b, m = self._segments_below(r)
        u, v = a - r, b - r
        return out + float(np.sum(m * (u * u + u * v + v * v) / 3.0))

    def exp_moment(self, theta):
        out = float(np.dot(np.exp(-theta * self.ys), self._jump_masses()))
        a, b, m = self._segments_below(math.inf)
        h = theta * (b - a)
        return out + float(np.sum(m * np.exp(-theta * a) * -np.expm1(-h) / h))

    def _partial_mean(self, c):
        """``int_{-inf}^c x dF``."""
        sel = self.ys <= c
        out = float(np.dot(self.ys[sel], self._jump_masses()[sel]))
        a, b, m = self._segments_below(c)
        return out + float(np.sum(m * (a + b) / 2.0))

    def lower_tail(self):
        return self._fixed_integrals[2]

    def cdf_integral_below(self, v):
        if v <= self.ys[0]:
            return 0.0
        out = 0.0
        for k in range(len(self.ys) - 1):
            a, b = self.ys[k], self.ys[k + 1]
            if v <= a:
                break
            hi = min(v, b)
            f_a = self.fr[k]
            f_hi = float(self.cdf(hi)) if hi < b else self.fl[k + 1]
            out += 0.5 * (f_a + f_hi) * (hi - a)
        if v > self.ys[-1]:
            out += v - self.ys[-1]
        return float(out)

    def breakpoints(self):
        return self.ys.copy()

    def support_bounds(self):
        return (float(self.ys[0]), float(self.ys[-1]))

    def __repr__(self):
        return f"PiecewiseLinearCDF({len(self.ys)} knots on [{self.ys[0]}, {self.ys[-1]}])"


def _table_inverse(ys, fl, fr, c, strict):
    """``inf{y | F(y) >= c}``, or ``inf{y | F(y) > c}`` when strict, of the
    knot table ``(ys, fl, fr)``: the first knot whose value reaches c
    (exceeds it when strict); F rises to it along a segment where its left
    limit exceeds c, and a level equal to the segment's end value is met at
    the knot itself."""
    k = int(np.searchsorted(fr, c, side="right" if strict else "left"))
    if k >= len(ys):
        return float(ys[-1])
    if k > 0 and fl[k] > c:
        f0, f1 = fr[k - 1], fl[k]
        t = (c - f0) / (f1 - f0)
        return float(ys[k - 1] + t * (ys[k] - ys[k - 1]))
    return float(ys[k])


# The closed-form kinds are knot tables on the piecewise kernel.  The two
# sampler overrides keep the seeded streams these kinds have always drawn.


class PointMass(PiecewiseLinearCDF):
    """All mass at ``value``."""

    def __init__(self, value):
        self.value = value
        super().__init__([value], [0.0], [1.0])

    def _sample(self, rng, n):
        return np.full(n, float(self.value))  # draws nothing from rng

    def __repr__(self):
        return f"PointMass(value={self.value!r})"


class Uniform(PiecewiseLinearCDF):
    """Uniform on ``[lo, hi]``; the kernel's inverse-CDF sampler draws the
    same values as ``rng.uniform(lo, hi)``."""

    def __init__(self, lo, hi):
        if not lo < hi:
            raise DomainError(f"uniform needs lo < hi, got [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi
        super().__init__([lo, hi], [0.0, 1.0], [0.0, 1.0])

    def __repr__(self):
        return f"Uniform(lo={self.lo!r}, hi={self.hi!r})"


class TwoPoint(PiecewiseLinearCDF):
    """Scaled Bernoulli: value ``hi`` with probability ``p``, else ``lo``."""

    def __init__(self, p, lo, hi):
        if not (0.0 <= p <= 1.0):
            raise DomainError(f"probability must lie in [0,1], got {p}")
        if not lo < hi:
            raise DomainError(f"two-point needs lo < hi, got [{lo}, {hi}]")
        self.p = p
        self.lo = lo
        self.hi = hi
        super().__init__([lo, hi], [0.0, 1.0 - p], [1.0 - p, 1.0])

    def _sample(self, rng, n):
        # u < p -> hi, where the kernel's inverse CDF maps u > 1-p -> hi
        return np.where(rng.random(n) < self.p, float(self.hi), float(self.lo))

    def __repr__(self):
        return f"TwoPoint(p={self.p!r}, lo={self.lo!r}, hi={self.hi!r})"


# ---------------------------------------------------------------------------
# Empirical distribution (step CDF over a sample multiset)
# ---------------------------------------------------------------------------


class EmpiricalDistribution(RewardDistribution):
    """The step CDF that puts mass 1/t on each observed reward."""

    def __init__(self, samples):
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 1 or len(samples) == 0:
            raise DomainError("empirical distribution needs at least one sample")
        if not np.all(np.isfinite(samples)):
            raise DomainError(f"empirical samples must be finite, got {samples}")
        self.samples = np.sort(samples)
        self.samples.setflags(write=False)
        self.t = len(self.samples)

    @classmethod
    def from_sorted(cls, samples: np.ndarray) -> "EmpiricalDistribution":
        """Wrap an already-sorted array without copying or re-sorting.

        The caller promises not to mutate ``samples`` while the wrapper is
        in use (checkpoint scoring of an already-sorted pooled sample).
        """
        out = cls.__new__(cls)
        out.samples = samples
        out.t = len(samples)
        return out

    def cdf(self, y):
        return self._step(y, "right")

    def cdf_left(self, y):
        return self._step(y, "left")

    def _step(self, y, side):
        y = np.asarray(y, dtype=float)
        out = np.searchsorted(self.samples, y, side=side) / self.t
        # searchsorted sorts NaN last, past every sample
        out = np.where(np.isnan(y), np.nan, out)
        return out if out.ndim else float(out)

    def _inverse(self, c, strict):
        # below level 1 the top sample's F of 1 exceeds c: rank t at most
        j = math.floor(c * self.t + 1e-9) + 1 if strict else _quantile_rank(c, self.t)
        return float(self.samples[min(j, self.t) - 1])

    def _sample(self, rng, n):
        return rng.choice(self.samples, size=n, replace=True)

    def mean(self):
        return float(np.mean(self.samples))

    def second_moment(self):
        return float(np.mean(self.samples**2))

    def below_target_semivariance(self, r):
        d = self.samples[self.samples <= r] - r
        return float(np.sum(d * d)) / self.t

    def exp_moment(self, theta):
        return float(np.mean(np.exp(-theta * self.samples)))

    def lower_tail(self):
        return float(np.sum(self.samples[self.samples <= 0])) / self.t

    def upper_tail(self):
        return float(np.sum(self.samples[self.samples > 0])) / self.t

    def cdf_integral_below(self, v):
        m = int(np.searchsorted(self.samples, v, side="right"))
        if m == 0:
            return 0.0
        return (v * m - float(np.sum(self.samples[:m]))) / self.t

    def breakpoints(self):
        return np.unique(self.samples)

    def support_bounds(self):
        return (float(self.samples[0]), float(self.samples[-1]))

    def __repr__(self):
        return f"EmpiricalDistribution(t={self.t})"


def _quantile_rank(alpha: float, t: int) -> int:
    """1-based rank of the order statistic that is the alpha-quantile of t samples."""
    return min(max(1, math.ceil(alpha * t - 1e-9)), t)


# ---------------------------------------------------------------------------
# Mixtures
# ---------------------------------------------------------------------------


class MixtureDistribution(RewardDistribution):
    """Convex combination ``F_p = sum_i p_i F_i`` of component distributions.

    A zero weight adds nothing to ``F_p``, so the mixture is shaped by its
    parts: the ``(p_i, F_i)`` pairs with ``p_i > 0``, in component order,
    listed once on construction.  Every method but the sampler, which draws
    over all ``components``, reads the parts.  The CDF takes each part's
    own ``cdf`` (or ``cdf_left``) and sums ``p_i F_i(y)`` in part order; a
    nested mixture is one such part.  A CDF call at ``n`` points holds a
    few ``n``-float rows.  Moments and tail integrals are the weighted sums
    of the parts' own exact values.

    Many mixtures over the same components solve as rows of one weight
    matrix (``_rows``): the same CDF, each component's ``cdf`` taken once
    over the points of every row, with a weight per row (or per point).  A
    zero weight adds an exact +0.0 to a finite CDF value, so a row over all
    components is its mixture's parts, bit for bit.  Each mixture solves
    from its own one-row stack (``_alone``) until ``stack`` joins it to
    others; the joined mixtures solve a level together, the first time one
    of them needs it.  A stack solves a level by sets of rows that answer
    it alike (``_sets``), each set for all its rows at once (``_inverses``).  A
    row with a Gaussian part has a strictly increasing F, and its one
    inverse is bisected, every such row in lockstep (``_bisect_rows``).
    Every other row is a knot table: the union of its parts' knots, with
    the left limit and value ``sum_i p_i F_i`` at each, read by the knot
    table's rule (``_table_inverse``).  Rows with the same parts share
    their knots, so each such set is tabulated at once (``_knot_tables``),
    a block of knots at a time, with no ``PiecewiseLinearCDF`` per
    mixture.  A level only one mixture asks for (``upper_quantile``) is a
    one-row question, and a lone knot-table part, of weight exactly 1,
    answers with its own table.  A stack also takes each component's
    moments once for all its rows (``_weighted``).
    """

    def __init__(self, components, weights):
        weights = np.asarray(weights, dtype=float)
        if len(components) != len(weights) or len(components) == 0:
            raise DomainError("mixture needs matching non-empty components/weights")
        if not (weights >= -_WEIGHT_TOL).all():  # NaN fails this too
            raise DomainError(f"mixture weights must be non-negative, got {weights}")
        total = float(weights.sum())
        if abs(total - 1.0) > 1e-9:
            raise DomainError(f"mixture weights must sum to 1, got {total}")
        self.components = tuple(components)
        w = np.maximum(weights, 0.0) / total
        top = int(w.argmax())  # absorb rounding so the sum is exactly 1
        w[top] = 1.0 - (float(w.sum()) - w[top])
        self.weights = w
        self.weights.setflags(write=False)
        self._parts = [(p, c) for p, c in zip(w, self.components) if p > 0]
        self.has_smooth_part = any(c.has_smooth_part for _, c in self._parts)
        self.has_sloped_part = any(c.has_sloped_part for _, c in self._parts)
        part = self._parts[0][1]
        # a lone knot-table part, of weight exactly 1, is its own table
        self._own = part if len(self._parts) == 1 and isinstance(part, PiecewiseLinearCDF) else None

    @functools.cached_property
    def _alone(self):  # its own one-row stack, for the levels it alone asks too
        return self._rows(self.components, self.weights[None])

    @functools.cached_property
    def _stack(self):  # (rows, r): row r solves its quantiles; ``stack`` sets it
        return self._alone, 0

    @classmethod
    def _rows(cls, components, weights):
        """Mixtures over ``components`` as one: ``weights[..., i]`` weighs
        component i, already normalised, and broadcasts against the points,
        so row r of ``cdf(y)`` is row r's CDF at ``y[r]``; a component that
        no row weighs is left out.  It answers the CDF and the solvers only."""
        rows = cls.__new__(cls)
        rows.components = tuple(components)
        rows.weights = weights
        rows._parts = [(weights[..., i], c) for i, c in enumerate(rows.components)
                       if weights[..., i].any()]
        rows._solved = {}  # level -> each row's quantile
        rows._moments = {}  # (method, *args) -> each weighed component's value
        return rows

    @classmethod
    def stack(cls, dists):
        """Join the mixtures among ``dists``, all over the same components,
        ``_STACK_ROWS`` at a time, so that each level's quantile is solved
        for all rows of a stack at once, when one of them first needs it."""
        mixtures = [d for d in dists if isinstance(d, cls)]
        for start in range(0, len(mixtures), _STACK_ROWS):
            part = mixtures[start : start + _STACK_ROWS]
            components = part[0].components
            if any(m.components != components for m in part):
                raise DomainError("stacked mixtures need the same components")
            rows = cls._rows(components, np.stack([m.weights for m in part]))
            for r, m in enumerate(part):
                m._stack = (rows, r)

    def _evaluate(self, y, left):
        y = np.asarray(y, dtype=float)
        flat = y.reshape(-1)
        # the weighted part rows, summed in part order
        rows = (
            (w, (c.cdf_left(flat) if left else c.cdf(flat)).reshape(y.shape))
            for w, c in self._parts
        )
        w, row = next(rows)
        out = w * row
        for w, row in rows:
            out += w * row
        return out if out.ndim else float(out)

    def cdf(self, y):
        return self._evaluate(y, False)

    def cdf_left(self, y):
        return self._evaluate(y, True)

    def _bisect_rows(self, target, lo, hi):
        """``inf{y | F(y) >= target}`` of every row at once, by plain
        bisection from each row's F(lo) below the target and F(hi) at or
        above it: each step decides the midpoint ``0.5 * (lo + hi)`` of
        every row still open, from one CDF call over those rows.  Exact to
        float resolution, jumps included.  A row closes when its midpoint
        is not strictly inside its bracket, or after 200 steps, and answers
        its ``hi``."""
        out = hi.copy()
        live = np.arange(len(hi))
        rows = self
        # -inf + inf is a NaN mid, and an infinite end closes its row at once
        with np.errstate(invalid="ignore"):
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                inside = (lo < mid) & (mid < hi)  # a NaN mid decides nothing
                if not inside.all():
                    out[live[~inside]] = hi[~inside]
                    live, lo, hi, mid = live[inside], lo[inside], hi[inside], mid[inside]
                    if not len(live):
                        return out
                    rows = self._rows(self.components, self.weights[live])
                up = rows.cdf(mid) >= target
                hi = np.where(up, mid, hi)
                lo = np.where(up, lo, mid)
        out[live] = hi
        return out

    def _solve(self, level):
        """Each row's quantile at ``level``, bracketed by its parts' own: the
        mixture's lies between their least and greatest.  The least moves
        down, so F starts below the level; F at the greatest reaches it."""
        qs = np.array([c.quantile(level) for c in self.components])
        held = self.weights > 0
        lo = np.where(held, qs, np.inf).min(axis=1)
        lo -= np.maximum(1e-9, 1e-12 * np.abs(lo))
        hi = np.where(held, qs, -np.inf).max(axis=1)
        return self._bisect_rows(level, lo, hi)

    @functools.cached_property
    def _sets(self):
        """Each row's set and its index there: the sets of rows that answer
        a level alike, each a stack of its own that solves a level for its
        rows alone.  The rows with a smooth part form one set, bisected in
        lockstep; the others form a set per set of positive-weight parts,
        since a row's knots are its own parts' knots."""
        held = self.weights > 0
        smooth = held[:, [c.has_smooth_part for c in self.components]].any(axis=1)
        group = np.zeros(len(held), dtype=np.intp)
        if not smooth.all():
            keys = np.column_stack([smooth, held | smooth[:, None]])
            group = np.unique(keys, axis=0, return_inverse=True)[1]
        if not group.any():  # one set: the stack itself
            return [(self, r) for r in range(len(held))]
        sets = [None] * len(held)
        for g in range(group.max() + 1):
            rows = np.flatnonzero(group == g)
            part = self._rows(self.components, self.weights[rows])
            for i, r in enumerate(rows.tolist()):
                sets[r] = (part, i)
        return sets

    def _inverses(self, c, strict):
        """Each row's ``inf{y | F(y) >= c}``, or ``inf{y | F(y) > c}`` when
        strict, on a stack whose rows all have a smooth part, or all the
        same parts.  With a smooth part F rises strictly, so both are one,
        bisected in lockstep (c in (0, 1)).  Otherwise the rows' knot
        tables answer (c in [0, 1)), kept for every level while they fit in
        one block, else rebuilt a block of knots at a time at each level."""
        if any(p.has_smooth_part for _, p in self._parts):
            return self._solve(c)
        tables = self._tables if isinstance(self._tables, list) else self._tables()
        return _knot_table_inverse(tables, len(self.weights), c, strict)

    @functools.cached_property
    def _tables(self):  # the blocks while they fit in one, else their builder
        held = self.weights[0] > 0
        parts = [p for p, h in zip(self.components, held) if h]
        knots = np.unique(np.concatenate([p.breakpoints() for p in parts]))
        tables = functools.partial(_knot_tables, parts, self.weights[:, held], knots)
        return list(tables()) if len(self.weights) * len(knots) <= _TABLE_FLOATS else tables

    def _quantile(self, alpha):
        if self._own is not None:
            return self._own._quantile(alpha)
        rows, r = self._stack
        rows, r = rows._sets[r]
        if alpha not in rows._solved:
            rows._solved[alpha] = rows._inverses(alpha, False).tolist()
        return rows._solved[alpha][r]

    def upper_quantile(self, c):
        if self._own is not None:
            return self._own.upper_quantile(c)
        if c >= 1.0:
            return math.inf
        if c < 0.0 or (c == 0.0 and self.has_smooth_part):
            return -math.inf  # a Gaussian part puts mass below every y
        # a level of this mixture's own (Bad2 asks each mixture its own flat
        # edge), so one row's question: its row alone, whose table then
        # answers its next own level too
        return float(self._alone._inverses(c, True)[0])

    def _sample(self, rng, n):
        idx = rng.choice(len(self.components), size=n, p=self.weights)
        out = np.empty(n, dtype=float)
        for k, c in enumerate(self.components):
            sel = idx == k
            cnt = int(np.sum(sel))
            if cnt:
                out[sel] = c.sample(rng, cnt)
        return out

    def _weighted(self, name, *args):
        """``sum_i p_i m_i`` over the parts, in part order, of each part's own
        ``m_i = name(*args)``: its stack takes each weighed component's value
        once for all its rows."""
        rows = self._stack[0]
        key = (name, *args)
        if key not in rows._moments:
            weighed = rows.weights.any(axis=0)
            rows._moments[key] = [getattr(c, name)(*args) if h else None
                                  for c, h in zip(rows.components, weighed)]
        values = rows._moments[key]
        return float(sum(w * m for w, m in zip(self.weights, values) if w > 0))

    def mean(self):
        return self._weighted("mean")

    def second_moment(self):
        return self._weighted("second_moment")

    def below_target_semivariance(self, r):
        return self._weighted("below_target_semivariance", r)

    def exp_moment(self, theta):
        return self._weighted("exp_moment", theta)

    def lower_tail(self):
        return self._weighted("lower_tail")

    def upper_tail(self):
        return self._weighted("upper_tail")

    def cdf_integral_below(self, v):
        # v is each row's own quantile, so a stack has nothing to share
        return float(sum(w * c.cdf_integral_below(v) for w, c in self._parts))

    def breakpoints(self):
        return np.unique(np.concatenate([c.breakpoints() for _, c in self._parts]))

    def smooth_probe_points(self):
        return np.unique(np.concatenate([c.smooth_probe_points() for _, c in self._parts]))

    def support_bounds(self):
        bounds = [c.support_bounds() for _, c in self._parts]
        return (min(b[0] for b in bounds), max(b[1] for b in bounds))

    def __repr__(self):
        if self.weights.ndim > 1:  # a stack
            rows, k = len(self.weights), len(self.components)
            return f"MixtureDistribution(rows={rows}, components={k})"
        w = ", ".join(f"{x:.4g}" for x in self.weights)
        return f"MixtureDistribution(weights=[{w}])"


def _knot_tables(parts, weights, knots):
    """The knot table of each row of ``weights`` over the knot-table
    ``parts``, ``knots`` the union of theirs, in blocks ``(y, fl, fr)`` of
    ``_TABLE_FLOATS // len(weights)`` knots (one at least) a block.

    A row's table has the left limit ``fl`` and the value ``fr`` of ``sum_i
    w_i F_i`` at each knot ``y``, summed in part order as
    ``MixtureDistribution.cdf`` sums and clamped as ``PiecewiseLinearCDF``
    clamps, so each row is its mixture's own table, bit for bit.  Each
    part's ``cdf`` and ``cdf_left`` is taken once per block for all rows.
    A block after the first is led by the knot before it, where the
    segment into its first knot starts."""
    step = max(1, _TABLE_FLOATS // len(weights))
    for s in range(0, len(knots), step):
        y = knots[max(s - 1, 0) : s + step]
        w = weights[:, :1]
        fl, fr = w * parts[0].cdf_left(y), w * parts[0].cdf(y)
        for i in range(1, len(parts)):
            w = weights[:, i : i + 1]
            fl += w * parts[i].cdf_left(y)
            fr += w * parts[i].cdf(y)
        for f in (fl, fr):
            np.minimum(np.maximum(f, 0.0, out=f), 1.0, out=f)
        if s == 0:
            fl[:, 0] = 0.0
        if s + step >= len(knots):
            fr[:, -1] = 1.0
        yield y, fl, fr


def _knot_table_inverse(blocks, n, c, strict):
    """``_table_inverse`` of each of the ``n`` rows of the ``_knot_tables``
    blocks, for c in [0, 1): the first knot whose value reaches c (exceeds
    it when strict), which the last knot's value 1 does.  A row's values
    rise along it, so that knot is the count of those below c (at or below
    when strict), and a row still open at a block is below c at its
    leading knot.  The blocks after the one where the last row closes are
    never built.  One row's whole table is read as a knot table reads its
    own."""
    if n == 1 and isinstance(blocks, list):
        ((y, fl, fr),) = blocks
        return np.array([_table_inverse(y, fl[0], fr[0], c, strict)])
    out = np.empty(n)
    open_ = np.ones(n, dtype=bool)
    for y, fl, fr in blocks:
        k = np.count_nonzero(fr <= c if strict else fr < c, axis=1)
        r = np.flatnonzero(open_ & (k < len(y)))
        k = k[r]
        f0, f1 = fr[r, k - 1], fl[r, k]
        # F rises into the knot where f1 > c, from f0 < f1; elsewhere the
        # knot answers (at the first knot f1 = 0), and the rise is not used
        t = (c - f0) / np.where(f1 > c, f1 - f0, 1.0)
        out[r] = np.where(f1 > c, y[k - 1] + t * (y[k] - y[k - 1]), y[k])
        open_[r] = False
        if not open_.any():
            break
    return out


def proxy_distribution(arms, pull_counts, horizon: int) -> MixtureDistribution:
    """Mixture of the true arm CDFs weighted by pull fractions."""
    pull_counts = np.asarray(pull_counts)
    if len(pull_counts) != len(arms):
        raise DomainError("one pull count per arm required")
    if np.any(pull_counts < 0):
        raise DomainError("pull counts must be non-negative")
    total = int(np.sum(pull_counts))
    if horizon < 1 or total != int(horizon):
        raise DomainError(
            f"pull counts sum to {total}, expected horizon {horizon}"
        )
    return MixtureDistribution(arms, pull_counts / float(horizon))

