"""Reward distributions: analytic arm models, empirical CDFs, and mixtures.

Every distribution exposes the same small surface: a right-continuous CDF
with first-class left limits, the generalized inverse (quantile), exact
moment/tail integrals, a seeded sampler, and the CDF integral
``int_{-inf}^{v} F(y) dy`` used by the low-tail-average criterion.

All values are immutable after construction; samplers take an explicit
numpy ``Generator``, so instances are safe to share across threads and
processes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

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

# bisection-tree levels a mixture quantile solve evaluates per CDF call
_BISECT_DEPTH = 7

# Density of the standard normal at 0 and friends.
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _norm_pdf(z):
    return _INV_SQRT_2PI * np.exp(-0.5 * np.square(z))


def _exp(y: float) -> float:
    """``math.exp`` that overflows to inf, as ``np.exp`` does."""
    try:
        return math.exp(y)
    except OverflowError:
        return math.inf


class RewardDistribution:
    """Common interface for all reward distribution kinds."""

    #: True when the CDF has an absolutely continuous non-linear part
    #: (currently: a Gaussian component).  Drives sup-distance refinement.
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
        raise NotImplementedError

    def _quantile(self, alpha: float) -> float:
        raise NotImplementedError

    # -- sampling --------------------------------------------------------

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n i.i.d. draws; deterministic given the generator state."""
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
        """Signed ``int_0^inf x dF`` (>= 0)."""
        raise NotImplementedError

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
        """Classify ``{y | F(y) = alpha}`` as ('empty'|'point'|'interval', lo, hi)."""
        _check_alpha(alpha)
        return self._level_set(alpha)

    def _level_set(self, alpha: float):
        raise NotImplementedError


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

    def cdf(self, y):
        return ndtr((np.asarray(y, dtype=float) - self.mean_value) / self.stddev)

    def cdf_left(self, y):
        return self.cdf(y)

    def _quantile(self, alpha):
        return self.mean_value + self.stddev * float(ndtri(alpha))

    def upper_quantile(self, c):
        if c <= 0.0:
            return -math.inf
        if c >= 1.0:
            return math.inf
        return self._quantile(c)

    def _sample(self, rng, n):
        return rng.normal(self.mean_value, self.stddev, size=n)

    def mean(self):
        return self.mean_value

    def second_moment(self):
        return self.mean_value**2 + self.stddev**2

    def below_target_semivariance(self, r):
        beta = (r - self.mean_value) / self.stddev
        phi = float(_norm_pdf(beta))
        Phi = float(ndtr(beta))
        s = self.stddev
        return s * s * (Phi - beta * phi) + 2 * s * (r - self.mean_value) * phi + (
            r - self.mean_value
        ) ** 2 * Phi

    def exp_moment(self, theta):
        return _exp(-theta * self.mean_value + 0.5 * theta**2 * self.stddev**2)

    def _partial_mean(self, c):
        # int_{-inf}^c x dF
        beta = (c - self.mean_value) / self.stddev
        return self.mean_value * float(ndtr(beta)) - self.stddev * float(_norm_pdf(beta))

    def lower_tail(self):
        return self._partial_mean(0.0)

    def upper_tail(self):
        return self.mean_value - self._partial_mean(0.0)

    def cdf_integral_below(self, v):
        beta = (v - self.mean_value) / self.stddev
        return self.stddev * (beta * float(ndtr(beta)) + float(_norm_pdf(beta)))

    def breakpoints(self):
        return np.array([])

    def smooth_probe_points(self):
        return self.mean_value + self.stddev * np.linspace(-8.0, 8.0, 33)

    def support_bounds(self):
        return (self.mean_value - 9 * self.stddev, self.mean_value + 9 * self.stddev)

    def _level_set(self, alpha):
        q = self._quantile(alpha)
        return ("point", q, q)


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

    def _quantile(self, alpha):
        k = int(np.searchsorted(self.fr, alpha, side="left"))
        if k >= len(self.ys):
            return float(self.ys[-1])
        if self.fl[k] >= alpha and k > 0:
            # searchsorted gives fr[k-1] < alpha <= fl[k]: a rising segment
            f0, f1 = self.fr[k - 1], self.fl[k]
            t = (alpha - f0) / (f1 - f0)
            return float(self.ys[k - 1] + t * (self.ys[k] - self.ys[k - 1]))
        return float(self.ys[k])

    def upper_quantile(self, c):
        if c >= 1.0:
            return math.inf
        if c < 0.0:
            return -math.inf
        # first knot whose right-continuous value exceeds c
        k = int(np.searchsorted(self.fr, c, side="right"))
        if k >= len(self.ys):
            return float(self.ys[-1])
        if k > 0 and self.fl[k] > c:
            f0, f1 = self.fr[k - 1], self.fl[k]
            if abs(f0 - c) <= 1e-12:
                return float(self.ys[k - 1])  # rises immediately after the knot
            t = (c - f0) / (f1 - f0)
            return float(self.ys[k - 1] + t * (self.ys[k] - self.ys[k - 1]))
        return float(self.ys[k])

    @functools.cached_property
    def _segment_table(self):
        """Per knot k, the segment from knot k-1 to k: start level, rise (1.0
        where it does not rise), start location, run, and end level (-inf at
        k = 0).  Built on the first draw: merged mixture tables never sample."""
        f0 = np.r_[0.0, self.fr[:-1]]
        rise = self.fl - f0
        rise[rise <= 0.0] = 1.0
        y0 = np.r_[self.ys[0], self.ys[:-1]]
        return f0, rise, y0, self.ys - y0, np.r_[-np.inf, self.fl[1:]]

    def quantile_array(self, u):
        u = np.asarray(u, dtype=float)
        # searchsorted gives fr[k-1] < u <= fr[k], as in _quantile; the clip
        # sends levels above 1 to the last knot, where top < u
        k = np.searchsorted(self.fr, u)
        f0, rise, y0, run, top = self._segment_table

        def at(table):  # gathered inline, so few n-float temporaries live at once
            return table.take(k, mode="clip")

        # interpolate where fr[k-1] < u <= fl[k]; there the rise is positive.
        # A subnormal rise can overflow the lanes np.where discards.
        with np.errstate(over="ignore"):
            val = at(y0) + (u - at(f0)) / at(rise) * at(run)
        return np.where(at(top) >= u, val, at(self.ys))

    def _sample(self, rng, n):
        return self.quantile_array(rng.random(n))

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

    def upper_tail(self):
        return self.mean() - self.lower_tail()

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

    def _level_set(self, alpha):
        hits = []  # list of (lo, hi) closed intervals where F == alpha
        for k in range(len(self.ys)):
            if abs(self.fr[k] - alpha) <= 1e-12:
                hits.append((self.ys[k], self.ys[k]))
            if k + 1 < len(self.ys):
                f0, f1 = self.fr[k], self.fl[k + 1]
                a, b = self.ys[k], self.ys[k + 1]
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
        if hi > lo:
            return ("interval", float(lo), float(hi))
        return ("point", float(lo), float(hi))

    def __repr__(self):
        return f"PiecewiseLinearCDF({len(self.ys)} knots on [{self.ys[0]}, {self.ys[-1]}])"


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

    def _quantile(self, alpha):
        return float(self.samples[_quantile_rank(alpha, self.t) - 1])

    def upper_quantile(self, c):
        if c >= 1.0:
            return math.inf
        if c < 0.0:
            return -math.inf
        j = int(math.floor(c * self.t + 1e-9)) + 1
        if j > self.t:
            return math.inf
        return float(self.samples[j - 1])

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

    def _level_set(self, alpha):
        vals, counts = np.unique(self.samples, return_counts=True)
        cum = np.cumsum(counts) / self.t
        fl = np.concatenate([[0.0], cum[:-1]])
        return PiecewiseLinearCDF(vals, fl, cum)._level_set(alpha)

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

    The CDF takes the Gaussian components in one ``ndtr`` call (a bank of
    their mean and stddev columns), every other component by its own
    ``cdf``, and sums the rows in component order, so the values are those
    of summing ``p_i F_i(y)`` component by component, bit for bit; a nested
    mixture is one such component.  A CDF call at ``n`` points holds the
    Gaussian rows (``n`` floats per Gaussian component) and a few
    ``n``-float rows besides.  The bank is built on the first CDF call, not
    on construction: a proxy mixture is built at every checkpoint and may
    only be sampled.  A mixture of knot tables also merges into one
    ``PiecewiseLinearCDF`` over the union of the knots, which answers its
    quantiles and level sets; with a Gaussian component those are solved by
    block bisection on the CDF.  Moments and tail integrals are the
    weighted sums of the components' own exact values.
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
        self.has_smooth_part = any(c.has_smooth_part for c in components)
        self.has_sloped_part = any(c.has_sloped_part for c in components)
        self._bank = None
        self._merged = None

    def _evaluate(self, y, left):
        if self._bank is None:
            idx = [i for i, c in enumerate(self.components) if isinstance(c, Gaussian)]
            mu = np.array([self.components[i].mean_value for i in idx], dtype=float)
            sd = np.array([self.components[i].stddev for i in idx], dtype=float)
            self._bank = (idx, mu[:, None], sd[:, None])
        idx, mu, sd = self._bank
        y = np.asarray(y, dtype=float)
        flat = y.reshape(-1)
        gauss = dict(zip(idx, ndtr((flat - mu) / sd))) if idx else {}
        rows = [
            gauss[i] if i in gauss else (c.cdf_left(flat) if left else c.cdf(flat))
            for i, c in enumerate(self.components)
        ]
        # a sequential sum in component order, as a loop over the components;
        # a zero weight adds +0.0, which changes no sum
        out = self.weights[0] * rows[0]
        for w, row in zip(self.weights[1:], rows[1:]):
            out += w * row
        out = out.reshape(y.shape)
        return out if out.ndim else float(out)

    def _merged_piecewise(self):
        """The mixture as one knot table, or None with a smooth component."""
        if self._merged is None and not self.has_smooth_part:
            # over every component's knots, zero weights included
            knots = np.unique(np.concatenate([c.breakpoints() for c in self.components]))
            fl = self._evaluate(knots, True)
            self._merged = PiecewiseLinearCDF(knots, fl, self._evaluate(knots, False))
        return self._merged

    def cdf(self, y):
        return self._evaluate(y, False)

    def cdf_left(self, y):
        return self._evaluate(y, True)

    def _bisect_monotone(self, target, strict, lo, hi):
        """inf{y | F(y) >= target} (or > target when strict) by bisection.

        Requires F(lo) below the threshold and F(hi) at-or-above it; exact
        to float resolution, jumps included.  Each round lays out the next
        ``_BISECT_DEPTH`` levels of the bisection tree under (lo, hi), every
        node the midpoint ``0.5 * (lo + hi)`` its path would compute, takes
        the CDF at all of them in one call, and walks them one decision per
        level: the midpoints, decisions and result of one midpoint per call,
        at 200 steps at most.
        """
        n = 1 << _BISECT_DEPTH
        steps = 0
        while True:
            # the tree in sorted order: level by level, each node is the
            # midpoint of its two neighbours of the levels above
            edges = np.empty(n + 1)
            edges[0], edges[n] = lo, hi
            step = n
            while step > 1:
                half = step >> 1
                edges[half::step] = 0.5 * (edges[:-1:step] + edges[step::step])
                step = half
            nodes = edges.tolist()
            values = [math.nan, *self.cdf(edges[1:-1]).tolist()]
            i = half = n >> 1  # the root
            while half:
                mid = nodes[i]
                if mid <= lo or mid >= hi or steps == 200:
                    return hi
                steps += 1
                half >>= 1
                v = values[i]
                if (v > target) if strict else (v >= target):
                    hi = mid
                    i -= half
                else:
                    lo = mid
                    i += half

    def _quantile(self, alpha):
        merged = self._merged_piecewise()
        if merged is not None:
            return merged._quantile(alpha)
        # the mixture quantile is bracketed by the component quantiles
        qs = [c.quantile(alpha) for w, c in zip(self.weights, self.components) if w > 0]
        lo = min(qs)
        lo -= max(1e-9, 1e-12 * abs(lo))
        return self._bisect_monotone(alpha, False, lo, max(qs))

    def upper_quantile(self, c):
        merged = self._merged_piecewise()
        if merged is not None:
            return merged.upper_quantile(c)
        if c >= 1.0:
            return math.inf
        qs = [d.upper_quantile(c) for w, d in zip(self.weights, self.components) if w > 0]
        lo = min(qs)
        lo -= max(1e-9, 1e-12 * abs(lo))
        hi = max(qs)
        hi += max(1e-9, 1e-12 * abs(hi))
        return self._bisect_monotone(c, True, lo, hi)

    def _sample(self, rng, n):
        idx = rng.choice(len(self.components), size=n, p=self.weights)
        out = np.empty(n, dtype=float)
        for k, c in enumerate(self.components):
            sel = idx == k
            cnt = int(np.sum(sel))
            if cnt:
                out[sel] = c.sample(rng, cnt)
        return out

    def _weighted(self, fn):
        return float(sum(w * fn(c) for w, c in zip(self.weights, self.components) if w > 0))

    def mean(self):
        return self._weighted(lambda c: c.mean())

    def second_moment(self):
        return self._weighted(lambda c: c.second_moment())

    def below_target_semivariance(self, r):
        return self._weighted(lambda c: c.below_target_semivariance(r))

    def exp_moment(self, theta):
        return self._weighted(lambda c: c.exp_moment(theta))

    def lower_tail(self):
        return self._weighted(lambda c: c.lower_tail())

    def upper_tail(self):
        return self._weighted(lambda c: c.upper_tail())

    def cdf_integral_below(self, v):
        return self._weighted(lambda c: c.cdf_integral_below(v))

    def breakpoints(self):
        parts = [c.breakpoints() for w, c in zip(self.weights, self.components) if w > 0]
        parts = [p for p in parts if len(p)]
        if not parts:
            return np.array([])
        return np.unique(np.concatenate(parts))

    def smooth_probe_points(self):
        parts = [
            c.smooth_probe_points()
            for w, c in zip(self.weights, self.components)
            if w > 0
        ]
        parts = [p for p in parts if len(p)]
        if not parts:
            return np.array([])
        return np.unique(np.concatenate(parts))

    def support_bounds(self):
        bounds = [c.support_bounds() for w, c in zip(self.weights, self.components) if w > 0]
        return (min(b[0] for b in bounds), max(b[1] for b in bounds))

    def _level_set(self, alpha):
        merged = self._merged_piecewise()
        if merged is not None:
            return merged._level_set(alpha)
        # a Gaussian component makes the mixture CDF strictly increasing
        q = self._quantile(alpha)
        if abs(float(self.cdf(q)) - alpha) <= 1e-12:
            return ("point", q, q)
        return ("empty", math.nan, math.nan)

    def __repr__(self):
        w = ", ".join(f"{x:.4g}" for x in self.weights)
        return f"MixtureDistribution(weights=[{w}])"


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

