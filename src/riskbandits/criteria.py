"""Risk criteria: functionals mapping a distribution to a scalar score.

Each criterion bundles its evaluator with the metadata the learning and
analysis layers need: a convexity class, the linear functionals of the
norm its continuity is measured in (``functionals``), a stability
certificate (the constants ``a, b, q`` of the local modulus
``psi(x) = b(x + x^q)`` plus a concentration rate), and, where available,
a smoothness certificate (``d1, d2, M0``) together with the linear
approximation map that makes residuals computable.

Certificate constants are computed from the configured arm set (extreme
means, norm bounds, quantile bounds); every shipped constant is validated
by the invariant suite in ``checks``.

``accumulator()`` gives a per-arm running summary of a growing sample:
``push(x)`` adds one reward, ``t`` counts them, and the summary answers
exactly the distribution calls the criterion's ``evaluate`` makes, so the
learner scores an arm after each pull without re-reading its sample.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .dist import EmpiricalDistribution, MixtureDistribution, RewardDistribution, _quantile_rank
from .errors import CriterionDomainError, DomainError, UnsupportedOperationError
from .norms import SemiNormFunctional, norm_distance, norm_value, seminorm_value

__all__ = [
    "StabilityCertificate",
    "SmoothnessCertificate",
    "RiskCriterion",
    "MeanCriterion",
    "SecondMomentCriterion",
    "NegTSVCriterion",
    "EntropicCriterion",
    "NegVarianceCriterion",
    "MeanVarianceCriterion",
    "SharpeCriterion",
    "SortinoCriterion",
    "VaRCriterion",
    "CVaRCriterion",
    "Bad1Criterion",
    "Bad2Criterion",
    "build_criterion",
    "default_concentration_rate",
    "check_growth_condition_c4",
    "fit_c4_constants",
]


@dataclass(frozen=True)
class StabilityCertificate:
    """Concentration rate ``a`` and modulus constants ``b, q >= 1``."""

    a: float
    b: float
    q: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.a, self.b, self.q))):
            raise DomainError(
                f"certificate constants must be finite; got a={self.a}, b={self.b}, q={self.q}"
            )
        if self.a <= 0 or self.b <= 0 or self.q < 1:
            raise DomainError(
                f"certificate needs a>0, b>0, q>=1; got a={self.a}, b={self.b}, q={self.q}"
            )

    def modulus(self, x: float) -> float:
        """Local modulus of continuity ``b (x + x^q)`` at x >= 0."""
        if x < 0:
            raise DomainError(f"modulus argument must be >= 0, got {x}")
        return self.b * (x + x**self.q)


@dataclass(frozen=True)
class SmoothnessCertificate:
    """Linear-map bound ``d1``, residual curvature ``d2``, validity radius ``m0``.

    ``m0 = inf`` means the residual bound holds at every distance.
    """

    d1: float
    d2: float
    m0: float

    def __post_init__(self):
        radius_ok = math.isfinite(self.m0) or self.m0 == math.inf
        if not (math.isfinite(self.d1) and math.isfinite(self.d2) and radius_ok):
            raise DomainError(
                "certificate constants must be finite (m0 may be inf); "
                f"got d1={self.d1}, d2={self.d2}, m0={self.m0}"
            )
        if self.d1 < 0 or self.d2 < 0 or self.m0 <= 0:
            raise DomainError(
                f"certificate needs d1,d2>=0, m0>0; got {self.d1}, {self.d2}, {self.m0}"
            )


def default_concentration_rate(m: int) -> float:
    """Sup-norm concentration rate 2 shared across m semi-norm coordinates."""
    return 2.0 * math.log(2.0) / math.log(2.0 * (m + 1))


# Smoothness radii m0, as fractions of the arm set's own scale where one exists.
_ENTROPIC_RADIUS_FRACTION = 0.5  # of the smallest arm exp-moment
_RATIO_RADIUS = 1.0              # Sharpe and Sortino
_CVAR_RADIUS_FRACTION = 0.99     # of the fitted growth radius m_alpha

# The growth-constant fit and the C3-C5 conditions scan the arm mixtures on
# the simplex lattice with denominator _MIXTURE_GRID_N (spacing 0.125).
_MIXTURE_GRID_N = 8
_C4_MAX_DOUBLINGS = 40


def _mean_range(arms) -> tuple[float, float]:
    means = [a.mean() for a in arms]
    return min(means), max(means)


def _abs_mean_bound(arms) -> float:
    lo, hi = _mean_range(arms)
    return max(abs(lo), abs(hi))


def _c_star(arms, functionals: tuple[SemiNormFunctional, ...]) -> float:
    """Max composite norm over the mixture set (attained at a vertex)."""
    return max(norm_value(a, functionals) for a in arms)


class RiskCriterion:
    """Base class; concrete criteria define ``evaluate`` and metadata."""

    tag: str = ""
    convexity: str = "none"  # linear | convex | quasiconvex | none
    # the bound norm's linear functionals; () is the bare sup norm
    functionals: tuple[SemiNormFunctional, ...] = ()

    def evaluate(self, f: RewardDistribution) -> float:
        raise NotImplementedError

    def accumulator(self):
        """Running summary of one arm's rewards that ``evaluate`` accepts."""
        return _SortedSample()

    def domain_flags(self, f: RewardDistribution) -> list[str]:
        """Names of soft admissibility guards the distribution violates."""
        return []

    def stability_certificate(self, arms, a=None, b=None, q=None):
        """Certificate with arm-set defaults; None when no constants exist."""
        base = self._default_stability(arms)
        if base is None and (a is None or b is None or q is None):
            return None
        return StabilityCertificate(
            a if a is not None else base.a,
            b if b is not None else base.b,
            q if q is not None else base.q,
        )

    def _default_stability(self, arms):
        return None

    def smoothness_certificate(self, arms):
        return None

    def linear_map(self, f_ref: RewardDistribution, g: RewardDistribution) -> float:
        """The linear approximation ``A_F(G - F)`` at ``f_ref``."""
        raise UnsupportedOperationError(
            f"criterion {self.tag!r} has no implemented linear approximation"
        )

    def residual(self, g: RewardDistribution, f_ref: RewardDistribution) -> float:
        """``R(G) - R(F) - A_F(G-F)``: the non-linear remainder."""
        return self.evaluate(g) - self.evaluate(f_ref) - self.linear_map(f_ref, g)

    def __repr__(self):
        return f"{type(self).__name__}({self.params_label()})"

    def params_label(self) -> str:
        return ""


# ---------------------------------------------------------------------------
# Running summaries (accumulators)
# ---------------------------------------------------------------------------


def _neumaier_add(total: float, err: float, x: float) -> tuple[float, float]:
    """One step of Neumaier-compensated summation; the sum is ``total + err``."""
    s = total + x
    if abs(total) >= abs(x):
        err += (total - s) + x
    else:
        err += (x - s) + total
    return s, err


class _SortedSample(EmpiricalDistribution):
    """Empirical distribution grown one reward at a time by sorted insert.

    O(t) per push; the summary of criteria without a cheaper one.
    """

    def __init__(self):
        self._data = np.empty(64, dtype=float)
        self.samples = self._data[:0]
        self.t = 0

    def push(self, x: float) -> None:
        n = self.t
        if n == len(self._data):
            grown = np.empty(2 * n, dtype=float)
            grown[:n] = self._data
            self._data = grown
        i = int(np.searchsorted(self._data[:n], x))
        self._data[i + 1 : n + 1] = self._data[i:n]
        self._data[i] = x
        self.t = n + 1
        self.samples = self._data[: n + 1]


class _LowerOrderStatistics:
    """The lowest ``k = ceil(alpha t)`` rewards of a growing sample.

    A max-heap holds them, with their compensated sum; a min-heap holds the
    rest.  O(log t) per push.  Answers the empirical alpha-quantile and the
    CDF integral below it, the two calls the VaR and CVaR criteria make.
    """

    __slots__ = ("alpha", "t", "_low", "_high", "_sum", "_err")

    def __init__(self, alpha: float):
        self.alpha = alpha
        self.t = 0
        self._low = []   # negated lowest k rewards
        self._high = []
        self._sum = 0.0
        self._err = 0.0

    def push(self, x: float) -> None:
        self.t += 1
        k = _quantile_rank(self.alpha, self.t)  # grows by at most one per push
        low = self._low
        if low and x < -low[0]:
            if len(low) == k:  # x displaces the largest of the low part
                y = -heapq.heapreplace(low, -x)
                heapq.heappush(self._high, y)
                self._sum, self._err = _neumaier_add(self._sum, self._err, -y)
            else:
                heapq.heappush(low, -x)
            self._sum, self._err = _neumaier_add(self._sum, self._err, x)
        elif len(low) < k:
            y = heapq.heappushpop(self._high, x)
            heapq.heappush(low, -y)
            self._sum, self._err = _neumaier_add(self._sum, self._err, y)
        else:
            heapq.heappush(self._high, x)

    def quantile(self, alpha: float) -> float:
        if alpha != self.alpha:
            raise UnsupportedOperationError(
                f"running order statistics track level {self.alpha}, not {alpha}"
            )
        return -self._low[0]

    def cdf_integral_below(self, v: float) -> float:
        # rewards tied at the quantile above rank k add v - v = 0
        if v != -self._low[0]:
            raise UnsupportedOperationError(
                "running order statistics integrate up to their quantile only"
            )
        return (v * len(self._low) - (self._sum + self._err)) / self.t


class _RunningSums:
    """Compensated running sums of the linear functionals of a composite
    criterion; each functional's value is its sum over ``t``.  O(1) per push."""

    __slots__ = ("t", "_terms", "_sums")

    def __init__(self, functionals):
        self.t = 0
        integrands = {(fn.kind, fn.param): fn.integrand for fn in functionals}
        self._sums = {key: [0.0, 0.0] for key in integrands}
        self._terms = [(g, key[1], self._sums[key]) for key, g in integrands.items()]

    def push(self, x: float) -> None:
        self.t += 1
        for integrand, param, acc in self._terms:
            acc[0], acc[1] = _neumaier_add(acc[0], acc[1], integrand(x, param))

    def _value(self, kind: str, param: float = 0.0) -> float:
        acc = self._sums.get((kind, param))
        if acc is None:
            raise UnsupportedOperationError(f"running sums do not track {kind}")
        return (acc[0] + acc[1]) / self.t

    def mean(self):
        return self._value("mean")

    def second_moment(self):
        return self._value("second-moment")

    def below_target_semivariance(self, r):
        return self._value("tsv", r)

    def exp_moment(self, theta):
        return self._value("exp-moment", theta)

    def lower_tail(self):
        return self._value("lower-tail")

    def upper_tail(self):
        return self._value("upper-tail")


# ---------------------------------------------------------------------------
# Composites of linear functionals
# ---------------------------------------------------------------------------


class _CompositeCriterion(RiskCriterion):
    """Criterion of the form ``h(B_1(F), ..., B_m(F))`` with smooth h."""

    def coordinates(self, f: RewardDistribution) -> np.ndarray:
        return np.array([seminorm_value(f, fn) for fn in self.functionals])

    def h(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def grad_h(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def evaluate(self, f):
        return self.h(self.coordinates(f))

    def accumulator(self):
        return _RunningSums(self.functionals)

    def linear_map(self, f_ref, g):
        x = self.coordinates(f_ref)
        return float(np.dot(self.grad_h(x), self.coordinates(g) - x))


class _LinearCriterion(_CompositeCriterion):
    """``sign * B(F)`` for one linear functional B; exact everywhere, so the
    residual vanishes at every distance."""

    convexity = "linear"
    sign = 1.0

    def h(self, x):
        return self.sign * float(x[0])

    def grad_h(self, x):
        return np.array([self.sign])

    def _default_stability(self, arms):
        return StabilityCertificate(default_concentration_rate(len(self.functionals)), 0.5, 1.0)

    def smoothness_certificate(self, arms):
        return SmoothnessCertificate(1.0, 0.0, math.inf)


class MeanCriterion(_LinearCriterion):
    tag = "mean"
    functionals = (SemiNormFunctional("mean"),)


class SecondMomentCriterion(_LinearCriterion):
    tag = "second-moment"
    functionals = (SemiNormFunctional("second-moment"),)


class NegTSVCriterion(_LinearCriterion):
    """Negated below-target semivariance around threshold r."""

    tag = "neg-tsv"
    sign = -1.0

    def __init__(self, r: float):
        self.r = float(r)
        self.functionals = (SemiNormFunctional("tsv", self.r),)

    def params_label(self):
        return f"r={self.r:g}"


class EntropicCriterion(_CompositeCriterion):
    """Exponential-utility certainty equivalent with aversion theta > 0.

    Stable on arms with finite exponential moment but carries no polynomial
    modulus: empirical distributions can push the exponential moment
    arbitrarily close to 0, where the log blows up.
    """

    tag = "entropic"
    convexity = "convex"

    def __init__(self, theta: float):
        if theta <= 0:
            raise DomainError(f"entropic aversion must be positive, got {theta}")
        self.theta = float(theta)
        self.functionals = (SemiNormFunctional("exp-moment", self.theta),)

    def params_label(self):
        return f"theta={self.theta:g}"

    def h(self, x):
        v = float(x[0])
        if not (math.isfinite(v) and v > 0):
            raise CriterionDomainError(
                f"entropic criterion needs a finite positive exp-moment, got {v}",
                constraint="exp-moment finite",
            )
        return -math.log(v) / self.theta

    def grad_h(self, x):
        return np.array([-1.0 / (self.theta * float(x[0]))])

    def _e_floor(self, arms) -> float:
        return min(a.exp_moment(self.theta) for a in arms)

    def smoothness_certificate(self, arms):
        e_min = self._e_floor(arms)
        m0 = _ENTROPIC_RADIUS_FRACTION * e_min
        if m0 >= e_min:  # an exp-moment floor of 0 or inf
            raise DomainError("smoothness radius must stay below the exp-moment floor")
        d2 = 1.0 / (self.theta * (e_min - m0) ** 2)
        return SmoothnessCertificate(1.0 / (self.theta * e_min), d2, m0)


class NegVarianceCriterion(_CompositeCriterion):
    tag = "neg-variance"
    convexity = "convex"
    functionals = (
        SemiNormFunctional("mean"),
        SemiNormFunctional("second-moment"),
    )

    def h(self, x):
        return -(float(x[1]) - float(x[0]) ** 2)

    def grad_h(self, x):
        return np.array([2.0 * float(x[0]), -1.0])

    def _default_stability(self, arms):
        b = 1.0 + 2.0 * _abs_mean_bound(arms)
        return StabilityCertificate(default_concentration_rate(len(self.functionals)), b, 2.0)

    def smoothness_certificate(self, arms):
        d1 = 1.0 + 2.0 * _abs_mean_bound(arms)
        return SmoothnessCertificate(d1, 2.0, math.inf)


class MeanVarianceCriterion(_CompositeCriterion):
    """Mean minus rho times variance (variance-penalized average)."""

    tag = "mean-variance"
    convexity = "convex"
    functionals = (
        SemiNormFunctional("mean"),
        SemiNormFunctional("second-moment"),
    )

    def __init__(self, rho: float):
        if rho < 0:
            raise DomainError(f"variance penalty must be >= 0, got {rho}")
        self.rho = float(rho)

    def params_label(self):
        return f"rho={self.rho:g}"

    def h(self, x):
        x1, x2 = float(x[0]), float(x[1])
        return x1 - self.rho * x2 + self.rho * x1**2

    def grad_h(self, x):
        return np.array([1.0 + 2.0 * self.rho * float(x[0]), -self.rho])

    def _default_stability(self, arms):
        lo, hi = _mean_range(arms)
        b = self.rho + max(abs(1.0 + 2.0 * self.rho * hi), abs(1.0 + 2.0 * self.rho * lo))
        return StabilityCertificate(default_concentration_rate(len(self.functionals)), b, 2.0)

    def smoothness_certificate(self, arms):
        return SmoothnessCertificate(self._default_stability(arms).b, 2.0 * self.rho, math.inf)


class _RatioCriterion(_CompositeCriterion):
    """Shared guards for the regularized reward/deviation ratios."""

    def __init__(self, r: float, eps_sigma: float):
        if eps_sigma <= 0:
            raise DomainError(f"ratio regularizer must be positive, got {eps_sigma}")
        self.r = float(r)
        self.eps = float(eps_sigma)

    def params_label(self):
        return f"r={self.r:g}, eps={self.eps:g}"

    def _target_spread(self, arms) -> float:
        lo, hi = _mean_range(arms)
        return max(abs(hi - self.r), abs(lo - self.r))


class SharpeCriterion(_RatioCriterion):
    """Excess mean over regularized standard deviation."""

    tag = "sharpe"
    convexity = "quasiconvex"

    def __init__(self, r: float, eps_sigma: float):
        super().__init__(r, eps_sigma)
        self.functionals = (
            SemiNormFunctional("mean"),
            SemiNormFunctional("second-moment"),
        )

    def h(self, x):
        x1, x2 = float(x[0]), float(x[1])
        denom = self.eps + x2 - x1**2
        if denom <= 0:
            raise CriterionDomainError(
                f"sharpe denominator {denom} <= 0", constraint="x2 >= x1^2"
            )
        return (x1 - self.r) / math.sqrt(denom)

    def grad_h(self, x):
        x1, x2 = float(x[0]), float(x[1])
        s = math.sqrt(self.eps + x2 - x1**2)
        return np.array(
            [1.0 / s + (x1 - self.r) * x1 / s**3, -(x1 - self.r) / (2.0 * s**3)]
        )

    def domain_flags(self, f):
        flags = []
        x1 = f.mean()
        if x1 < self.r:
            flags.append("x1 >= r")
        if f.second_moment() < x1**2 - 1e-12:
            flags.append("x2 >= x1^2")
        return flags

    def _default_stability(self, arms):
        # modulus derived on the feasible half-space {x2 >= x1^2}, where the
        # denominator stays >= sqrt(eps); cubic term comes from the x1^2 part
        amax = _abs_mean_bound(arms)
        spread = self._target_spread(arms)
        e = self.eps
        c1 = 1.0 / math.sqrt(e) + spread * (1.0 + 2.0 * amax) / (2.0 * e**1.5)
        c2 = (1.0 + 2.0 * amax + spread) / (2.0 * e**1.5)
        c3 = 1.0 / (2.0 * e**1.5)
        b = max(c1 + 0.5 * c2, c3 + 0.5 * c2)
        return StabilityCertificate(default_concentration_rate(len(self.functionals)), b, 3.0)

    def smoothness_certificate(self, arms):
        m0 = _RATIO_RADIUS
        amax = _abs_mean_bound(arms)
        spread = self._target_spread(arms)
        e = self.eps
        d1 = 1.0 / math.sqrt(e) + spread * amax / e**1.5 + spread / (2.0 * e**1.5)
        a_m = amax + m0
        r_m = spread + m0
        h11 = (3.0 * a_m + abs(self.r)) / e**1.5 + 3.0 * r_m * a_m**2 / e**2.5
        h12 = 0.5 / e**1.5 + 1.5 * r_m * a_m / e**2.5
        h22 = 0.75 * r_m / e**2.5
        return SmoothnessCertificate(d1, h11 + 2.0 * h12 + h22, m0)


class SortinoCriterion(_RatioCriterion):
    """Excess mean over regularized downside deviation below target r."""

    tag = "sortino"
    convexity = "quasiconvex"

    def __init__(self, r: float, eps_sigma: float):
        super().__init__(r, eps_sigma)
        self.functionals = (
            SemiNormFunctional("mean"),
            SemiNormFunctional("tsv", self.r),
        )

    def h(self, x):
        # x[1] is the (non-negative) below-target semivariance
        return (float(x[0]) - self.r) / math.sqrt(self.eps + float(x[1]))

    def grad_h(self, x):
        s = math.sqrt(self.eps + float(x[1]))
        return np.array([1.0 / s, -(float(x[0]) - self.r) / (2.0 * s**3)])

    def domain_flags(self, f):
        return ["x1 >= r"] if f.mean() < self.r else []

    def _default_stability(self, arms):
        b = max(1.0, 2.0 * self.eps + self._target_spread(arms)) / (2.0 * self.eps**1.5)
        return StabilityCertificate(default_concentration_rate(len(self.functionals)), b, 2.0)

    def smoothness_certificate(self, arms):
        m0 = _RATIO_RADIUS
        e = self.eps
        d2 = abs(self.r) / e**1.5 + 3.0 * (self._target_spread(arms) + m0) / (4.0 * e**2.5)
        return SmoothnessCertificate(self._default_stability(arms).b, d2, m0)


# ---------------------------------------------------------------------------
# Quantile-based criteria
# ---------------------------------------------------------------------------

_TAILS = (SemiNormFunctional("lower-tail"), SemiNormFunctional("upper-tail"))


class _PercentileCriterion(RiskCriterion):
    """A criterion at percentile level alpha, on the tail norm, whose running
    summary is the lower order statistics."""

    functionals = _TAILS

    def __init__(self, alpha: float):
        if not (0.0 < alpha < 1.0):
            raise DomainError(f"percentile level must lie in (0,1), got {alpha}")
        self.alpha = float(alpha)

    def params_label(self):
        return f"alpha={self.alpha:g}"

    def accumulator(self):
        return _LowerOrderStatistics(self.alpha)


class VaRCriterion(_PercentileCriterion):
    """Reward at percentile level alpha (the generalized inverse CDF)."""

    tag = "var"
    convexity = "quasiconvex"

    def evaluate(self, f):
        return f.quantile(self.alpha)

    def stability_certificate(self, arms, a=None, b=None, q=None):
        if b is None:
            fitted = fit_c4_constants(arms, self.alpha)
            if fitted is None:
                return None
            b_alpha, m_alpha = fitted
            c_star = _c_star(arms, self.functionals)
            b = max(
                b_alpha,
                (m_alpha + 2.0 * c_star)
                / (min(self.alpha, 1.0 - self.alpha) * m_alpha),
            )
        return StabilityCertificate(
            a if a is not None else default_concentration_rate(len(self.functionals)),
            b,
            q if q is not None else 1.0,
        )

    # No smoothness certificate: the percentile map has no known linear
    # approximation with a quadratically bounded remainder.


class CVaRCriterion(_PercentileCriterion):
    """Average reward below percentile level alpha."""

    tag = "cvar"
    convexity = "convex"

    def evaluate(self, f):
        v = f.quantile(self.alpha)
        integral = f.cdf_integral_below(v)
        if not math.isfinite(integral):
            raise CriterionDomainError(
                "lower-tail integral diverges", constraint="integrable lower tail"
            )
        return v - integral / self.alpha

    def _default_stability(self, arms):
        c_star = _c_star(arms, self.functionals)
        b = (1.0 / self.alpha) * (
            1.0 + max(1.0, 3.0 * c_star) / min(self.alpha, 1.0 - self.alpha)
        )
        return StabilityCertificate(default_concentration_rate(len(self.functionals)), b, 2.0)

    def smoothness_certificate(self, arms):
        fitted = fit_c4_constants(arms, self.alpha)
        if fitted is None:
            return None
        b_alpha, m_alpha = fitted
        v_star = max(abs(a.quantile(self.alpha)) for a in arms)
        return SmoothnessCertificate(
            (1.0 + v_star) / self.alpha, 2.0 * b_alpha / self.alpha, _CVAR_RADIUS_FRACTION * m_alpha
        )

    def linear_map(self, f_ref, g):
        v = f_ref.quantile(self.alpha)
        return (f_ref.cdf_integral_below(v) - g.cdf_integral_below(v)) / self.alpha


# ---------------------------------------------------------------------------
# Deliberately ill-behaved demonstration criteria
# ---------------------------------------------------------------------------


class Bad1Criterion(RiskCriterion):
    """Sum of the 0.1- and 0.9-percentile rewards.

    Constructed so that stationary single-arm play is not optimal: its
    stationary performance over mixtures has an unattained supremum.
    """

    tag = "bad1"
    convexity = "none"

    LOW = 0.1
    HIGH = 0.9

    def evaluate(self, f):
        return f.quantile(self.LOW) + f.quantile(self.HIGH)


class Bad2Criterion(RiskCriterion):
    """Flat-stretch-following percentile plus a left-limit membership bonus.

    The percentile part rides to the far edge of any flat CDF stretch at
    the 0.1 level; the bonus pays 5 when mass exists strictly inside
    (1, 10) or strictly below 1.  Its best stationary mixture is not a
    global optimum.
    """

    tag = "bad2"
    convexity = "none"

    LEVEL = 0.1
    BONUS = 5.0
    LOW_EDGE = 1.0
    HIGH_EDGE = 10.0

    def _flat_edge(self, f, x: float) -> float:
        c = float(f.cdf(x))
        if c >= 1.0 - 1e-12:
            return x
        return f.upper_quantile(c)

    def evaluate(self, f):
        v = f.quantile(self.LEVEL)
        v_plus = self._flat_edge(f, v)
        v_pp = self._flat_edge(f, v_plus)
        inner_mass = float(f.cdf_left(self.HIGH_EDGE)) - float(f.cdf(self.LOW_EDGE))
        below_mass = float(f.cdf_left(self.LOW_EDGE))
        bonus = self.BONUS if (inner_mass > 1e-12 or below_mass > 1e-12) else 0.0
        return v_pp + bonus


# ---------------------------------------------------------------------------
# Growth and level-set condition checks
# ---------------------------------------------------------------------------


def check_growth_condition_c4(
    f: RewardDistribution,
    alpha: float,
    b_alpha: float,
    m_alpha: float,
    grid_step: float = 1e-3,
):
    """Verify ``|F(VaR + b_alpha y) - alpha| >= |y|`` on a symmetric grid.

    Returns ``(passed, worst_slack, worst_y)`` where slack is the minimum of
    ``|F(VaR + b_alpha y)| - alpha| - |y|`` over the grid (negative = fail).
    """
    if b_alpha <= 0 or m_alpha <= 0 or grid_step <= 0:
        raise DomainError("b_alpha, m_alpha, grid_step must all be positive")
    v = f.quantile(alpha)
    n = max(2, int(math.ceil(m_alpha / grid_step)))
    ys = np.linspace(-m_alpha, m_alpha, 2 * n + 1)
    # map the CDF's own breakpoints into y-space so flat stretches narrower
    # than the grid step cannot hide between grid points
    breaks = (np.asarray(f.breakpoints(), dtype=float) - v) / b_alpha
    breaks = breaks[(breaks >= -m_alpha) & (breaks <= m_alpha)]
    if len(breaks):
        ys = np.unique(np.concatenate([ys, breaks]))
        mids = 0.5 * (ys[:-1] + ys[1:])
        ys = np.unique(np.concatenate([ys, mids]))
    vals = np.abs(np.asarray(f.cdf(v + b_alpha * ys)) - alpha) - np.abs(ys)
    worst = int(np.argmin(vals))
    return bool(vals[worst] >= -1e-12), float(vals[worst]), float(ys[worst])


def fit_c4_constants(arms, alpha: float, grid_step: float = 1e-3):
    """Search for growth-condition constants valid across the mixture set.

    The radius is pinned to the largest pairwise arm distance (the mixture
    set's diameter bound), floored at 0.05 for single-arm problems, and the
    scale ``b_alpha`` is doubled from 1, at most ``_C4_MAX_DOUBLINGS`` times,
    until the growth inequality holds on every mixture-grid distribution.
    Returns ``(b_alpha, m_alpha)`` or ``None`` when the condition appears
    unsatisfiable.
    """
    if len(arms) == 1:
        diameter = 0.0
    else:
        diameter = max(
            norm_distance(arms[i], arms[j], _TAILS)
            for i in range(len(arms))
            for j in range(i + 1, len(arms))
        )
    m_alpha = max(diameter, 0.05)
    if m_alpha > min(alpha, 1.0 - alpha):
        return None  # |F - alpha| <= min(alpha, 1-alpha) < m_alpha: unsatisfiable

    grid = _mixture_grid(arms)
    b = 1.0
    for _ in range(_C4_MAX_DOUBLINGS):
        if all(
            check_growth_condition_c4(f, alpha, b, m_alpha, grid_step)[0] for f in grid
        ):
            return b, m_alpha
        b *= 2.0
    return None


def _mixture_grid(arms):
    """The arm mixtures on the simplex lattice of spacing 1/_MIXTURE_GRID_N."""
    if len(arms) == 1:
        return [arms[0]]
    from .oracle import simplex_lattice

    return [MixtureDistribution(arms, p) for p in simplex_lattice(len(arms), _MIXTURE_GRID_N)]


# ---------------------------------------------------------------------------
# Config-facing factory
# ---------------------------------------------------------------------------


_FACTORIES = {
    "mean": (MeanCriterion, ()),
    "second-moment": (SecondMomentCriterion, ()),
    "neg-tsv": (NegTSVCriterion, ("r",)),
    "entropic": (EntropicCriterion, ("theta",)),
    "neg-variance": (NegVarianceCriterion, ()),
    "mean-variance": (MeanVarianceCriterion, ("rho",)),
    "sharpe": (SharpeCriterion, ("r", "eps_sigma")),
    "sortino": (SortinoCriterion, ("r", "eps_sigma")),
    "var": (VaRCriterion, ("alpha",)),
    "cvar": (CVaRCriterion, ("alpha",)),
    "bad1": (Bad1Criterion, ()),
    "bad2": (Bad2Criterion, ()),
}


def build_criterion(kind: str, **params) -> RiskCriterion:
    """Construct a criterion from its config tag and parameters."""
    if kind not in _FACTORIES:
        raise DomainError(f"unknown criterion kind {kind!r}")
    cls, names = _FACTORIES[kind]
    missing = [n for n in names if n not in params]
    if missing:
        raise DomainError(f"criterion {kind!r} is missing parameters {missing}")
    extra = [k for k in params if k not in names]
    if extra:
        raise DomainError(f"criterion {kind!r} got unknown parameters {extra}")
    bad = [n for n in names if not (isinstance(params[n], Real) and math.isfinite(params[n]))]
    if bad:
        raise DomainError(f"criterion {kind!r} parameters {bad} must be finite numbers")
    return cls(*(params[n] for n in names))
