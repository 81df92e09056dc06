"""Admissibility conditions and invariant suites.

These checkers power the CLI ``check`` subcommand and the acceptance
tests.  Each returns a :class:`CheckResult` with a one-line detail string;
nothing raises on a mathematical failure, so a report can list every
violated condition at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .criteria import (
    RiskCriterion,
    StabilityCertificate,
    SmoothnessCertificate,
    _mixture_grid,
    check_growth_condition_c4,
    fit_c4_constants,
)
from .dist import (
    EmpiricalDistribution,
    Gaussian,
    MixtureDistribution,
    RewardDistribution,
)
from .norms import norm_distance, norm_value
from .policy import phi, phi_inv
from .sim import dkw_exceedance, dkw_sup_distances

__all__ = [
    "CheckResult",
    "condition_c1",
    "condition_c2",
    "condition_c3",
    "condition_c4",
    "condition_c5",
    "modulus_check",
    "convexity_check",
    "residual_check",
    "phi_identity_check",
    "galois_check",
    "dkw_grid_check",
    "cvar_order_statistic_check",
]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


# Tolerances and sizes of the suites below.
_MODULUS_REL_SLACK = 1e-9
_CONVEXITY_TOL = 1e-9
_RESIDUAL_EMPIRICAL_T = 4096  # sample size of the empirical side of a residual pair
_RESIDUAL_ABS_TOL = 1e-10
_PHI_IDENTITY_TOL = 1e-12
_RANDOM_EMPIRICAL_MAX_T = 200
_CVAR_ORDER_STATISTIC_MAX_T = 50


def _rng(seed):
    return np.random.default_rng(np.random.SeedSequence(seed))


def _random_simplex(rng, k):
    w = rng.dirichlet(np.ones(k))
    return w / w.sum()


def _random_mixture(rng, arms):
    if len(arms) == 1:
        return MixtureDistribution(arms, [1.0])
    return MixtureDistribution(arms, _random_simplex(rng, len(arms)))


def _random_empirical(rng, arms):
    base = _random_mixture(rng, arms)
    t = int(rng.integers(1, _RANDOM_EMPIRICAL_MAX_T + 1))
    samples = base.sample(rng, t)
    if rng.random() < 0.25:
        samples = samples + rng.normal(0.0, 2.0)  # shifted multiset
    return EmpiricalDistribution(samples)


# ---------------------------------------------------------------------------
# Admissibility conditions for the quantile criteria
# ---------------------------------------------------------------------------


def condition_c1(criterion: RiskCriterion, arms) -> CheckResult:
    """Criterion values and bound-norm functionals finite on every arm."""
    values = []
    for i, arm in enumerate(arms):
        try:
            value = criterion.evaluate(arm)
        except Exception as exc:
            return CheckResult("C1", False, f"arm {i}: evaluation failed ({exc})")
        if not math.isfinite(value):
            return CheckResult("C1", False, f"arm {i}: criterion value {value}")
        nv = norm_value(arm, criterion.functionals)
        if not math.isfinite(nv):
            return CheckResult("C1", False, f"arm {i}: bound norm is infinite")
        values.append(value)
    worst = f"max |value| = {max(map(abs, values)):.6g}" if values else ""
    return CheckResult("C1", True, worst)


def _is_sub_gaussian(d: RewardDistribution) -> bool:
    if isinstance(d, Gaussian):
        return True
    if isinstance(d, MixtureDistribution):
        return all(_is_sub_gaussian(c) for c in d.components)
    lo, hi = d.support_bounds()
    return math.isfinite(lo) and math.isfinite(hi)


def condition_c2(arms) -> CheckResult:
    """Sub-Gaussian rewards: Gaussian kinds or bounded support."""
    bad = [i for i, a in enumerate(arms) if not _is_sub_gaussian(a)]
    if bad:
        return CheckResult("C2", False, f"arms {bad} are not certifiably sub-Gaussian")
    return CheckResult("C2", True, "all arms Gaussian or of bounded support")


def condition_c3(arms, alpha: float) -> CheckResult:
    """Level set of size at most 1 across the mixture grid."""
    worst = "empty"
    for f in _mixture_grid(arms):
        kind, lo, hi = f.level_set(alpha)
        if kind == "interval":
            return CheckResult("C3", False, f"flat stretch [{lo:.6g}, {hi:.6g}] at level {alpha}")
        if kind == "point":
            worst = "point"
    return CheckResult("C3", True, f"worst cardinality class: {worst}")


def condition_c4(
    arms,
    alpha: float,
    b_alpha: float | None = None,
    m_alpha: float | None = None,
    grid_step: float = 1e-3,
) -> CheckResult:
    """Quantile growth condition, fitted when constants are not supplied."""
    if b_alpha is None or m_alpha is None:
        fitted = fit_c4_constants(arms, alpha, grid_step=grid_step)
        if fitted is None:
            return CheckResult("C4", False, "no growth constants found (condition violated)")
        b_alpha, m_alpha = fitted
        detail = f"fitted b_alpha={b_alpha:.6g}, m_alpha={m_alpha:.6g}"
    else:
        detail = f"b_alpha={b_alpha:.6g}, m_alpha={m_alpha:.6g}"
    worst = math.inf
    for f in _mixture_grid(arms):
        ok, slack, at = check_growth_condition_c4(f, alpha, b_alpha, m_alpha, grid_step)
        worst = min(worst, slack)
        if not ok:
            return CheckResult("C4", False, f"{detail}; slack {slack:.3g} at y={at:.3g}")
    return CheckResult("C4", True, f"{detail}; worst slack {worst:.3g}")


def condition_c5(arms, alpha: float) -> CheckResult:
    """Twice continuous differentiability at the percentile point.

    The catalog CDFs are smooth except at their breakpoints (jumps, kinks),
    so the check is: the percentile never lands on a breakpoint.
    """
    for f in _mixture_grid(arms):
        v = f.quantile(alpha)
        breaks = f.breakpoints()
        if len(breaks) and np.min(np.abs(breaks - v)) < 1e-9:
            return CheckResult("C5", False, f"percentile {v:.6g} sits on a CDF breakpoint")
    return CheckResult("C5", True, "percentile interior to a smooth CDF piece everywhere")


# ---------------------------------------------------------------------------
# Invariant suites
# ---------------------------------------------------------------------------


def modulus_check(
    criterion: RiskCriterion,
    arms,
    certificate: StabilityCertificate,
    n_pairs: int = 500,
    seed: int = 0,
) -> CheckResult:
    """``|R(F) - R(G)| <= b(||F-G|| + ||F-G||^q)`` on sampled pairs."""
    rng = _rng(seed)
    worst = 0.0
    for _ in range(n_pairs):
        f = _random_mixture(rng, arms)
        g = _random_mixture(rng, arms) if rng.random() < 0.4 else _random_empirical(rng, arms)
        lhs = abs(criterion.evaluate(f) - criterion.evaluate(g))
        dist = norm_distance(f, g, criterion.functionals)
        rhs = certificate.modulus(dist)
        if lhs > rhs * (1.0 + _MODULUS_REL_SLACK) + 1e-15:
            return CheckResult(
                f"modulus[{criterion.tag}]",
                False,
                f"|dR|={lhs:.6g} exceeds psi(||.||)={rhs:.6g} at distance {dist:.6g}",
            )
        if rhs > 0:
            worst = max(worst, lhs / rhs)
    return CheckResult(
        f"modulus[{criterion.tag}]", True, f"worst ratio {worst:.4f} over {n_pairs} pairs"
    )


def convexity_check(
    criterion: RiskCriterion,
    arms,
    n_pairs: int = 500,
    seed: int = 0,
) -> CheckResult:
    """Quasiconvexity / convexity / linearity along mixture segments."""
    rng = _rng(seed)
    kind = criterion.convexity
    if kind == "none":
        return CheckResult(f"convexity[{criterion.tag}]", True, "no convexity class declared")
    lambdas = np.linspace(0.0, 1.0, 9)
    checked = 0
    attempts = 0
    while checked < n_pairs and attempts < 20 * n_pairs:
        attempts += 1
        wf = _random_simplex(rng, len(arms)) if len(arms) > 1 else np.array([1.0])
        wg = _random_simplex(rng, len(arms)) if len(arms) > 1 else np.array([1.0])
        f = MixtureDistribution(arms, wf)
        g = MixtureDistribution(arms, wg)
        if criterion.domain_flags(f) or criterion.domain_flags(g):
            continue
        rf, rg = criterion.evaluate(f), criterion.evaluate(g)
        for lam in lambdas:
            mix = MixtureDistribution(arms, lam * wf + (1 - lam) * wg)
            rm = criterion.evaluate(mix)
            if kind in ("linear", "convex") and rm > lam * rf + (1 - lam) * rg + _CONVEXITY_TOL:
                return CheckResult(
                    f"convexity[{criterion.tag}]",
                    False,
                    f"convex combination exceeded chord by {rm - lam*rf - (1-lam)*rg:.3g}",
                )
            if kind == "linear" and rm < lam * rf + (1 - lam) * rg - _CONVEXITY_TOL:
                return CheckResult(
                    f"convexity[{criterion.tag}]",
                    False,
                    f"linearity violated by {lam*rf + (1-lam)*rg - rm:.3g}",
                )
            if rm > max(rf, rg) + _CONVEXITY_TOL:
                return CheckResult(
                    f"convexity[{criterion.tag}]",
                    False,
                    f"quasiconvexity violated by {rm - max(rf, rg):.3g}",
                )
        checked += 1
    return CheckResult(
        f"convexity[{criterion.tag}]", True, f"{checked} pairs x {len(lambdas)} blend points"
    )


def residual_check(
    criterion: RiskCriterion,
    arms,
    certificate: SmoothnessCertificate,
    n_pairs: int = 200,
    seed: int = 0,
) -> CheckResult:
    """``|Res(G, F)| <= d2/2 ||G-F||^2`` within the certificate radius."""
    rng = _rng(seed)
    checked = 0
    attempts = 0
    worst = 0.0
    while checked < n_pairs and attempts < 50 * n_pairs:
        attempts += 1
        f = _random_mixture(rng, arms)
        if rng.random() < 0.5:
            g: RewardDistribution = _random_mixture(rng, arms)
        else:
            g = EmpiricalDistribution(f.sample(rng, _RESIDUAL_EMPIRICAL_T))
        d = norm_distance(f, g, criterion.functionals)
        if not (0 < d <= certificate.m0):
            continue
        res = criterion.residual(g, f)
        bound = 0.5 * certificate.d2 * d * d + _RESIDUAL_ABS_TOL
        if abs(res) > bound:
            return CheckResult(
                f"residual[{criterion.tag}]",
                False,
                f"|Res|={abs(res):.6g} exceeds d2/2 * d^2 = {bound:.6g} at d={d:.6g}",
            )
        if bound > 0:
            worst = max(worst, abs(res) / bound)
        checked += 1
    if checked < n_pairs:
        return CheckResult(
            f"residual[{criterion.tag}]",
            False,
            f"only {checked}/{n_pairs} admissible pairs within radius {certificate.m0}",
        )
    return CheckResult(
        f"residual[{criterion.tag}]", True, f"worst |Res|/bound {worst:.4f} on {checked} pairs"
    )


def phi_identity_check(cert: StabilityCertificate) -> CheckResult:
    """``phi(phi_inv(x)) = x`` on a 30-point log grid."""
    xs = np.logspace(-6, 6, 30)
    worst = 0.0
    for x in xs:
        err = abs(phi(cert, phi_inv(cert, float(x))) - x) / max(1.0, x)
        worst = max(worst, err)
    passed = worst <= _PHI_IDENTITY_TOL
    return CheckResult("phi-inverse-identity", passed, f"worst relative error {worst:.3g}")


def galois_check(dists, n_points: int = 400, seed: int = 0) -> CheckResult:
    """``quantile(F, a) <= y  <=>  a <= F(y)`` on random (a, y) pairs."""
    rng = _rng(seed)
    for d in dists:
        lo, hi = d.support_bounds()
        pad = max(1.0, 0.1 * (hi - lo))
        for _ in range(n_points):
            a = float(rng.uniform(1e-6, 1 - 1e-6))
            y = float(rng.uniform(lo - pad, hi + pad))
            left = d.quantile(a) <= y
            right = a <= float(d.cdf(y))
            if left != right:
                return CheckResult(
                    "galois-connection", False, f"{d!r}: alpha={a:.6g}, y={y:.6g}"
                )
    return CheckResult("galois-connection", True, f"{n_points} points per distribution")


def dkw_grid_check(dist, pairs, reps: int = 10_000, seed: int = 0, slack: float = 1.2) -> CheckResult:
    """Empirical sup-distance exceedance stays within slack x the bound.

    Every pair draws from the same stream, so the pairs of one horizon share
    its sup distances: they are computed once per distinct t, at the first
    pair of that t with x > 0 (a pair with x <= 0 draws nothing).
    """
    worst = 0.0
    sups = {}
    for t, x in pairs:
        if x <= 0.0:
            emp = dkw_exceedance(dist, t, x, reps, seed)
        else:
            if t not in sups:
                sups[t] = dkw_sup_distances(dist, t, reps, seed)
            emp = float(np.mean(sups[t] >= x))
        bound = 2.0 * math.exp(-2.0 * t * x * x)
        cap = min(1.0, slack * bound)
        if emp > cap:
            return CheckResult(
                "dkw-concentration",
                False,
                f"t={t}, x={x}: empirical {emp:.4g} > {slack} x bound {bound:.4g}",
            )
        if bound > 0:
            worst = max(worst, emp / bound)
    return CheckResult(
        "dkw-concentration", True, f"worst empirical/bound ratio {worst:.3f}"
    )


def cvar_order_statistic_check(seed: int = 0) -> CheckResult:
    """Step-CDF tail-average equals the order-statistic mean at integral t*alpha."""
    from .criteria import CVaRCriterion

    rng = _rng(seed)
    for alpha in (0.1, 0.2, 0.5):
        crit = CVaRCriterion(alpha)
        for t in range(1, _CVAR_ORDER_STATISTIC_MAX_T + 1):
            k = alpha * t
            if abs(k - round(k)) > 1e-9 or round(k) < 1:
                continue
            k = int(round(k))
            samples = np.sort(rng.normal(0.0, 2.0, size=t))
            emp = EmpiricalDistribution(samples)
            lhs = crit.evaluate(emp)
            rhs = float(np.mean(samples[:k]))
            if abs(lhs - rhs) > 1e-12:
                return CheckResult(
                    "cvar-order-statistic",
                    False,
                    f"t={t}, alpha={alpha}: {lhs!r} vs {rhs!r}",
                )
    detail = f"all integral t*alpha up to t={_CVAR_ORDER_STATISTIC_MAX_T}"
    return CheckResult("cvar-order-statistic", True, detail)
