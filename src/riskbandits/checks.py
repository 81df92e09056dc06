"""Admissibility conditions and invariant suites.

These checkers power the CLI ``check`` subcommand and the acceptance
tests.  Each returns a :class:`CheckResult` with a one-line detail string
(``modulus_check`` one per named certificate); nothing raises on a
mathematical failure, so a report can list every violated condition at
once.  The concentration pass lives here with its suite,
``dkw_grid_check``: it samples an arm at every horizon of the grid and
scores the exceedance of the sup distance against DKW's bound.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .criteria import (
    CVaRCriterion,
    RiskCriterion,
    StabilityCertificate,
    SmoothnessCertificate,
    _mixture_grid,
    check_growth_condition_c4,
    default_concentration_rate,
    fit_c4_constants,
)
from .dist import (
    EmpiricalDistribution,
    Gaussian,
    MixtureDistribution,
    RewardDistribution,
)
from .errors import DomainError
from .norms import norm_distances, norm_value
from .policy import phi, phi_inv

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
        except (DomainError, ArithmeticError) as exc:
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
    if (b_alpha is None) != (m_alpha is None):
        raise DomainError("b_alpha and m_alpha go together: give both or neither")
    if b_alpha is None:
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
    named: Mapping[str, StabilityCertificate],
    n_pairs: int = 500,
    seed: int = 0,
) -> list[CheckResult]:
    """``|R(F) - R(G)| <= b(||F-G|| + ||F-G||^q)`` on sampled pairs.

    ``named`` maps line names to certificates, all scored on the same pairs:
    one result each, in its order.  The pairs are drawn first and solved
    together; each is scored in draw order while a certificate still holds.
    """
    rng = _rng(seed)
    pairs = []
    for _ in range(n_pairs):
        f = _random_mixture(rng, arms)
        g = _random_mixture(rng, arms) if rng.random() < 0.4 else _random_empirical(rng, arms)
        pairs.append((f, g))
    MixtureDistribution.stack([d for pair in pairs for d in pair])
    worst = dict.fromkeys(named, 0.0)
    failed = {}
    for (f, g), dist in zip(pairs, norm_distances(pairs, criterion.functionals)):
        if len(failed) == len(named):
            break
        lhs = abs(criterion.evaluate(f) - criterion.evaluate(g))
        for name, cert in named.items():
            if name in failed:
                continue
            rhs = cert.modulus(dist)
            if lhs > rhs * (1.0 + _MODULUS_REL_SLACK) + 1e-15:
                detail = f"|dR|={lhs:.6g} exceeds psi(||.||)={rhs:.6g} at distance {dist:.6g}"
                failed[name] = CheckResult(name, False, detail)
            elif rhs > 0:
                worst[name] = max(worst[name], lhs / rhs)
    return [
        failed.get(name)
        or CheckResult(name, True, f"worst ratio {worst[name]:.4f} over {n_pairs} pairs")
        for name in named
    ]


def convexity_check(
    criterion: RiskCriterion,
    arms,
    n_pairs: int = 500,
    seed: int = 0,
) -> CheckResult:
    """Quasiconvexity / convexity / linearity along mixture segments.

    The admissible pairs are drawn first (the domain guards take no draws),
    and all their mixtures and blends are stacked before any is scored.
    """
    rng = _rng(seed)
    kind = criterion.convexity
    if kind == "none":
        return CheckResult(f"convexity[{criterion.tag}]", True, "no convexity class declared")
    lambdas = np.linspace(0.0, 1.0, 9)
    pairs = []
    attempts = 0
    while len(pairs) < n_pairs and attempts < 20 * n_pairs:
        attempts += 1
        wf = _random_simplex(rng, len(arms)) if len(arms) > 1 else np.array([1.0])
        wg = _random_simplex(rng, len(arms)) if len(arms) > 1 else np.array([1.0])
        f = MixtureDistribution(arms, wf)
        g = MixtureDistribution(arms, wg)
        if criterion.domain_flags(f) or criterion.domain_flags(g):
            continue
        # the end blends are g and f themselves, scored as rg and rf
        blends = [MixtureDistribution(arms, lam * wf + (1 - lam) * wg) for lam in lambdas[1:-1]]
        pairs.append((f, g, blends))
    MixtureDistribution.stack([m for f, g, blends in pairs for m in (f, g, *blends)])
    for f, g, blends in pairs:
        rf, rg = criterion.evaluate(f), criterion.evaluate(g)
        for lam, mix in zip(lambdas[1:-1], blends):
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
    return CheckResult(
        f"convexity[{criterion.tag}]", True, f"{len(pairs)} pairs x {len(lambdas)} blend points"
    )


def residual_check(
    criterion: RiskCriterion,
    arms,
    certificate: SmoothnessCertificate,
    n_pairs: int = 200,
    seed: int = 0,
) -> CheckResult:
    """``|Res(G, F)| <= d2/2 ||G-F||^2`` within the certificate radius.

    Pairs are drawn in chunks of as many attempts as admissible pairs are
    still missing, so no attempt is drawn that a pair-by-pair loop would
    not draw; each chunk is solved together and scored in draw order.
    """
    rng = _rng(seed)
    checked = 0
    attempts = 0
    worst = 0.0
    while checked < n_pairs and attempts < 50 * n_pairs:
        pairs = []
        for _ in range(min(n_pairs - checked, 50 * n_pairs - attempts)):
            attempts += 1
            f = _random_mixture(rng, arms)
            if rng.random() < 0.5:
                g: RewardDistribution = _random_mixture(rng, arms)
            else:
                g = EmpiricalDistribution(f.sample(rng, _RESIDUAL_EMPIRICAL_T))
            pairs.append((f, g))
        MixtureDistribution.stack([d for pair in pairs for d in pair])
        for (f, g), d in zip(pairs, norm_distances(pairs, criterion.functionals)):
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
    """``quantile(F, a) <= y  <=>  a <= F(y)`` and ``upper_quantile(F, a) <= y
    <=>  a < F(y)`` on random (a, y) pairs."""
    rng = _rng(seed)
    for d in dists:
        lo, hi = d.support_bounds()
        pad = max(1.0, 0.1 * (hi - lo))
        for _ in range(n_points):
            a = float(rng.uniform(1e-6, 1 - 1e-6))
            y = float(rng.uniform(lo - pad, hi + pad))
            f = float(d.cdf(y))
            if (d.quantile(a) <= y) != (a <= f) or (d.upper_quantile(a) <= y) != (a < f):
                return CheckResult(
                    "galois-connection", False, f"{d!r}: alpha={a:.6g}, y={y:.6g}"
                )
    return CheckResult("galois-connection", True, f"{n_points} points per distribution")


def _bernoulli_kl(p: float, q: float) -> float:
    """``KL(Bernoulli(p) || Bernoulli(q))`` for ``0 <= q < p <= 1``."""
    if q == 0.0:
        return math.inf
    kl = p * math.log(p / q)
    return kl if p == 1.0 else kl + (1.0 - p) * math.log((1.0 - p) / (1.0 - q))


#: Draws per block of the concentration pass: whole rows of the largest
#: horizon (one row if that horizon is longer), so the block, each shorter
#: horizon's copy of it and the CDF values scored from it are of this size.
_DKW_BLOCK_DRAWS = 1 << 16


def dkw_grid_check(dist, pairs, reps: int = 10_000, seed: int = 0, slack: float = 1.2) -> CheckResult:
    """Empirical sup-distance exceedance stays within slack x the DKW bound
    ``2 exp(-a t x^2)`` at the sup norm's rate ``a = 2`` (Massart, Ann.
    Probab. 1990), which the default certificates share across their norm.

    A rate above ``cap = min(1, slack x bound)`` FAILs only if it is also
    improbable under the cap: ``reps KL(emp || cap) > log 1e4`` (Chernoff).

    The sup distances of every horizon with a pair x > 0 come from one
    ``_dkw_sup_distances`` pass over one stream, and each pair of a horizon
    is scored on that horizon's distances.  A pair with x <= 0 needs no
    draws: every distance is at least 0, so its exceedance is 1.
    """
    if reps < 100:
        raise DomainError(f"need at least 100 replications, got {reps}")
    if not pairs:
        raise DomainError("a concentration grid needs at least one (t, x) point")
    drawn = sorted({int(t) for t, x in pairs if x > 0.0})
    if drawn and drawn[0] < 1:
        raise DomainError(f"need horizons t >= 1, got {drawn}")
    sups = _dkw_sup_distances(dist, drawn, reps, seed) if drawn else {}
    rate = default_concentration_rate(0)
    worst = 0.0
    for t, x in pairs:
        emp = float(np.mean(sups[t] >= x)) if x > 0.0 else 1.0
        bound = 2.0 * math.exp(-rate * t * x * x)
        cap = min(1.0, slack * bound)
        if emp > cap and reps * _bernoulli_kl(emp, cap) > math.log(1e4):
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


def _dkw_sup_distances(dist, horizons, reps: int, seed: int = 0) -> dict[int, np.ndarray]:
    """``{t: sup |F_hat_t - F| of each of reps samples of size t}`` for every
    t in ``horizons`` (distinct, ascending, at least 1), in one pass over one
    stream.

    Replication r of horizon t is draws ``r t, ..., (r + 1) t - 1`` of stream
    ``SeedSequence(seed, spawn_key=(0,))``, so every horizon reads a prefix
    of the largest one's ``reps * max(t)`` draws.  The pass draws them in
    blocks of whole rows of the largest horizon, about ``_DKW_BLOCK_DRAWS``
    draws each, with one ``sample`` and one ``cdf`` call a block (and one
    ``cdf_left`` with jumps); the largest horizon sorts and scores the
    block's CDF values in place, and a shorter one scores a sorted copy of
    its part of them, carrying its partial row (under t draws) into the
    next.  Memory is a few blocks, the largest t and the distances,
    whatever ``reps * t``.

    The sup is exact: over sample points (both sides) and the distribution's
    own jump points (both sides).  Every step is elementwise, an exact
    maximum or an integer count, so the distances do not depend on the block
    size; for a block-invariant sampler (``RewardDistribution.sample``) they
    are those of one ``sample(rng, reps * t)`` call per horizon, bit for bit.
    """
    longest = horizons[-1]
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    jumps = [(b, float(dist.cdf(b)), float(dist.cdf_left(b))) for b in dist.breakpoints()]
    # a kink where F is continuous is no jump: its counts never pass the sample points'
    jumps = [j for j in jumps if j[1] != j[2]]
    sups = {t: np.empty(reps) for t in horizons}
    # per horizon, its partial row: CDF values, and with jumps left limits and draws
    carry = {t: [np.empty(0)] * (3 if jumps else 1) for t in horizons}
    total = reps * longest
    step = max(1, _DKW_BLOCK_DRAWS // longest) * longest
    for start in range(0, total, step):
        draws = dist.sample(rng, min(step, total - start))
        columns = [dist.cdf(draws)] + ([dist.cdf_left(draws), draws] if jumps else [])
        del draws  # held by the columns only where jumps are counted
        for t in horizons:  # ascending: the largest horizon sorts the block's values, last
            unread = reps * t - start
            if unread <= 0:
                continue
            if t < longest:
                columns_t = [np.concatenate((c, col[:unread])) for c, col in zip(carry[t], columns)]
            else:
                columns_t = columns
            done = (start - len(carry[t][0])) // t
            n = len(columns_t[0]) // t
            carry[t] = [col[n * t :].copy() for col in columns_t]
            rows = [col[: n * t].reshape(n, t) for col in columns_t]
            sups[t][done : done + n] = _sup_rows(rows, jumps)
    return sups


def _sup_rows(rows, jumps) -> np.ndarray:
    """``sup |F_hat - F|`` of each row of draws, from their CDF values and,
    with jumps, their left limits and the draws.  F and F_left do not fall,
    so a row's sorted values are its sorted draws' values: each value row
    is sorted in place and then overwritten by its ``d``.  With
    ``d = grid - F`` the sample-point sides are
    ``max(d)`` and ``1/t - min(d at F's left limits)``: ``-(g - f)`` is
    ``f - g`` exactly, and ``1/t + m`` does not fall as m rises, so this is
    the maximum of ``F_left - grid + 1/t`` bit for bit.  The jump crossings
    are counts, taken on the draws in draw order."""
    for values in rows[:2]:
        values.sort(axis=1)
    t = rows[0].shape[1]
    grid = np.arange(1, t + 1) / t
    d_right = np.subtract(grid, rows[0], out=rows[0])
    # without jumps the CDF's left limits are its values
    d_left = np.subtract(grid, rows[1], out=rows[1]) if jumps else d_right
    s = np.maximum(np.max(d_right, axis=1), 1.0 / t - np.min(d_left, axis=1))
    for b, fb, fb_left in jumps:
        s = np.maximum(s, np.abs(np.sum(rows[2] <= b, axis=1) / t - fb))
        s = np.maximum(s, np.abs(np.sum(rows[2] < b, axis=1) / t - fb_left))
    return s


def cvar_order_statistic_check(seed: int = 0) -> CheckResult:
    """Step-CDF tail-average equals the order-statistic mean at integral t*alpha."""
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
