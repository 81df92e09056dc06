"""Oracle analysis: best single arm, simplex sweeps, and pull-count bounds.

For quasiconvex criteria the long-run optimum over stationary randomized
policies sits at a simplex vertex, so ``best_single_arm`` is the oracle of
record; the exhaustive lattice sweep exists to exhibit criteria whose
stationary performance has no maximizer inside the simplex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from .criteria import RiskCriterion, StabilityCertificate
from .dist import MixtureDistribution
from .errors import DomainError, UnsupportedOperationError, add_context
from .norms import SemiNormFunctional, norm_distance
from .policy import phi

__all__ = [
    "OracleReport",
    "best_single_arm",
    "simplex_lattice",
    "simplex_grid_argmax",
    "lipschitz_constant",
    "expected_pull_bound",
    "oracle_report",
]

_MAX_GRID_ARMS = 4


@dataclass
class OracleReport:
    best_arm: int
    best_value: float
    gaps: list[float]
    p_star: tuple[float, ...] | None = None
    p_star_value: float | None = None
    lipschitz: float | None = None
    pull_bounds: dict = field(default_factory=dict)


def best_single_arm(criterion: RiskCriterion, arms):
    """Argmax of the criterion over single arms; ties go to the lowest index.

    Returns ``(index, value, gaps)`` with ``gaps[i] = value - R(F_i)``.
    """
    values = []
    for i, arm in enumerate(arms):
        try:
            values.append(criterion.evaluate(arm))
        except Exception as exc:
            add_context(exc, f"criterion failed on arm {i}")
            raise
    best = int(np.argmax(values))  # argmax returns the first maximizer
    best_value = values[best]
    gaps = [best_value - v for v in values]
    return best, best_value, gaps


def simplex_lattice(k: int, n: int):
    """All weight vectors with denominator n on the (k-1)-simplex."""
    for cut in combinations_with_replacement(range(k), n):
        counts = np.bincount(np.array(cut, dtype=int), minlength=k)
        yield tuple(counts / n)


def simplex_grid_argmax(criterion: RiskCriterion, arms, resolution: float):
    """Exhaustive criterion sweep over the simplex lattice of given spacing.

    Deterministic: lattice points are enumerated in a fixed order and only
    strict improvements move the argmax.
    """
    if len(arms) > _MAX_GRID_ARMS:
        raise UnsupportedOperationError(
            f"simplex sweep supports at most {_MAX_GRID_ARMS} arms, got {len(arms)}"
        )
    if not (0 < resolution <= 1):
        raise DomainError(f"grid spacing must lie in (0, 1], got {resolution}")
    n = max(1, int(round(1.0 / resolution)))
    best_p = None
    best_value = -math.inf
    for p in simplex_lattice(len(arms), n):
        value = criterion.evaluate(MixtureDistribution(arms, p))
        if value > best_value:
            best_value = value
            best_p = p
    return best_p, best_value


def lipschitz_constant(
    certificate: StabilityCertificate, arms, functionals: tuple[SemiNormFunctional, ...]
) -> float:
    """``b (1 + max_{i,j} ||F_i - F_j||^{q-1})`` from the modulus constants.

    With a single arm the empty pairwise maximum is taken as 0, so the
    constant degenerates to ``b``.
    """
    if len(arms) == 1:
        return certificate.b
    dmax = 0.0
    for i, j in combinations_with_replacement(range(len(arms)), 2):
        if i == j:
            continue
        d = norm_distance(arms[i], arms[j], functionals)
        if not math.isfinite(d):
            raise DomainError(
                f"pairwise norm between arms {i} and {j} is infinite; "
                "the bound norm requires integrable functionals on every arm"
            )
        dmax = max(dmax, d)
    return certificate.b * (1.0 + dmax ** (certificate.q - 1.0))


def expected_pull_bound(
    criterion: RiskCriterion,
    arms,
    certificate: StabilityCertificate,
    ucb_alpha: float,
    horizon: int,
):
    """Per-arm expected-pull bounds for the optimism policy, plus the
    matching stationary-proxy regret bound.

    Returns ``(bounds, regret_bound)`` where ``bounds[i]`` is
    ``ucb_alpha * log T / phi(gap_i / 2) + (ucb_alpha + 6)/(ucb_alpha - 2)``
    for suboptimal arms and ``None`` for the best arm, and ``regret_bound``
    is ``(L / T) * sum_i bounds[i] * ||F_best - F_i||``.
    """
    if ucb_alpha <= 2.0:
        raise DomainError(f"pull bound requires ucb_alpha > 2, got {ucb_alpha}")
    if horizon < 1:
        raise DomainError(f"horizon must be >= 1, got {horizon}")
    best, _, gaps = best_single_arm(criterion, arms)
    tail = (ucb_alpha + 6.0) / (ucb_alpha - 2.0)
    bounds: list[float | None] = []
    for i, gap in enumerate(gaps):
        if i == best:
            bounds.append(None)
            continue
        if gap <= 0.0:
            raise DomainError(
                f"arm {i} has non-positive gap {gap}; bounds need strictly "
                "suboptimal arms"
            )
        bounds.append(
            ucb_alpha * math.log(horizon) / phi(certificate, gap / 2.0) + tail
        )
    L = lipschitz_constant(certificate, arms, criterion.functionals)
    regret_bound = 0.0
    for i, u in enumerate(bounds):
        if u is None:
            continue
        regret_bound += u * norm_distance(arms[best], arms[i], criterion.functionals)
    regret_bound *= L / horizon
    return bounds, regret_bound


def oracle_report(
    criterion: RiskCriterion,
    arms,
    resolution: float | None = None,
    certificate: StabilityCertificate | None = None,
    ucb_alpha: float = 3.0,
    horizons=(),
) -> OracleReport:
    """Assemble the standard oracle quantities for one experiment."""
    best, value, gaps = best_single_arm(criterion, arms)
    report = OracleReport(best_arm=best, best_value=value, gaps=gaps)
    if resolution is not None and len(arms) <= _MAX_GRID_ARMS:
        report.p_star, report.p_star_value = simplex_grid_argmax(
            criterion, arms, resolution
        )
    if certificate is None:
        certificate = criterion.stability_certificate(arms)
    if certificate is not None:
        report.lipschitz = lipschitz_constant(certificate, arms, criterion.functionals)
        if all(g > 0 for i, g in enumerate(gaps) if i != best):
            for T in horizons:
                bounds, regret_bound = expected_pull_bound(
                    criterion, arms, certificate, ucb_alpha, T
                )
                report.pull_bounds[T] = (bounds, regret_bound)
    return report
