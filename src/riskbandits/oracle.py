"""Oracle analysis: best single arm, simplex sweeps, and pull-count bounds.

For quasiconvex criteria the long-run optimum over stationary randomized
policies sits at a simplex vertex, so ``best_single_arm`` is the oracle of
record; the exhaustive lattice sweep exists to exhibit criteria whose
stationary performance has no maximizer inside the simplex.
"""

from __future__ import annotations

import math
from itertools import combinations, islice

import numpy as np

from .criteria import RiskCriterion, StabilityCertificate, simplex_lattice
from .dist import _STACK_ROWS, MixtureDistribution
from .errors import DomainError, UnsupportedOperationError, add_context
from .norms import SemiNormFunctional, norm_distance
from .policy import check_ucb_alpha, phi

__all__ = [
    "best_single_arm",
    "simplex_lattice",
    "simplex_grid_argmax",
    "lipschitz_constant",
    "expected_pull_bound",
    "proxy_regret_bound",
]

_MAX_GRID_ARMS = 4


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


def simplex_grid_argmax(criterion: RiskCriterion, arms, resolution: float):
    """Exhaustive criterion sweep over the simplex lattice of given spacing.

    Deterministic: lattice points are enumerated in a fixed order and only
    strict improvements move the argmax.  Each stack's worth of lattice
    points is built and stacked before any of them is scored.
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
    lattice = simplex_lattice(len(arms), n)
    while chunk := list(islice(lattice, _STACK_ROWS)):
        mixtures = [MixtureDistribution(arms, p) for p in chunk]
        MixtureDistribution.stack(mixtures)
        for p, mixture in zip(chunk, mixtures):
            value = criterion.evaluate(mixture)
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
    for i, j in combinations(range(len(arms)), 2):
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
    horizons,
) -> dict:
    """Per-arm expected-pull bounds of the optimism policy at each horizon.

    Returns ``{T: bounds}`` where ``bounds[i]`` is
    ``ucb_alpha * log T / phi(gap_i / 2) + (ucb_alpha + 6)/(ucb_alpha - 2)``
    for suboptimal arms and ``None`` for the best arm: a function of the
    gaps and the certificate alone, so no norm distance is taken.
    """
    check_ucb_alpha(ucb_alpha)
    for horizon in horizons:
        if horizon < 1:
            raise DomainError(f"horizon must be >= 1, got {horizon}")
    best, _, gaps = best_single_arm(criterion, arms)
    for i, gap in enumerate(gaps):
        if i != best and gap <= 0.0:
            raise DomainError(
                f"arm {i} has non-positive gap {gap}; bounds need strictly "
                "suboptimal arms"
            )
    tail = (ucb_alpha + 6.0) / (ucb_alpha - 2.0)
    return {
        horizon: [
            None if i == best
            else ucb_alpha * math.log(horizon) / phi(certificate, gap / 2.0) + tail
            for i, gap in enumerate(gaps)
        ]
        for horizon in horizons
    }


def proxy_regret_bound(criterion: RiskCriterion, arms, lipschitz: float, pull_bounds: dict) -> dict:
    """Stationary-proxy regret bound for each horizon of ``pull_bounds``.

    ``pull_bounds`` is ``expected_pull_bound``'s ``{T: bounds}``, one best
    arm (the ``None`` entry) for every horizon; the result is
    ``{T: (L / T) * sum_i bounds[i] * ||F_best - F_i||}`` with ``L`` the
    ``lipschitz_constant``.  Each best-to-arm distance is taken once.
    """
    if not pull_bounds:
        return {}
    first = next(iter(pull_bounds.values()))
    best = first.index(None)
    distances = [
        None if u is None else norm_distance(arms[best], arm, criterion.functionals)
        for u, arm in zip(first, arms)
    ]
    out = {}
    for horizon, bounds in pull_bounds.items():
        regret_bound = 0.0
        for u, d in zip(bounds, distances):
            if u is not None:
                regret_bound += u * d
        regret_bound *= lipschitz / horizon
        out[horizon] = regret_bound
    return out
