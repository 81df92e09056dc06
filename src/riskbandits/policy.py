"""Bandit policies: stationary randomized play, optimism with modulus-derived
confidence radii, and the hand-built oracle schedules for the pathological
demonstration criteria.

A ``Policy`` is an immutable configuration.  Open-loop policies (stationary
play, the Bad2 schedule) ignore rewards, so ``pull_counts`` hands over the
pull counts at every checkpoint in one call.  Closed-loop policies (optimism,
the Bad1 schedule) return ``None`` there; their ``start`` produces a
per-episode session that selects purely from the :class:`PolicyState`, which
contains only past observations, so replaying a recorded trajectory
reproduces every decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .criteria import RiskCriterion
from .dist import EmpiricalDistribution
from .errors import DomainError, add_context

__all__ = [
    "UcbParams",
    "phi",
    "phi_inv",
    "PolicyState",
    "Policy",
    "UcbPolicy",
    "SimplePolicy",
    "Bad1OraclePolicy",
    "Bad2OraclePolicy",
    "ucb_select",
    "simple_policy_select",
]


@dataclass(frozen=True)
class UcbParams:
    """Modulus constants (a, b, q) plus the exploration exponent."""

    a: float
    b: float
    q: float
    ucb_alpha: float = 3.0

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0 or self.q < 1:
            raise DomainError(
                f"radii need a>0, b>0, q>=1; got a={self.a}, b={self.b}, q={self.q}"
            )
        if self.ucb_alpha <= 2:
            raise DomainError(f"ucb_alpha must exceed 2, got {self.ucb_alpha}")


def phi(params, y: float) -> float:
    """``min{a (y/2b)^2, a (y/2b)^(2/q)}`` for y >= 0."""
    if y < 0:
        raise DomainError(f"phi argument must be >= 0, got {y}")
    z = y / (2.0 * params.b)
    return params.a * min(z**2.0, z ** (2.0 / params.q))


def phi_inv(params, x: float) -> float:
    """``max{2b (x/a)^(1/2), 2b (x/a)^(q/2)}``; inverse of :func:`phi`."""
    if x < 0:
        raise DomainError(f"phi_inv argument must be >= 0, got {x}")
    z = x / params.a
    return 2.0 * params.b * max(z**0.5, z ** (params.q / 2.0))


class _SortedBuffer:
    """Append-only sorted float buffer with amortized growth."""

    __slots__ = ("_data", "n")

    def __init__(self, capacity: int = 64):
        self._data = np.empty(capacity, dtype=float)
        self.n = 0

    def insert(self, x: float) -> None:
        if self.n == len(self._data):
            grown = np.empty(2 * len(self._data), dtype=float)
            grown[: self.n] = self._data
            self._data = grown
        i = int(np.searchsorted(self._data[: self.n], x))
        self._data[i + 1 : self.n + 1] = self._data[i : self.n]
        self._data[i] = x
        self.n += 1

    def view(self) -> np.ndarray:
        """Zero-copy sorted view; stale after the next insert."""
        return self._data[: self.n]

    def snapshot(self) -> np.ndarray:
        return self._data[: self.n].copy()


class PolicyState:
    """Per-episode observation record: pull counts and each arm's rewards.

    Single-owner mutable within one episode; episodes never share state.
    """

    def __init__(self, k: int):
        if k < 1:
            raise DomainError(f"need at least one arm, got {k}")
        self.k = k
        self.t = 0
        self.pull_counts = np.zeros(k, dtype=np.int64)
        self._arm_buffers = [_SortedBuffer() for _ in range(k)]

    def update(self, arm: int, reward: float) -> None:
        if not (0 <= arm < self.k):
            raise DomainError(f"arm index {arm} out of range [0, {self.k})")
        self.pull_counts[arm] += 1
        self._arm_buffers[arm].insert(reward)
        self.t += 1

    def arm_samples_view(self, arm: int) -> np.ndarray:
        return self._arm_buffers[arm].view()

    def empirical(self, arm: int) -> EmpiricalDistribution:
        """Stable snapshot of one arm's empirical distribution."""
        if self.pull_counts[arm] == 0:
            raise DomainError(f"arm {arm} has no observations yet")
        return EmpiricalDistribution.from_sorted(self._arm_buffers[arm].snapshot())

    def count_le(self, y: float) -> int:
        """Number of pooled rewards <= y (exact step-CDF numerator)."""
        return sum(int(np.searchsorted(b.view(), y, side="right")) for b in self._arm_buffers)


class Policy:
    """Immutable policy configuration: open-loop policies override
    ``pull_counts``, closed-loop policies override ``start``."""

    tag = ""

    def pull_counts(self, k: int, checkpoints, rng: np.random.Generator):
        """Pull counts (len(checkpoints), k), or None for closed-loop play."""
        return None

    def start(self, k: int, criterion: RiskCriterion, rng: np.random.Generator):
        """Per-episode session whose ``select(state)`` picks the next arm."""
        raise NotImplementedError


class _UcbSession:
    def __init__(self, k, criterion, params):
        self.k = k
        self.criterion = criterion
        self.params = params
        self._values = np.zeros(k, dtype=float)
        self._eval_counts = np.zeros(k, dtype=np.int64)

    def select(self, state: PolicyState) -> int:
        if state.t < self.k:
            return state.t  # one initialization pull per arm
        t_now = state.t + 1
        counts = state.pull_counts
        for i in range(self.k):
            if self._eval_counts[i] != counts[i]:
                emp = EmpiricalDistribution.from_sorted(state.arm_samples_view(i))
                try:
                    self._values[i] = self.criterion.evaluate(emp)
                except Exception as exc:
                    add_context(exc, f"criterion failed on arm {i}")
                    raise
                self._eval_counts[i] = counts[i]
        log_t = math.log(t_now)
        best_arm = 0
        best_index = -math.inf
        for i in range(self.k):
            bonus = phi_inv(self.params, self.params.ucb_alpha * log_t / counts[i])
            index = self._values[i] + bonus
            if index > best_index:
                best_index = index
                best_arm = i
        return best_arm


@dataclass(frozen=True)
class UcbPolicy(Policy):
    """Optimism policy with confidence radii derived from (a, b, q)."""

    params: UcbParams
    tag = "ucb"

    def start(self, k, criterion, rng):
        return _UcbSession(k, criterion, self.params)


class SimplePolicy(Policy):
    """Stationary randomized policy: i.i.d. categorical arm draws."""

    tag = "simple"

    def __init__(self, p):
        p = np.asarray(p, dtype=float)
        if p.ndim != 1 or len(p) == 0:
            raise DomainError("simple policy needs a non-empty weight vector")
        if np.any(p < 0) or abs(float(np.sum(p)) - 1.0) > 1e-9:
            raise DomainError(f"weights must be a probability vector, got {p}")
        self.p = p / float(np.sum(p))
        self.p.setflags(write=False)

    def pull_counts(self, k, checkpoints, rng):
        """Cumulative counts of one categorical draw per step; a vertex
        (``p[j] == 1.0``) draws nothing, as every draw would give arm j."""
        if len(self.p) != k:
            raise DomainError(f"policy has {len(self.p)} weights for {k} arms")
        checkpoints = np.asarray(checkpoints, dtype=np.int64)
        if 1.0 in self.p:
            return np.outer(checkpoints, self.p == 1.0)
        arms = np.searchsorted(np.cumsum(self.p)[:-1], rng.random(checkpoints[-1]), side="right")
        segments = np.split(arms, checkpoints[:-1])
        return np.cumsum([np.bincount(s, minlength=k) for s in segments], axis=0)


class _Bad1OracleSession:
    LEVEL = 0.1
    THRESHOLD = 1.0

    def select(self, state: PolicyState) -> int:
        if state.t == 0:
            return 1
        t_now = state.t + 1
        worst_case = (state.count_le(self.THRESHOLD) + 1) / t_now
        return 1 if worst_case >= self.LEVEL else 0


class Bad1OraclePolicy(Policy):
    """Non-stationary oracle schedule for the two-quantile-sum criterion.

    Pulls the safe point-mass arm exactly when one more low reward could
    push the pooled CDF at the threshold up to the 0.1 level; otherwise
    rides the wide arm.  Keeps ``F_hat(1) < 0.1`` for the whole horizon.
    """

    tag = "bad1-oracle"

    def start(self, k, criterion, rng):
        if k != 2:
            raise DomainError("this oracle schedule is defined for exactly 2 arms")
        return _Bad1OracleSession()


class Bad2OraclePolicy(Policy):
    """Pull arm 1 once, then arm 2 forever (the trivial optimal schedule)."""

    tag = "bad2-oracle"

    def pull_counts(self, k, checkpoints, rng):
        if k != 2:
            raise DomainError("this oracle schedule is defined for exactly 2 arms")
        return np.array([(1, c - 1) for c in checkpoints], dtype=np.int64)


# -- functional forms of the selection rules (contract surface) -------------


def ucb_select(state: PolicyState, criterion: RiskCriterion, params: UcbParams) -> int:
    """Stateless optimism selection: recomputes every arm's score.

    Equivalent to the cached session used by the episode runner; ties break
    to the lowest arm index.
    """
    if state.t < state.k:
        return state.t
    t_now = state.t + 1
    best_arm = 0
    best_index = -math.inf
    for i in range(state.k):
        emp = EmpiricalDistribution.from_sorted(state.arm_samples_view(i))
        try:
            value = criterion.evaluate(emp)
        except Exception as exc:
            add_context(exc, f"criterion failed on arm {i}")
            raise
        bonus = phi_inv(params, params.ucb_alpha * math.log(t_now) / state.pull_counts[i])
        if value + bonus > best_index:
            best_index = value + bonus
            best_arm = i
    return best_arm


def simple_policy_select(p, rng: np.random.Generator) -> int:
    """One categorical draw from simplex weights p."""
    policy = SimplePolicy(p)
    return int(np.searchsorted(np.cumsum(policy.p)[:-1], rng.random(), side="right"))
