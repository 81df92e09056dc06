"""Bandit policies: stationary randomized play, optimism with modulus-derived
confidence radii, and the hand-built oracle schedules for the pathological
demonstration criteria.

A ``Policy`` is an immutable configuration, and equal configurations play
equal episodes on equal streams.  Open-loop policies (stationary
play, the Bad2 schedule) ignore rewards, so ``pull_counts`` hands over the
pull counts at every checkpoint in one call.  Closed-loop policies (optimism,
the Bad1 schedule) return ``None`` there; their ``start`` produces a
per-episode session, which is the episode's whole state: a
:class:`PolicyState` (pull counts and step) whose ``select`` picks the next
arm from past observations only, so replaying a recorded trajectory
reproduces every decision, and whose ``play`` pulls that arm in a run: the
first pull through ``update``, which hands each reward to the session
exactly once, then more pulls of the same arm for as long as the session's
own rule would select it again.  A run is the steps ``select`` would have
taken, with the same decisions and the same bits.

The optimism session folds each reward into the pulled arm's criterion
accumulator and re-scores that arm; the Bad1 session counts low rewards.
No session keeps the rewards themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .criteria import RiskCriterion, StabilityCertificate
from .errors import DomainError, add_context

__all__ = [
    "phi",
    "phi_inv",
    "PolicyState",
    "Policy",
    "UcbPolicy",
    "SimplePolicy",
    "Bad1OraclePolicy",
    "Bad2OraclePolicy",
    "check_ucb_alpha",
    "check_oracle_arms",
]


def check_ucb_alpha(alpha: float) -> None:
    """Refuse an exploration exponent that is not finite and above 2."""
    if not (math.isfinite(alpha) and alpha > 2):
        raise DomainError(f"ucb_alpha must be finite and exceed 2, got {alpha}")


def check_oracle_arms(k: int) -> None:
    """Refuse an oracle schedule on any arm count but the 2 it is defined for."""
    if k != 2:
        raise DomainError(f"this oracle schedule is defined for exactly 2 arms, got {k}")


def phi(cert: StabilityCertificate, y: float) -> float:
    """``min{a (y/2b)^2, a (y/2b)^(2/q)}`` for y >= 0."""
    if y < 0:
        raise DomainError(f"phi argument must be >= 0, got {y}")
    z = y / (2.0 * cert.b)
    return cert.a * min(z**2.0, z ** (2.0 / cert.q))


def phi_inv(cert: StabilityCertificate, x: float) -> float:
    """``max{2b (x/a)^(1/2), 2b (x/a)^(q/2)}``; inverse of :func:`phi`."""
    if x < 0:
        raise DomainError(f"phi_inv argument must be >= 0, got {x}")
    z = x / cert.a
    return 2.0 * cert.b * max(z**0.5, z ** (cert.q / 2.0))


class PolicyState:
    """Per-episode pull record: arm count ``k``, step ``t`` and
    ``pull_counts`` (a list of ints).

    ``update`` counts one pull and passes its reward to ``_observe``, the
    hook where a closed-loop session folds it into its own summary.
    ``play`` is a run of pulls of one arm; its default is one ``update``.
    Single-owner mutable within one episode; episodes never share state.
    """

    def __init__(self, k: int):
        if k < 1:
            raise DomainError(f"need at least one arm, got {k}")
        self.k = k
        self.t = 0
        self.pull_counts = [0] * k

    def update(self, arm: int, reward: float) -> None:
        if not (0 <= arm < self.k):
            raise DomainError(f"arm index {arm} out of range [0, {self.k})")
        self.pull_counts[arm] += 1
        self.t += 1
        self._observe(arm, reward)

    def _observe(self, arm: int, reward: float) -> None:
        """Take one reward of ``arm``; the bare record keeps nothing."""

    def play(self, arm: int, rewards: np.ndarray) -> int:
        """Pull ``arm``, which ``select`` just chose, and return the pulls made.

        ``rewards`` holds the rewards of ``arm`` the run may read, and the
        i-th pull takes ``rewards[i]``.  A run makes at least one pull and
        at most ``len(rewards)``, more than one only while ``select`` would
        choose ``arm`` again, and it reads no reward past its own pulls.
        The default makes one pull.
        """
        self.update(arm, rewards.item(0))
        return 1


class Policy:
    """Immutable policy configuration: open-loop policies override
    ``pull_counts``, closed-loop policies override ``start``."""

    def pull_counts(self, k: int, checkpoints, rng: np.random.Generator):
        """Pull counts (len(checkpoints), k), or None for closed-loop play."""
        return None

    def start(self, k: int, criterion: RiskCriterion) -> PolicyState:
        """Per-episode session whose ``select()`` picks the next arm and
        whose ``play`` pulls it."""
        raise NotImplementedError


class _UcbSession(PolicyState):
    """Optimism session: one criterion accumulator per arm, fed each reward
    as it is pulled and re-scored before the next decision.

    A run of the leader ends at a window of ``t // 32`` steps (capped at the
    rewards it may read), and earlier at the first step whose index the
    leader does not hold strictly above the challenger bound: the largest
    index any other arm reaches at the window's last step.  An index is the
    arm's value plus ``phi_inv(certificate, ucb_alpha * log(t + 1) / n)``.
    The bound is exact: an unpulled arm's index cannot fall from one step to
    the next, as ``ucb_alpha * log(t + 1)`` rises between integer steps by
    far more than its rounding error, and ``x / n / a``, the pow, the max
    and the sum with the arm's fixed value are monotone in floats.  So an
    index strictly above the bound is strictly above every other index at
    every step of the window, and ``select`` would take the leader there
    whatever the tie rule.  Any other case, ties included, ends the run and
    leaves the decision to ``select``.
    """

    def __init__(self, k, criterion, certificate, ucb_alpha):
        super().__init__(k)
        self.criterion = criterion
        self.certificate = certificate
        self.ucb_alpha = ucb_alpha
        self._summaries = [criterion.accumulator() for _ in range(k)]
        self._values = [0.0] * k
        self._stale = []  # arms pulled since their last score

    def _observe(self, arm, reward):
        self._summaries[arm].push(reward)
        self._stale.append(arm)

    def _rescore(self):
        """Score every arm pulled since its last score."""
        for i in self._stale:
            try:
                self._values[i] = self.criterion.evaluate(self._summaries[i])
            except Exception as exc:
                add_context(exc, f"criterion failed on arm {i}")
                raise
        self._stale.clear()

    def _index(self, arm, x):
        """Arm's optimism index at ``x = ucb_alpha * log(t + 1)``."""
        return self._values[arm] + phi_inv(self.certificate, x / self.pull_counts[arm])

    def select(self) -> int:
        self._rescore()
        t = self.t
        if t < self.k:
            return t  # one initialization pull per arm
        x = self.ucb_alpha * math.log(t + 1)
        best_arm = 0
        best_index = -math.inf
        for i in range(self.k):
            index = self._index(i, x)
            if index > best_index:
                best_index = index
                best_arm = i
        return best_arm

    def play(self, arm, rewards):
        self.update(arm, rewards.item(0))
        t = self.t
        end = min(t + t // 32, t + len(rewards) - 1)  # decisions at steps < end
        if t < self.k or end <= t:
            return 1
        self._rescore()
        x = self.ucb_alpha * math.log(end)
        bound = max((self._index(j, x) for j in range(self.k) if j != arm), default=-math.inf)
        # the leader's index is phi_inv's floats inline: calling phi_inv per
        # pull took 8 episodes at T = 1e4 from 0.15 s to 0.18 s
        cert = self.certificate
        a, two_b, half_q = cert.a, 2.0 * cert.b, cert.q / 2.0
        alpha, evaluate = self.ucb_alpha, self.criterion.evaluate
        summary, m, value = self._summaries[arm], self.pull_counts[arm], self._values[arm]
        pulls = 1
        while True:
            z = alpha * math.log(t + 1) / m / a
            root, power = z**0.5, z**half_q
            if not value + two_b * (power if power > root else root) > bound:
                self._values[arm] = value
                break
            summary.push(rewards.item(pulls))
            pulls += 1
            m += 1
            t += 1
            if t == end:
                self._stale.append(arm)
                break
            try:
                value = evaluate(summary)
            except Exception as exc:
                add_context(exc, f"criterion failed on arm {arm}")
                raise
        self.pull_counts[arm] = m
        self.t = t
        return pulls


@dataclass(frozen=True)
class UcbPolicy(Policy):
    """Optimism policy with confidence radii ``phi_inv`` of the certificate
    (a, b, q) and exploration exponent ``ucb_alpha > 2``."""

    certificate: StabilityCertificate
    ucb_alpha: float = 3.0

    def __post_init__(self):
        check_ucb_alpha(self.ucb_alpha)

    def start(self, k, criterion):
        return _UcbSession(k, criterion, self.certificate, self.ucb_alpha)


class SimplePolicy(Policy):
    """Stationary randomized policy: i.i.d. categorical arm draws."""

    def __init__(self, p):
        p = np.asarray(p, dtype=float)
        if p.ndim != 1 or len(p) == 0:
            raise DomainError("simple policy needs a non-empty weight vector")
        if not np.all(np.isfinite(p)):
            raise DomainError(f"weights must be finite, got {p}")
        if np.any(p < 0) or abs(float(np.sum(p)) - 1.0) > 1e-9:
            raise DomainError(f"weights must be a probability vector, got {p}")
        self.p = p / float(np.sum(p))
        self.p.setflags(write=False)

    def __eq__(self, other):
        # equal weights play equal episodes; dataclass equality fails on arrays
        if not isinstance(other, SimplePolicy):
            return NotImplemented
        return np.array_equal(self.p, other.p)

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


class _Bad1OracleSession(PolicyState):
    LEVEL = 0.1
    THRESHOLD = 1.0

    def __init__(self):
        super().__init__(2)
        self.low_count = 0  # pooled rewards <= THRESHOLD seen so far

    def _observe(self, arm, reward):
        if reward <= self.THRESHOLD:
            self.low_count += 1

    def select(self) -> int:
        if self.t == 0:
            return 1
        t_now = self.t + 1
        worst_case = (self.low_count + 1) / t_now
        return 1 if worst_case >= self.LEVEL else 0

    def play(self, arm, rewards):
        """Pull ``arm`` while ``select``'s test, recomputed each step, picks it."""
        self.update(arm, rewards.item(0))
        t, low = self.t, self.low_count
        end = t + len(rewards) - 1
        safe = arm == 1
        pulls = 1
        while t < end and ((low + 1) / (t + 1) >= self.LEVEL) == safe:
            if rewards.item(pulls) <= self.THRESHOLD:
                low += 1
            pulls += 1
            t += 1
        self.pull_counts[arm] += pulls - 1
        self.t, self.low_count = t, low
        return pulls


@dataclass(frozen=True)
class Bad1OraclePolicy(Policy):
    """Non-stationary oracle schedule for the two-quantile-sum criterion.

    Pulls the safe point-mass arm exactly when one more low reward could
    push the pooled CDF at the threshold up to the 0.1 level; otherwise
    rides the wide arm.  Keeps ``F_hat(1) < 0.1`` for the whole horizon.
    """

    def start(self, k, criterion):
        check_oracle_arms(k)
        return _Bad1OracleSession()


@dataclass(frozen=True)
class Bad2OraclePolicy(Policy):
    """Pull arm 1 once, then arm 2 forever (the trivial optimal schedule)."""

    def pull_counts(self, k, checkpoints, rng):
        check_oracle_arms(k)
        return np.array([(1, c - 1) for c in checkpoints], dtype=np.int64)

