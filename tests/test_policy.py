import heapq
import math

import numpy as np
import pytest

from riskbandits.criteria import (
    Bad1Criterion,
    CVaRCriterion,
    EntropicCriterion,
    MeanCriterion,
    MeanVarianceCriterion,
    NegTSVCriterion,
    NegVarianceCriterion,
    SecondMomentCriterion,
    SharpeCriterion,
    SortinoCriterion,
    StabilityCertificate,
    VaRCriterion,
    _LowerOrderStatistics,
    _neumaier_add,
    _RunningSums,
)
from riskbandits.dist import (
    EmpiricalDistribution,
    Gaussian,
    PointMass,
    RewardDistribution,
    TwoPoint,
    _quantile_rank,
)
from riskbandits.errors import CriterionDomainError, DomainError, add_context
from riskbandits.policy import (
    Bad1OraclePolicy,
    Bad2OraclePolicy,
    Policy,
    PolicyState,
    SimplePolicy,
    UcbPolicy,
    phi,
    phi_inv,
)
from riskbandits.sim import geometric_checkpoints, run_episode, run_replications

from conftest import RefusingCriterion, rng


# ---------------------------------------------------------------------------
# Reference selection rule: every arm scored from its full sample
# ---------------------------------------------------------------------------


class RewardRecord(PolicyState):
    """Pull record that also keeps every arm's rewards in arrival order."""

    def __init__(self, k):
        super().__init__(k)
        self.rewards = [[] for _ in range(k)]

    def _observe(self, arm, reward):
        self.rewards[arm].append(reward)

    def empirical(self, arm):
        """One arm's empirical distribution."""
        if not self.rewards[arm]:
            raise DomainError(f"arm {arm} has no observations yet")
        return EmpiricalDistribution(self.rewards[arm])

    def count_le(self, y):
        """Number of pooled rewards <= y (exact step-CDF numerator)."""
        return sum(x <= y for rewards in self.rewards for x in rewards)


def ucb_select(record, criterion, ucb):
    """Stateless optimism selection: recomputes every arm's score from its
    full sorted sample; ties break to the lowest arm index.

    The decision oracle for the optimism session, which scores running
    summaries instead.
    """
    if record.t < record.k:
        return record.t
    t_now = record.t + 1
    best_arm = 0
    best_index = -math.inf
    for i in range(record.k):
        try:
            value = criterion.evaluate(record.empirical(i))
        except Exception as exc:
            add_context(exc, f"criterion failed on arm {i}")
            raise
        bonus = phi_inv(ucb.certificate, ucb.ucb_alpha * math.log(t_now) / record.pull_counts[i])
        if value + bonus > best_index:
            best_index = value + bonus
            best_arm = i
    return best_arm


def _feed(reward_sequence, *states):
    for arm, x in reward_sequence:
        for st in states:
            st.update(arm, x)


# ---------------------------------------------------------------------------
# Confidence radii
# ---------------------------------------------------------------------------


def test_phi_examples():
    p = StabilityCertificate(1.0, 1.0, 2.0)
    assert phi(p, 2.0) == 1.0
    assert phi_inv(p, 4.0) == 8.0
    assert phi(p, 0.0) == 0.0


def test_phi_inverse_identity_log_grid():
    for q in (1.0, 2.0, 3.0):
        p = StabilityCertificate(0.7, 2.3, q)
        for x in np.logspace(-4, 4, 30):
            assert phi(p, phi_inv(p, float(x))) == pytest.approx(float(x), rel=1e-12)


def test_phi_domain_and_params_validation():
    p = StabilityCertificate(1.0, 1.0, 2.0)
    with pytest.raises(DomainError):
        phi(p, -0.1)
    with pytest.raises(DomainError):
        phi_inv(p, -0.1)
    with pytest.raises(DomainError, match="exceed 2"):
        UcbPolicy(p, ucb_alpha=2.0)
    with pytest.raises(DomainError):
        StabilityCertificate(0.0, 1.0, 2.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["a", "b", "q", "ucb_alpha"])
def test_ucb_params_reject_non_finite(field, bad):
    values = {"a": 1.0, "b": 1.0, "q": 2.0, "ucb_alpha": 3.0, field: bad}
    alpha = values.pop("ucb_alpha")
    with pytest.raises(DomainError, match="finite"):
        UcbPolicy(StabilityCertificate(**values), alpha)


# ---------------------------------------------------------------------------
# Policy state bookkeeping
# ---------------------------------------------------------------------------


def test_update_bookkeeping():
    crit = MeanCriterion()
    ucb = UcbPolicy(StabilityCertificate(1.0, 1.0, 2.0), 3.0)
    st = RewardRecord(3)
    session = ucb.start(3, crit)
    _feed([(0, 5.0)], st, session)
    assert st.t == session.t == 1
    assert st.pull_counts == session.pull_counts == [1, 0, 0]
    assert st.empirical(0).samples.tolist() == [5.0]
    _feed([(1, 2.0), (0, -1.0), (2, 0.5), (1, 3.0)], st, session)
    assert st.t == session.t == sum(st.pull_counts) == 5
    assert session.pull_counts == st.pull_counts
    for i in range(3):
        assert st.empirical(i).t == st.pull_counts[i]
    assert st.count_le(2.0) == 3
    for state in (st, session, PolicyState(3)):
        with pytest.raises(DomainError):
            state.update(3, 0.0)
        with pytest.raises(DomainError):
            state.update(-1, 0.0)
    assert session.t == 5 and session.pull_counts == [2, 2, 1]
    with pytest.raises(DomainError):
        PolicyState(0)


def test_replay_reproduces_state():
    r = rng(2)
    trajectory = [(int(r.integers(0, 2)), float(r.normal())) for _ in range(200)]
    ucb = UcbPolicy(StabilityCertificate(0.77, 0.6, 2.0), 3.0)

    def replay():
        record = RewardRecord(2)
        session = ucb.start(2, CVaRCriterion(0.2))
        decisions = []
        for step in trajectory:
            _feed([step], record, session)
            decisions.append(session.select())
        return record, session, decisions

    (a, sa, da), (b, sb, db) = replay(), replay()
    assert da == db
    assert a.pull_counts == b.pull_counts == sa.pull_counts == sb.pull_counts
    for i in range(2):
        assert np.array_equal(a.empirical(i).samples, b.empirical(i).samples)


# ---------------------------------------------------------------------------
# Optimism selection
# ---------------------------------------------------------------------------


def test_ucb_initialization_round_robin():
    ucb = UcbPolicy(StabilityCertificate(1.0, 1.0, 2.0), 3.0)
    crit = MeanCriterion()
    st = RewardRecord(3)
    session = ucb.start(3, crit)
    assert ucb_select(st, crit, ucb) == session.select() == 0
    _feed([(0, 1.0)], st, session)
    assert ucb_select(st, crit, ucb) == session.select() == 1
    _feed([(1, 0.0)], st, session)
    assert ucb_select(st, crit, ucb) == session.select() == 2


def test_ucb_hand_arithmetic():
    # two arms, one observation each, decision at time 3
    ucb = UcbPolicy(StabilityCertificate(1.0, 1.0, 2.0), 3.0)
    st = RewardRecord(2)
    session = ucb.start(2, MeanCriterion())
    _feed([(0, 0.5), (1, 0.2)], st, session)
    bonus = phi_inv(ucb.certificate, 3.0 * math.log(3.0))
    assert bonus == pytest.approx(6.5917, abs=1e-4)
    assert ucb_select(st, MeanCriterion(), ucb) == 0
    assert session.select() == 0


def test_ucb_tie_breaks_to_lowest_index():
    ucb = UcbPolicy(StabilityCertificate(1, 1, 2), 3)
    st = RewardRecord(2)
    session = ucb.start(2, MeanCriterion())
    _feed([(0, 0.7), (1, 0.7)], st, session)
    assert ucb_select(st, MeanCriterion(), ucb) == 0
    assert session.select() == 0


def test_ucb_session_matches_functional_rule():
    arms = [Gaussian(0, 1), Gaussian(-0.3, 1), Gaussian(0.2, 2)]
    crit = CVaRCriterion(0.2)
    ucb = UcbPolicy(StabilityCertificate(0.77, 0.6, 2.0), 3.0)
    session = ucb.start(3, crit)
    st = RewardRecord(3)
    streams = [d.sample(rng(100 + i), 400) for i, d in enumerate(arms)]
    cursors = [0, 0, 0]
    for _ in range(300):
        want = ucb_select(st, crit, ucb)
        got = session.select()
        assert got == want
        _feed([(got, float(streams[got][cursors[got]]))], st, session)
        cursors[got] += 1


def test_ucb_failure_context_keeps_the_exception():
    ucb = UcbPolicy(StabilityCertificate(1.0, 1.0, 2.0), 3.0)
    st = RewardRecord(2)
    session = ucb.start(2, RefusingCriterion())
    # the session scores an arm at the first select after its reward,
    # so the failure surfaces inside the initialization round
    early = ucb.start(2, RefusingCriterion())
    assert early.select() == 0
    early.update(0, 0.5)
    _feed([(0, 0.5), (1, 0.2)], st, session)
    for select in (
        lambda: ucb_select(st, RefusingCriterion(), ucb),
        session.select,
        early.select,
    ):
        with pytest.raises(CriterionDomainError, match="criterion failed on arm 0") as info:
            select()
        assert info.value.constraint == "lower-tail finite"


# ---------------------------------------------------------------------------
# Simple policies
# ---------------------------------------------------------------------------


def test_simple_vertex_always_same_arm():
    tau = SimplePolicy([1.0, 0.0]).pull_counts(2, range(1, 21), rng(0))
    assert np.array_equal(tau[:, 0], np.arange(1, 21)) and not tau[:, 1].any()


@pytest.mark.parametrize("p", [[0.3, 0.2, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 0.5]])
def test_simple_pull_counts_match_step_draws(p):
    checkpoints = (3, 7, 50, 51, 400)
    policy = SimplePolicy(p)
    tau = policy.pull_counts(3, checkpoints, rng(4))
    r = rng(4)
    # reference: one categorical draw per step
    cum = np.cumsum(policy.p)[:-1]
    arms = [int(np.searchsorted(cum, r.random(), side="right")) for _ in range(checkpoints[-1])]
    want = [np.bincount(arms[:c], minlength=3) for c in checkpoints]
    assert np.array_equal(tau, want)


def test_simple_policy_frequencies_binomial():
    n = 100_000
    tau = SimplePolicy([0.5, 0.5]).pull_counts(2, [n], rng(6))
    # binomial CI: 4 sigma = 4 * 0.5 / sqrt(n) ~ 0.0063 < 0.01
    assert abs(tau[-1, 1] / n - 0.5) < 0.01


def test_simple_policy_deterministic():
    policy = SimplePolicy([0.3, 0.2, 0.5])
    a = policy.pull_counts(3, range(1, 51), rng(9))
    b = policy.pull_counts(3, range(1, 51), rng(9))
    assert np.array_equal(a, b)


def test_simple_policy_validation():
    with pytest.raises(DomainError):
        SimplePolicy([0.6, 0.6])
    with pytest.raises(DomainError):
        SimplePolicy([-0.1, 1.1])
    with pytest.raises(DomainError):
        SimplePolicy([0.5, 0.5]).pull_counts(3, (3,), rng(0))


@pytest.mark.parametrize("p", [[math.nan, 0.0, 1.0], [math.inf, 0.0, 1.0], [0.5, 0.5, math.nan]])
def test_simple_policy_rejects_non_finite_weights(p):
    with pytest.raises(DomainError, match="finite"):
        SimplePolicy(p)


def test_simple_policy_pull_frequency_convergence():
    # ||empirical pull frequencies - p||_inf decreases with the horizon
    p = np.array([0.2, 0.5, 0.3])
    medians = []
    for horizon in (100, 400, 1600):
        errs = []
        for rep in range(100):
            r = rng(1000 + rep)
            counts = SimplePolicy(p).pull_counts(3, (horizon,), r)[-1]
            errs.append(np.max(np.abs(counts / horizon - p)))
        medians.append(float(np.median(errs)))
    assert medians[0] > medians[1] > medians[2]


# ---------------------------------------------------------------------------
# Oracle schedules for the pathological criteria
# ---------------------------------------------------------------------------


def test_bad1_oracle_guard_examples():
    session = Bad1OraclePolicy().start(2, None)
    assert session.select() == 1  # first pull: the safe arm
    session.update(1, 5.0)
    # one low reward would give (0 + 1)/2 = 0.5 >= 0.1: stay on the safe arm
    assert session.select() == 1
    # after enough high rewards the wide arm becomes safe to pull
    for _ in range(9):
        session.update(1, 5.0)
    assert session.low_count == 0
    assert (session.low_count + 1) / (session.t + 1) == pytest.approx(1 / 11)
    assert session.select() == 0
    # a reward at the threshold counts as low
    session.update(0, session.THRESHOLD)
    assert session.low_count == 1 and session.select() == 1


def test_bad1_oracle_low_count_matches_count_le_every_step():
    from conftest import bad1_arm_wide

    arms = [bad1_arm_wide(), PointMass(5.0)]
    session = Bad1OraclePolicy().start(2, None)
    st = RewardRecord(2)
    streams = [d.sample(rng(40 + i), 3000) for i, d in enumerate(arms)]
    for _ in range(3000):
        arm = session.select()
        low = st.count_le(session.THRESHOLD)
        assert session.low_count == low
        want = 1 if st.t == 0 or (low + 1) / (st.t + 1) >= session.LEVEL else 0
        assert arm == want
        _feed([(arm, float(streams[arm][st.pull_counts[arm]]))], st, session)
    assert session.pull_counts == st.pull_counts
    assert 0 < st.count_le(session.THRESHOLD) < st.t


def test_bad1_oracle_keeps_low_mass_under_level():
    from conftest import bad1_arm_wide

    arms = [bad1_arm_wide(), PointMass(5.0)]
    ep = run_episode(arms, Bad1OraclePolicy(), MeanCriterion(), 4000, [4000], seed=3)
    # the wide arm dominates the pull counts in the long run
    assert ep.tau[-1][0] / 4000 > 0.8


def test_bad2_oracle_schedule():
    tau = Bad2OraclePolicy().pull_counts(2, range(1, 7), rng(0))
    assert tau[0].tolist() == [1, 0]  # first pull: arm 1
    assert all(step.tolist() == [0, 1] for step in np.diff(tau, axis=0))


def test_oracle_schedules_need_two_arms():
    with pytest.raises(DomainError):
        Bad1OraclePolicy().start(3, None)
    with pytest.raises(DomainError):
        Bad2OraclePolicy().pull_counts(1, (1,), rng(0))


def test_equal_configurations_compare_equal():
    # simulate plays each distinct policy once, so equality is by value
    cert = StabilityCertificate(0.77, 0.5, 2.0)
    assert SimplePolicy([1, 0, 0]) == SimplePolicy(np.array([1.0, 0.0, 0.0]))
    assert SimplePolicy([0.5, 0.5]) != SimplePolicy([0.4, 0.6])
    assert SimplePolicy([1.0]) != SimplePolicy([1.0, 0.0])
    assert Bad1OraclePolicy() == Bad1OraclePolicy() != Bad2OraclePolicy()
    assert Bad2OraclePolicy() == Bad2OraclePolicy()
    assert UcbPolicy(cert, 3.0) == UcbPolicy(StabilityCertificate(0.77, 0.5, 2.0), 3.0)
    assert UcbPolicy(cert, 3.0) != UcbPolicy(cert, 4.0)
    assert SimplePolicy([1.0, 0.0]) != Bad2OraclePolicy()
    assert Bad2OraclePolicy() != SimplePolicy([1.0, 0.0])


_SESSION_CRITERIA = [
    CVaRCriterion(0.1),
    VaRCriterion(0.2),
    MeanCriterion(),
    SecondMomentCriterion(),
    NegTSVCriterion(1.0),
    EntropicCriterion(0.7),
    NegVarianceCriterion(),
    MeanVarianceCriterion(0.2),
    SharpeCriterion(0.0, 0.5),
    SortinoCriterion(0.0, 0.5),
    Bad1Criterion(),
]

_SESSION_ARMS = {
    "gaussian": [Gaussian(1.5, 1.0), Gaussian(1.3, 0.5), Gaussian(1.0, 2.0)],
    # tied rewards: quantiles and scores tie within and across arms
    "ties": [TwoPoint(0.9, 0.0, 1.0), PointMass(0.8), TwoPoint(0.85, 0.5, 1.0)],
}


def _indices(state, crit, ucb):
    """Every arm's optimism index, each scored on its full sorted sample."""
    log_t = math.log(state.t + 1)
    return [
        crit.evaluate(state.empirical(i))
        + phi_inv(ucb.certificate, ucb.ucb_alpha * log_t / state.pull_counts[i])
        for i in range(state.k)
    ]


@pytest.mark.parametrize("arms", list(_SESSION_ARMS))
@pytest.mark.parametrize("crit", _SESSION_CRITERIA, ids=lambda c: c.tag)
def test_ucb_session_matches_functional_rule_over_seeds(crit, arms):
    # The session scores running summaries, whose last bits may differ from
    # a full-sample score: on an exact index tie it may take the other tied
    # arm, and nowhere else.
    arm_set = _SESSION_ARMS[arms]
    ucb = UcbPolicy(StabilityCertificate(0.77, 0.6, 2.0), 3.0)
    for seed in range(20):
        session = ucb.start(3, crit)
        st = RewardRecord(3)
        streams = [d.sample(rng(1000 * seed + i), 120) for i, d in enumerate(arm_set)]
        for _ in range(120):
            got = session.select()
            want = ucb_select(st, crit, ucb)
            if got != want:
                index = _indices(st, crit, ucb)
                assert index[got] == pytest.approx(index[want], rel=1e-12, abs=0.0)
            _feed([(got, float(streams[got][st.pull_counts[got]]))], st, session)


# ---------------------------------------------------------------------------
# Step oracle: the optimism session and the summaries as first written, with
# phi_inv called per arm, the rank recomputed and the sums added by call
# ---------------------------------------------------------------------------


class _OracleLowerOrderStatistics(_LowerOrderStatistics):
    def push(self, x):
        self.t += 1
        k = _quantile_rank(self.alpha, self.t)
        low = self._low
        if low and x < -low[0]:
            if len(low) == k:
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


class _OracleRunningSums(_RunningSums):
    def push(self, x):
        self.t += 1
        for integrand, param, acc in self._terms:
            acc[0], acc[1] = _neumaier_add(acc[0], acc[1], integrand(x, param))


def _oracle_accumulator(criterion):
    summary = criterion.accumulator()
    if type(summary) is _LowerOrderStatistics:
        return _OracleLowerOrderStatistics(criterion.alpha)
    if type(summary) is _RunningSums:
        return _OracleRunningSums(criterion.functionals)
    return summary


class _OracleUcbSession(PolicyState):
    def __init__(self, k, criterion, certificate, ucb_alpha):
        super().__init__(k)
        self.criterion = criterion
        self.certificate = certificate
        self.ucb_alpha = ucb_alpha
        self._summaries = [_oracle_accumulator(criterion) for _ in range(k)]
        self._values = [0.0] * k
        self._stale = []
        self.ties = 0  # decisions where two arms share the largest index

    def _observe(self, arm, reward):
        self._summaries[arm].push(reward)
        self._stale.append(arm)

    def select(self):
        for i in self._stale:
            self._values[i] = self.criterion.evaluate(self._summaries[i])
        self._stale.clear()
        if self.t < self.k:
            return self.t
        cert, alpha = self.certificate, self.ucb_alpha
        log_t = math.log(self.t + 1)
        index = [
            self._values[i] + phi_inv(cert, alpha * log_t / n)
            for i, n in enumerate(self.pull_counts)
        ]
        self.ties += index.count(max(index)) > 1
        best_arm = 0
        best_index = -math.inf
        for i, value in enumerate(index):
            if value > best_index:
                best_index = value
                best_arm = i
        return best_arm


class _OracleBad1Session(PolicyState):
    """The Bad1 schedule as first written: one ``select`` per step."""

    def __init__(self):
        super().__init__(2)
        self.low_count = 0

    def _observe(self, arm, reward):
        self.low_count += reward <= 1.0

    def select(self):
        if self.t == 0:
            return 1
        return 1 if (self.low_count + 1) / (self.t + 1) >= 0.1 else 0


def _same_state(session, oracle):
    """Pull counts, and the arm scores or the low count, to the bit."""
    assert session.t == oracle.t and session.pull_counts == oracle.pull_counts
    if isinstance(oracle, _OracleUcbSession):
        assert np.array(session._values).tobytes() == np.array(oracle._values).tobytes()
    else:
        assert session.low_count == oracle.low_count


def _play_against_oracle(session, oracle, streams, checkpoints):
    """Play ``session`` in runs as the episode runner does, cut at each
    checkpoint and at the end of each arm's doubling blocks (64, 128, 256,
    ... rewards), and step ``oracle`` once per pull on the same rewards.
    Both must pick the same arm at every step and hold the same state at
    every ``select``.  Returns how often a run was cut (by the checkpoint,
    by the block end) where the oracle then took the same arm again."""
    drawn = [0] * len(streams)
    cuts = [0, 0]
    for c in checkpoints:
        while session.t < c:
            arm = session.select()
            assert oracle.select() == arm
            _same_state(session, oracle)
            n = session.pull_counts[arm]
            if n == drawn[arm]:
                drawn[arm] += max(n, 64)
            pulls = session.play(arm, streams[arm][n : min(drawn[arm], n + c - session.t)])
            assert pulls >= 1 and session.t <= c and n + pulls <= drawn[arm]
            for i in range(pulls):
                if i:
                    assert oracle.select() == arm
                oracle.update(arm, float(streams[arm][n + i]))
            assert session.pull_counts == oracle.pull_counts
            if session.t < checkpoints[-1] and oracle.select() == arm:
                cuts[0] += session.t == c
                cuts[1] += n + pulls == drawn[arm]
    assert session.select() == oracle.select()
    _same_state(session, oracle)
    return cuts


def _ucb_against_oracle(ucb, crit, streams, horizon):
    session = ucb.start(len(streams), crit)
    oracle = _OracleUcbSession(len(streams), crit, ucb.certificate, ucb.ucb_alpha)
    cuts = _play_against_oracle(session, oracle, streams, geometric_checkpoints(3, horizon))
    return session, oracle, cuts


@pytest.mark.parametrize("arms", list(_SESSION_ARMS))
@pytest.mark.parametrize("crit", _SESSION_CRITERIA, ids=lambda c: c.tag)
def test_ucb_session_is_bit_identical_to_the_step_oracle(crit, arms):
    arm_set = _SESSION_ARMS[arms]
    ucb = UcbPolicy(StabilityCertificate(0.77, 0.6, 2.0), 3.0)
    for seed in range(20):
        streams = [d.sample(rng(1000 * seed + i), 120) for i, d in enumerate(arm_set)]
        _ucb_against_oracle(ucb, crit, streams, 120)


def test_ucb_session_is_bit_identical_to_the_step_oracle_on_a_long_cvar_episode():
    # the arms and certificate of the pull-bound acceptance test, T = 1e4
    arm_set = [Gaussian(0.0, 1.0), Gaussian(-0.75, 1.0), Gaussian(-1.5, 1.0)]
    ucb = UcbPolicy(StabilityCertificate(2.0, 0.45, 2.0), 3.0)
    streams = [d.sample(rng(31 + i), 10_000) for i, d in enumerate(arm_set)]
    session, _, cuts = _ucb_against_oracle(ucb, CVaRCriterion(0.1), streams, 10_000)
    assert min(session.pull_counts) < 1000 < max(session.pull_counts)
    # runs were cut by checkpoints and by block ends where the leader held
    assert min(cuts) > 0, cuts


@pytest.mark.parametrize("crit", [CVaRCriterion(0.1), VaRCriterion(0.2), MeanVarianceCriterion(0.2)],
                         ids=lambda c: c.tag)
def test_ucb_runs_hand_exact_index_ties_to_select(crit):
    # equal arms on equal streams: whenever two arms hold the same pull
    # count they hold the same score, so their indices tie to the bit
    stream = Gaussian(0.0, 1.0).sample(rng(5), 3000)
    ucb = UcbPolicy(StabilityCertificate(2.0, 0.45, 2.0), 3.0)
    _, oracle, _ = _ucb_against_oracle(ucb, crit, [stream] * 3, 3000)
    assert oracle.ties > 0


def test_bad1_runs_are_bit_identical_to_the_step_oracle():
    from conftest import bad1_arm_wide

    arms = [bad1_arm_wide(), PointMass(5.0)]
    for seed in range(20):
        streams = [d.sample(rng(40 + 7 * seed + i), 3000) for i, d in enumerate(arms)]
        session = Bad1OraclePolicy().start(2, None)
        cuts = _play_against_oracle(
            session, _OracleBad1Session(), streams, geometric_checkpoints(2, 3000)
        )
        assert session.pull_counts[0] > 2000
    assert min(cuts) > 0, cuts


def test_default_play_is_one_update():
    session = PolicyState(2)
    assert session.play(1, np.array([3.0, 4.0])) == 1
    assert session.t == 1 and session.pull_counts == [0, 1]


class _FailsAfter(CVaRCriterion):
    """CVaR that fails once an accumulator holds ``limit`` rewards."""

    def __init__(self, alpha, limit, error):
        super().__init__(alpha)
        self.limit, self.error = limit, error

    def evaluate(self, f):
        if not isinstance(f, EmpiricalDistribution) and f.t >= self.limit:
            raise self.error("bug in the criterion")
        return super().evaluate(f)


@pytest.mark.parametrize("error", [TypeError, CriterionDomainError])
def test_a_failure_inside_a_run_keeps_its_context(error):
    arms = [Gaussian(0.0, 1.0), Gaussian(-0.75, 1.0), Gaussian(-1.5, 1.0)]
    ucb = UcbPolicy(StabilityCertificate(2.0, 0.45, 2.0), 3.0)
    with pytest.raises(error, match=r"replication 0: criterion failed on arm 0: bug") as info:
        run_replications(arms, ucb, _FailsAfter(0.1, 500, error), 2000, 2, seed=3)
    # raised by the run's own scoring, not by a select: a bug or a domain
    # error while playing propagates and never becomes a flagged checkpoint
    frames = [entry.name for entry in info.traceback]
    assert "play" in frames and "select" not in frames


class _StepwisePolicy(Policy):
    """Plays a step-oracle session, which defines only ``select``, through
    the default one-pull ``play``."""

    def __init__(self, session):
        self.session = session

    def start(self, k, criterion):
        return self.session(k, criterion)


_CERT = StabilityCertificate(2.0, 0.45, 2.0)
_GAUSSIANS = [Gaussian(0.0, 1.0), Gaussian(-0.75, 1.0), Gaussian(-1.5, 1.0)]


def _closed_loop_cases():
    from conftest import bad1_arm_wide

    bad1 = _StepwisePolicy(lambda k, crit: _OracleBad1Session())
    yield "bad1", [bad1_arm_wide(), PointMass(5.0)], Bad1OraclePolicy(), bad1, Bad1Criterion()
    for crit in (CVaRCriterion(0.1), MeanVarianceCriterion(0.2)):
        steps = _StepwisePolicy(lambda k, c: _OracleUcbSession(k, c, _CERT, 3.0))
        yield f"ucb-{crit.tag}", _GAUSSIANS, UcbPolicy(_CERT, 3.0), steps, crit


_CLOSED_LOOP = {case[0]: case[1:] for case in _closed_loop_cases()}


def _same_episode(a, b):
    for name in ("tau", "pooled_values", "proxy_values", "flagged"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


@pytest.mark.parametrize("case", list(_CLOSED_LOOP))
def test_closed_loop_episodes_are_the_step_oracles_episodes(case):
    arms, policy, stepwise, crit = _CLOSED_LOOP[case]
    for seed, checkpoints in ((5, None), (6, [3, 100, 101, 1000, 4000])):
        episode = run_episode(arms, policy, crit, 4000, checkpoints, seed=seed)
        _same_episode(episode, run_episode(arms, stepwise, crit, 4000, checkpoints, seed=seed))


@pytest.mark.parametrize("case", list(_CLOSED_LOOP))
def test_a_run_reads_no_reward_past_its_pulls(monkeypatch, case):
    # the same episode with every draw past each arm's final pull count
    # replaced by NaN: a run that read one would score or count it
    arms, policy, _, crit = _CLOSED_LOOP[case]
    episode = run_episode(arms, policy, crit, 4000, seed=11)
    pulled = {id(arm): int(n) for arm, n in zip(arms, episode.tau[-1])}
    drawn = dict.fromkeys(pulled, 0)
    sample = RewardDistribution.sample

    def nan_past_the_pulls(self, rng, n):
        out = sample(self, rng, n)
        out[max(0, pulled[id(self)] - drawn[id(self)]):] = np.nan
        drawn[id(self)] += n
        return out

    monkeypatch.setattr(RewardDistribution, "sample", nan_past_the_pulls)
    _same_episode(episode, run_episode(arms, policy, crit, 4000, seed=11))
    assert sum(drawn.values()) > sum(pulled.values())
