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
    VaRCriterion,
)
from riskbandits.dist import Gaussian, PointMass, TwoPoint
from riskbandits.errors import CriterionDomainError, DomainError
from riskbandits.policy import (
    Bad1OraclePolicy,
    Bad2OraclePolicy,
    PolicyState,
    SimplePolicy,
    UcbParams,
    UcbPolicy,
    phi,
    phi_inv,
    ucb_select,
)

from conftest import RefusingCriterion, rng


# ---------------------------------------------------------------------------
# Confidence radii
# ---------------------------------------------------------------------------


def test_phi_examples():
    p = UcbParams(1.0, 1.0, 2.0)
    assert phi(p, 2.0) == 1.0
    assert phi_inv(p, 4.0) == 8.0
    assert phi(p, 0.0) == 0.0


def test_phi_inverse_identity_log_grid():
    for q in (1.0, 2.0, 3.0):
        p = UcbParams(0.7, 2.3, q)
        for x in np.logspace(-4, 4, 30):
            assert phi(p, phi_inv(p, float(x))) == pytest.approx(float(x), rel=1e-12)


def test_phi_domain_and_params_validation():
    p = UcbParams(1.0, 1.0, 2.0)
    with pytest.raises(DomainError):
        phi(p, -0.1)
    with pytest.raises(DomainError):
        phi_inv(p, -0.1)
    with pytest.raises(DomainError):
        UcbParams(1.0, 1.0, 2.0, ucb_alpha=2.0)
    with pytest.raises(DomainError):
        UcbParams(0.0, 1.0, 2.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["a", "b", "q", "ucb_alpha"])
def test_ucb_params_reject_non_finite(field, bad):
    values = {"a": 1.0, "b": 1.0, "q": 2.0, "ucb_alpha": 3.0, field: bad}
    with pytest.raises(DomainError, match="finite"):
        UcbParams(**values)


# ---------------------------------------------------------------------------
# Policy state bookkeeping
# ---------------------------------------------------------------------------


def test_update_bookkeeping():
    st = PolicyState(3)
    st.update(0, 5.0)
    assert st.t == 1
    assert list(st.pull_counts) == [1, 0, 0]
    assert st.empirical(0).samples.tolist() == [5.0]
    seq = [(1, 2.0), (0, -1.0), (2, 0.5), (1, 3.0)]
    for arm, x in seq:
        st.update(arm, x)
    assert st.t == int(st.pull_counts.sum()) == 5
    for i in range(3):
        assert st.empirical(i).t == st.pull_counts[i]
    assert st.count_le(2.0) == 3
    with pytest.raises(DomainError):
        st.update(3, 0.0)


def test_replay_reproduces_state():
    r = rng(2)
    trajectory = [(int(r.integers(0, 2)), float(r.normal())) for _ in range(200)]
    a, b = PolicyState(2), PolicyState(2)
    for arm, x in trajectory:
        a.update(arm, x)
    for arm, x in trajectory:
        b.update(arm, x)
    assert np.array_equal(a.pull_counts, b.pull_counts)
    for i in range(2):
        assert np.array_equal(a.empirical(i).samples, b.empirical(i).samples)


# ---------------------------------------------------------------------------
# Optimism selection
# ---------------------------------------------------------------------------


def test_ucb_initialization_round_robin():
    st = PolicyState(3)
    params = UcbParams(1.0, 1.0, 2.0, 3.0)
    crit = MeanCriterion()
    assert ucb_select(st, crit, params) == 0
    st.update(0, 1.0)
    assert ucb_select(st, crit, params) == 1
    st.update(1, 0.0)
    assert ucb_select(st, crit, params) == 2


def test_ucb_hand_arithmetic():
    # two arms, one observation each, decision at time 3
    st = PolicyState(2)
    st.update(0, 0.5)
    st.update(1, 0.2)
    params = UcbParams(1.0, 1.0, 2.0, 3.0)
    bonus = phi_inv(params, 3.0 * math.log(3.0))
    assert bonus == pytest.approx(6.5917, abs=1e-4)
    assert ucb_select(st, MeanCriterion(), params) == 0


def test_ucb_tie_breaks_to_lowest_index():
    st = PolicyState(2)
    st.update(0, 0.7)
    st.update(1, 0.7)
    assert ucb_select(st, MeanCriterion(), UcbParams(1, 1, 2, 3)) == 0


def test_ucb_session_matches_functional_rule():
    arms = [Gaussian(0, 1), Gaussian(-0.3, 1), Gaussian(0.2, 2)]
    crit = CVaRCriterion(0.2)
    params = UcbParams(0.77, 0.6, 2.0, 3.0)
    session = UcbPolicy(params).start(3, crit, rng(0))
    st = PolicyState(3)
    streams = [d.sample(rng(100 + i), 400) for i, d in enumerate(arms)]
    cursors = [0, 0, 0]
    for _ in range(300):
        want = ucb_select(st, crit, params)
        got = session.select(st)
        assert got == want
        st.update(got, float(streams[got][cursors[got]]))
        cursors[got] += 1


def test_ucb_failure_context_keeps_the_exception():
    st = PolicyState(2)
    st.update(0, 0.5)
    st.update(1, 0.2)
    params = UcbParams(1.0, 1.0, 2.0, 3.0)
    session = UcbPolicy(params).start(2, RefusingCriterion(), rng(0))
    for select in (lambda: ucb_select(st, RefusingCriterion(), params), lambda: session.select(st)):
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
    session = Bad1OraclePolicy().start(2, None, rng(0))
    st = PolicyState(2)
    assert session.select(st) == 1  # first pull: the safe arm
    st.update(1, 5.0)
    # one low reward would give (0 + 1)/2 = 0.5 >= 0.1: stay on the safe arm
    assert session.select(st) == 1
    # after enough high rewards the wide arm becomes safe to pull
    for _ in range(9):
        st.update(1, 5.0)
    assert (st.count_le(1.0) + 1) / (st.t + 1) == pytest.approx(1 / 11)
    assert session.select(st) == 0


def test_bad1_oracle_low_count_matches_count_le_every_step():
    from conftest import bad1_arm_wide

    arms = [bad1_arm_wide(), PointMass(5.0)]
    session = Bad1OraclePolicy().start(2, None, rng(0))
    st = PolicyState(2)
    streams = [d.sample(rng(40 + i), 3000) for i, d in enumerate(arms)]
    for _ in range(3000):
        arm = session.select(st)
        low = st.count_le(session.THRESHOLD)
        assert session.low_count == low
        want = 1 if st.t == 0 or (low + 1) / (st.t + 1) >= session.LEVEL else 0
        assert arm == want
        st.update(arm, float(streams[arm][st.pull_counts[arm]]))
    assert 0 < st.count_le(session.THRESHOLD) < st.t


def test_bad1_oracle_keeps_low_mass_under_level():
    from riskbandits.sim import run_episode
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
        Bad1OraclePolicy().start(3, None, rng(0))
    with pytest.raises(DomainError):
        Bad2OraclePolicy().pull_counts(1, (1,), rng(0))


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


def _indices(state, crit, params):
    """Every arm's optimism index, each scored on its full sorted sample."""
    log_t = math.log(state.t + 1)
    return [
        crit.evaluate(state.empirical(i))
        + phi_inv(params, params.ucb_alpha * log_t / state.pull_counts[i])
        for i in range(state.k)
    ]


@pytest.mark.parametrize("arms", list(_SESSION_ARMS))
@pytest.mark.parametrize("crit", _SESSION_CRITERIA, ids=lambda c: c.tag)
def test_ucb_session_matches_functional_rule_over_seeds(crit, arms):
    # The session scores running summaries, whose last bits may differ from
    # a full-sample score: on an exact index tie it may take the other tied
    # arm, and nowhere else.
    arm_set = _SESSION_ARMS[arms]
    params = UcbParams(0.77, 0.6, 2.0, 3.0)
    for seed in range(20):
        session = UcbPolicy(params).start(3, crit, rng(seed))
        st = PolicyState(3)
        streams = [d.sample(rng(1000 * seed + i), 120) for i, d in enumerate(arm_set)]
        for _ in range(120):
            got = session.select(st)
            want = ucb_select(st, crit, params)
            if got != want:
                index = _indices(st, crit, params)
                assert index[got] == pytest.approx(index[want], rel=1e-12, abs=0.0)
            st.update(got, float(streams[got][st.pull_counts[got]]))
