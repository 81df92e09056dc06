import bisect
import math

import numpy as np
import pytest

from riskbandits.criteria import (
    Bad1Criterion,
    Bad2Criterion,
    CVaRCriterion,
    MeanCriterion,
    NegVarianceCriterion,
    RiskCriterion,
)
from riskbandits.dist import (
    EmpiricalDistribution,
    Gaussian,
    PointMass,
    TwoPoint,
    Uniform,
    proxy_distribution,
)
from riskbandits.errors import DomainError
from riskbandits.norms import NormSpec
from riskbandits.policy import (
    Bad1OraclePolicy,
    Bad2OraclePolicy,
    PolicyState,
    SimplePolicy,
    UcbParams,
    UcbPolicy,
)
from riskbandits.sim import (
    RegretReport,
    dkw_exceedance,
    estimate_horizon_gap,
    estimate_performance,
    estimate_proxy_regret,
    estimate_reference_regret,
    geometric_checkpoints,
    rate_curve,
    read_report_csv,
    run_episode,
    run_replications,
    write_report_csv,
)

from conftest import bad1_arm_wide, bad2_arm_steep, bad2_arm_step


def step_loop_episode(arms, policy, criterion, horizon, checkpoints=None, seed=0, rep=0):
    """Reference engine: the step loop the episode runner replaced.

    Every step makes one selection (a scalar categorical draw for stationary
    play), one scalar reward draw from the pulled arm's stream and one state
    update, and inserts the reward into a sorted pooled sample.
    """
    k = len(arms)
    if checkpoints is None:
        checkpoints = geometric_checkpoints(k, horizon)
    policy_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(rep, 0)))
    arm_rngs = [
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(rep, i + 1)))
        for i in range(k)
    ]
    if isinstance(policy, SimplePolicy):
        cumulative = np.cumsum(policy.p)[:-1]

        def select(state):
            return int(np.searchsorted(cumulative, policy_rng.random(), side="right"))
    elif isinstance(policy, Bad2OraclePolicy):

        def select(state):
            return 0 if state.t == 0 else 1
    else:
        select = policy.start(k, criterion, policy_rng).select

    state = PolicyState(k)
    pooled = []
    n_cp = len(checkpoints)
    tau = np.zeros((n_cp, k), dtype=np.int64)
    pooled_values = np.full(n_cp, np.nan)
    proxy_values = np.full(n_cp, np.nan)
    flagged = np.zeros(n_cp, dtype=bool)
    next_cp = 0
    for _ in range(horizon):
        arm = select(state)
        reward = float(arms[arm].sample(arm_rngs[arm], 1)[0])
        state.update(arm, reward)
        bisect.insort(pooled, reward)
        if next_cp < n_cp and state.t == checkpoints[next_cp]:
            tau[next_cp] = state.pull_counts
            try:
                pooled_values[next_cp] = criterion.evaluate(
                    EmpiricalDistribution.from_sorted(np.array(pooled))
                )
                proxy_values[next_cp] = criterion.evaluate(
                    proxy_distribution(arms, state.pull_counts, state.t)
                )
            except (DomainError, ArithmeticError):
                flagged[next_cp] = True
            next_cp += 1
    return tau, pooled_values, proxy_values, flagged


_MIXED_ARMS = [Gaussian(0.3, 1.2), Uniform(-1.0, 2.0), TwoPoint(0.3, -2.0, 1.0), PointMass(0.5)]

ENGINE_CASES = {
    "ucb": (
        [Gaussian(0.0, 1.0), Uniform(-1.0, 1.0), TwoPoint(0.4, -1.0, 1.5)],
        UcbPolicy(UcbParams(0.77, 0.5, 2.0, 3.0)),
        CVaRCriterion(0.2),
        300,
    ),
    "bad1-oracle": (
        [bad1_arm_wide(), PointMass(5.0)], Bad1OraclePolicy(), Bad1Criterion(), 400,
    ),
    "simple": (_MIXED_ARMS, SimplePolicy([0.1, 0.2, 0.3, 0.4]), CVaRCriterion(0.2), 300),
    "simple-vertex": (_MIXED_ARMS, SimplePolicy([0.0, 1.0, 0.0, 0.0]), CVaRCriterion(0.2), 300),
    "bad2-oracle": (
        [bad2_arm_steep(), bad2_arm_step()], Bad2OraclePolicy(), Bad2Criterion(), 300,
    ),
}


@pytest.mark.parametrize("case", list(ENGINE_CASES))
def test_engine_matches_step_loop(case):
    arms, policy, crit, horizon = ENGINE_CASES[case]
    for seed, checkpoints in [(3, None), (4, None), (5, [len(arms), 37, 150])]:
        for rep in (0, 1):
            ep = run_episode(arms, policy, crit, horizon, checkpoints, seed=seed, rep=rep)
            want = step_loop_episode(arms, policy, crit, horizon, checkpoints, seed, rep)
            got = (ep.tau, ep.pooled_values, ep.proxy_values, ep.flagged)
            for a, b in zip(got, want):
                assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f")


def test_geometric_checkpoints():
    assert geometric_checkpoints(3, 2048) == (3, 6, 12, 24, 48, 96, 192, 384, 768, 1536, 2048)
    assert geometric_checkpoints(2, 2) == (2,)


def test_checkpoint_validation():
    arms = [PointMass(1.0), PointMass(2.0)]
    with pytest.raises(DomainError):
        run_episode(arms, SimplePolicy([1, 0]), MeanCriterion(), 1)
    with pytest.raises(DomainError):
        run_episode(arms, SimplePolicy([1, 0]), MeanCriterion(), 10, checkpoints=[1, 5])
    with pytest.raises(DomainError):
        run_episode(arms, SimplePolicy([1, 0]), MeanCriterion(), 10, checkpoints=[5, 20])


def test_trivial_single_arm_episode():
    ep = run_episode([PointMass(5.0)], SimplePolicy([1.0]), MeanCriterion(), 10, seed=1)
    assert np.all(ep.pooled_values == 5.0)
    assert np.all(ep.proxy_values == 5.0)
    assert not ep.flagged.any()


def test_episode_determinism():
    arms = [Gaussian(0, 1), Uniform(-1, 1)]
    policy = UcbPolicy(UcbParams(0.77, 0.5, 2.0, 3.0))
    a = run_episode(arms, policy, MeanCriterion(), 300, seed=9, rep=4)
    b = run_episode(arms, policy, MeanCriterion(), 300, seed=9, rep=4)
    assert np.array_equal(a.pooled_values, b.pooled_values)
    assert np.array_equal(a.proxy_values, b.proxy_values)
    assert np.array_equal(a.tau, b.tau)
    c = run_episode(arms, policy, MeanCriterion(), 300, seed=9, rep=5)
    assert not np.array_equal(a.pooled_values, c.pooled_values)


def test_vertex_proxy_constant_and_exact():
    arms = [Gaussian(0.3, 1.2), PointMass(0.0)]
    crit = CVaRCriterion(0.2)
    ep = run_episode(arms, SimplePolicy([0.0, 1.0]), crit, 256, seed=2)
    want = crit.evaluate(arms[1])
    assert np.all(ep.proxy_values == ep.proxy_values[0])
    assert ep.proxy_values[0] == pytest.approx(want, abs=1e-12)


def test_flagged_checkpoints_do_not_abort():
    class FussyCriterion(RiskCriterion):
        tag = "fussy"

        @property
        def norm_spec(self):
            return NormSpec()

        def evaluate(self, f):
            if getattr(f, "t", 10**9) < 4:
                raise DomainError("needs at least 4 observations")
            return f.mean()

    ep = run_episode(
        [PointMass(1.0)], SimplePolicy([1.0]), FussyCriterion(), 8, checkpoints=[2, 8], seed=0
    )
    assert ep.flagged.tolist() == [True, False]
    assert math.isnan(ep.pooled_values[0]) and ep.pooled_values[1] == 1.0
    rows = estimate_performance([ep, ep])
    assert rows[0].reps == 0 and rows[0].flagged == 2
    assert rows[1].reps == 2


class BuggyCriterion(RiskCriterion):
    """A criterion with a coding bug: evaluation raises TypeError."""

    tag = "buggy"

    @property
    def norm_spec(self):
        return NormSpec()

    def evaluate(self, f):
        return f.mean() + None


def test_criterion_bugs_propagate_instead_of_flagging():
    with pytest.raises(TypeError):
        run_episode([PointMass(1.0)], SimplePolicy([1.0]), BuggyCriterion(), 8, seed=0)


@pytest.mark.parametrize("parallel", [1, 2])
def test_replication_failures_name_the_replication(parallel):
    arms = [PointMass(1.0), Gaussian(0, 1)]
    with pytest.raises(TypeError, match="replication 0"):
        run_replications(
            arms, SimplePolicy([0.5, 0.5]), BuggyCriterion(), 16, reps=2, seed=0,
            parallel=parallel,
        )


def test_replications_parallel_bit_identical():
    arms = [Gaussian(0, 1), Gaussian(-0.4, 1)]
    policy = UcbPolicy(UcbParams(0.77, 0.5, 2.0, 3.0))
    serial = run_replications(arms, policy, MeanCriterion(), 200, reps=6, seed=11)
    parallel = run_replications(
        arms, policy, MeanCriterion(), 200, reps=6, seed=11, parallel=3
    )
    for a, b in zip(serial, parallel):
        assert a.rep == b.rep
        assert np.array_equal(a.pooled_values, b.pooled_values)
        assert np.array_equal(a.tau, b.tau)


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


def test_proxy_regret_vertex_policy_zero():
    arms = [PointMass(2.0), PointMass(1.0)]
    crit = MeanCriterion()
    eps = run_replications(arms, SimplePolicy([1, 0]), crit, 64, reps=5, seed=0)
    rows = estimate_proxy_regret(eps, p_star_value=2.0)
    assert all(r.value == 0.0 for r in rows)


def test_proxy_regret_worst_arm_equals_gap():
    arms = [PointMass(2.0), PointMass(1.0)]
    eps = run_replications(arms, SimplePolicy([0, 1]), MeanCriterion(), 64, reps=5, seed=0)
    rows = estimate_proxy_regret(eps, p_star_value=2.0)
    assert all(r.value == pytest.approx(1.0, abs=1e-12) for r in rows)


def test_horizon_gap_linear_criterion_is_noise():
    arms = [Gaussian(0.5, 1), Gaussian(0.0, 1)]
    policy = UcbPolicy(UcbParams(1.0, 0.5, 2.0, 3.0))
    eps = run_replications(arms, policy, MeanCriterion(), 256, reps=200, seed=21)
    for row in estimate_horizon_gap(eps):
        assert row.value <= 3 * row.stderr


def test_horizon_gap_neg_variance_closed_form():
    # single Gaussian arm: E[empirical variance] = (1 - 1/T) sigma^2
    horizon = 100
    eps = run_replications(
        [Gaussian(0, 1)], SimplePolicy([1.0]), NegVarianceCriterion(),
        horizon, reps=2000, seed=5, checkpoints=[horizon],
    )
    row = estimate_horizon_gap(eps)[0]
    assert abs(row.value - 1.0 / horizon) <= 3 * row.stderr


def test_reference_regret_self_is_zero():
    arms = [Gaussian(0, 1), Gaussian(0.5, 1)]
    eps = run_replications(arms, SimplePolicy([0.5, 0.5]), MeanCriterion(), 64, reps=8, seed=3)
    rows = estimate_reference_regret(eps, eps)
    assert all(r.value == 0.0 for r in rows)


def test_reference_regret_config_mismatch():
    arms = [Gaussian(0, 1), Gaussian(0.5, 1)]
    a = run_replications(arms, SimplePolicy([1, 0]), MeanCriterion(), 64, reps=3, seed=3)
    b = run_replications(arms, SimplePolicy([1, 0]), MeanCriterion(), 128, reps=3, seed=3)
    with pytest.raises(DomainError):
        estimate_reference_regret(a, b)


@pytest.mark.parametrize("seed", [5, 6])
def test_proxy_regret_decomposition_bound(seed):
    # measured proxy regret <= (L/T) sum_i mean(tau_i) ||F_best - F_i|| + 3 se
    from riskbandits.norms import norm_distance
    from riskbandits.oracle import best_single_arm, lipschitz_constant

    r = np.random.default_rng(seed)
    arms = [Gaussian(float(r.normal()), 1.0) for _ in range(3)]
    crit = CVaRCriterion(0.2)
    cert = crit.stability_certificate(arms)
    best, p_star_value, _ = best_single_arm(crit, arms)
    policy = UcbPolicy(UcbParams(cert.a, 0.5, cert.q, 3.0))
    horizon = 1000
    eps = run_replications(arms, policy, crit, horizon, reps=40, seed=seed, checkpoints=[horizon])
    row = estimate_proxy_regret(eps, p_star_value)[0]
    mean_tau = np.stack([e.tau[-1] for e in eps]).mean(axis=0)
    L = lipschitz_constant(cert, arms, crit.norm_spec)
    bound = (L / horizon) * sum(
        mean_tau[i] * norm_distance(arms[best], arms[i], crit.norm_spec)
        for i in range(len(arms))
        if i != best
    )
    assert row.value <= bound + 3 * row.stderr


def test_bad1_oracle_outperforms_safe_vertex(bad1_arms):
    from riskbandits.criteria import Bad1Criterion

    crit = Bad1Criterion()
    horizon = 2000
    oracle_eps = run_replications(
        bad1_arms, Bad1OraclePolicy(), crit, horizon, reps=10, seed=7, checkpoints=[horizon]
    )
    vertex_eps = run_replications(
        bad1_arms, SimplePolicy([0, 1]), crit, horizon, reps=10, seed=7, checkpoints=[horizon]
    )
    rows = estimate_reference_regret(vertex_eps, oracle_eps)
    assert rows[0].value > 30  # oracle near 50, safe vertex at 10


# ---------------------------------------------------------------------------
# Rates and concentration
# ---------------------------------------------------------------------------


def test_rate_curve_algebra():
    horizons = np.array([10, 100, 1000, 10000])
    c = 2.7
    values = c * np.log(horizons) / horizons
    assert np.allclose(rate_curve(values, horizons, "logT/T"), c)
    increasing = rate_curve(c / np.sqrt(horizons), horizons, "logT/T")
    assert np.all(np.diff(increasing) > 0)
    assert np.allclose(rate_curve(c / horizons, horizons, 1.0), c)
    with pytest.raises(DomainError):
        rate_curve(values, horizons, "1/logT")


def test_dkw_exceedance_edges():
    assert dkw_exceedance(Gaussian(0, 1), 50, 0.0, reps=100) == 1.0
    with pytest.raises(DomainError):
        dkw_exceedance(Gaussian(0, 1), 50, 0.1, reps=10)
    # t=100, x=0.2: bound 6.7e-4, so exceedances are a rare event
    assert dkw_exceedance(Gaussian(0, 1), 100, 0.2, reps=2000, seed=1) <= 0.002


def test_dkw_exceedance_respects_bound_grid():
    d = Gaussian(0, 1)
    for t, x in [(25, 0.15), (25, 0.25), (100, 0.1), (400, 0.05)]:
        emp = dkw_exceedance(d, t, x, reps=4000, seed=13)
        bound = 2 * math.exp(-2 * t * x * x)
        assert emp <= 1.2 * bound + 1e-12


def test_dkw_exceedance_discrete_distribution():
    # atoms force the supremum onto jump points; bound must still hold
    d = PointMass(0.0)
    assert dkw_exceedance(d, 50, 0.1, reps=500, seed=2) == 0.0


# ---------------------------------------------------------------------------
# CSV contract
# ---------------------------------------------------------------------------


def test_report_csv_roundtrip(tmp_path):
    arms = [Gaussian(0, 1), Gaussian(0.5, 1)]
    eps = run_replications(arms, SimplePolicy([1, 0]), MeanCriterion(), 64, reps=4, seed=3)
    rows = estimate_performance(eps) + estimate_horizon_gap(eps)
    report = RegretReport(rows, {"seed": 3, "criterion": "mean", "version": 1})
    path = tmp_path / "report.csv"
    write_report_csv(path, report)
    back = read_report_csv(path)
    assert back.meta["seed"] == "3"
    assert back.meta["criterion"] == "mean"
    assert len(back.rows) == len(rows)
    for a, b in zip(back.rows, rows):
        assert (a.checkpoint, a.estimator, a.reps, a.flagged) == (
            b.checkpoint, b.estimator, b.reps, b.flagged,
        )
        assert a.value == b.value or (math.isnan(a.value) and math.isnan(b.value))
