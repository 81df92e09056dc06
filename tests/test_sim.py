import bisect
import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from riskbandits import sim
from riskbandits.criteria import (
    Bad1Criterion,
    Bad2Criterion,
    CVaRCriterion,
    MeanCriterion,
    NegVarianceCriterion,
    RiskCriterion,
    StabilityCertificate,
    VaRCriterion,
)
from riskbandits.dist import (
    EmpiricalDistribution,
    Gaussian,
    PiecewiseLinearCDF,
    PointMass,
    TwoPoint,
    Uniform,
    proxy_distribution,
)
from riskbandits.errors import DomainError
from riskbandits.policy import (
    Bad1OraclePolicy,
    Bad2OraclePolicy,
    PolicyState,
    SimplePolicy,
    UcbPolicy,
)
from riskbandits.sim import (
    estimate_horizon_gap,
    estimate_performance,
    estimate_proxy_regret,
    estimate_reference_regret,
    geometric_checkpoints,
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
    state = PolicyState(k)  # closed-loop sessions are their own state
    if isinstance(policy, SimplePolicy):
        cumulative = np.cumsum(policy.p)[:-1]

        def select():
            return int(np.searchsorted(cumulative, policy_rng.random(), side="right"))
    elif isinstance(policy, Bad2OraclePolicy):

        def select():
            return 0 if state.t == 0 else 1
    else:
        state = policy.start(k, criterion)
        select = state.select

    pooled = []
    n_cp = len(checkpoints)
    tau = np.zeros((n_cp, k), dtype=np.int64)
    pooled_values = np.full(n_cp, np.nan)
    proxy_values = np.full(n_cp, np.nan)
    flagged = np.zeros(n_cp, dtype=bool)
    next_cp = 0
    for _ in range(horizon):
        arm = select()
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
        UcbPolicy(StabilityCertificate(0.77, 0.5, 2.0), 3.0),
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


@pytest.mark.parametrize("case", list(ENGINE_CASES))
def test_cut_episode_is_the_episode_played_to_that_horizon(case):
    # a row at t depends only on the first t steps: the longest run, cut down
    # to a shorter horizon's grid, is that horizon's own episode
    arms, policy, crit, horizon = ENGINE_CASES[case]
    k, short = len(arms), horizon // 3 + 1  # off the long run's doubling grid
    grids = [geometric_checkpoints(k, short), (k, 37, short), geometric_checkpoints(k, horizon)]
    union = sorted(set().union(*grids))
    for rep in (0, 1):
        full = run_episode(arms, policy, crit, horizon, union, seed=6, rep=rep)
        for grid in grids:
            got = sim.cut_episode(full, grid[-1], grid)
            want = run_episode(arms, policy, crit, grid[-1], grid, seed=6, rep=rep)
            assert (got.seed, got.rep, got.horizon, got.checkpoints) == (
                want.seed, want.rep, want.horizon, want.checkpoints
            )
            for a, b in zip(
                (got.tau, got.pooled_values, got.proxy_values, got.flagged),
                (want.tau, want.pooled_values, want.proxy_values, want.flagged),
            ):
                assert a.dtype == b.dtype
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
    with pytest.raises(DomainError, match="at least one checkpoint"):
        run_episode(arms, SimplePolicy([1, 0]), MeanCriterion(), 10, checkpoints=[])


def test_trivial_single_arm_episode():
    ep = run_episode([PointMass(5.0)], SimplePolicy([1.0]), MeanCriterion(), 10, seed=1)
    assert np.all(ep.pooled_values == 5.0)
    assert np.all(ep.proxy_values == 5.0)
    assert not ep.flagged.any()


def test_episode_determinism():
    arms = [Gaussian(0, 1), Uniform(-1, 1)]
    policy = UcbPolicy(StabilityCertificate(0.77, 0.5, 2.0), 3.0)
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


def _ucb_gaussians():
    arms = [Gaussian(0, 1), Gaussian(-0.4, 1)]
    return arms, UcbPolicy(StabilityCertificate(0.77, 0.5, 2.0), 3.0), MeanCriterion(), 200


def _sampled_var_flat():
    # one draw here builds the arm's knot tables, so the workers get them pickled
    arm = PiecewiseLinearCDF.from_pairs([(0, 0.0), (1, 0.3), (2, 0.3), (3, 1.0)])
    arm.sample(np.random.default_rng(0), 1)
    assert {"_segment_table", "_guide"} <= vars(arm).keys()
    assert arm._guide.nbytes <= 4096
    return [arm], SimplePolicy([1.0]), VaRCriterion(0.3), 20_000


@pytest.mark.parametrize("case", [_ucb_gaussians, _sampled_var_flat], ids=["ucb-gaussians", "sampled-var-flat"])
def test_replications_parallel_bit_identical(case):
    arms, policy, criterion, horizon = case()
    serial = run_replications(arms, policy, criterion, horizon, reps=6, seed=11)
    parallel = run_replications(
        arms, policy, criterion, horizon, reps=6, seed=11, parallel=3
    )
    for a, b in zip(serial, parallel):
        assert a.rep == b.rep
        assert np.array_equal(a.pooled_values, b.pooled_values)
        assert np.array_equal(a.tau, b.tau)


@pytest.mark.parametrize("parallel", [0, -2])
def test_replications_refuse_fewer_than_one_worker(parallel):
    with pytest.raises(DomainError, match="worker"):
        run_replications(
            [PointMass(1.0)], SimplePolicy([1.0]), MeanCriterion(), 8, reps=2, seed=0,
            parallel=parallel,
        )


def test_replication_pool_never_outnumbers_the_replications(monkeypatch):
    started = []

    def pool(max_workers):
        started.append(max_workers)
        # never more than two real processes, whatever was asked for
        return ProcessPoolExecutor(max_workers=min(max_workers, 2))

    monkeypatch.setattr(sim, "ProcessPoolExecutor", pool)
    arms = [Gaussian(0, 1), Gaussian(-0.4, 1)]
    policy = SimplePolicy([0.5, 0.5])
    serial = run_replications(arms, policy, MeanCriterion(), 64, reps=2, seed=5)
    assert started == []
    capped = run_replications(arms, policy, MeanCriterion(), 64, reps=2, seed=5, parallel=8)
    assert started == [2]
    # one replication runs in this process, whatever the worker count
    run_replications(arms, policy, MeanCriterion(), 64, reps=1, seed=5, parallel=8)
    assert started == [2]
    for a, b in zip(serial, capped):
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
    policy = UcbPolicy(StabilityCertificate(1.0, 0.5, 2.0), 3.0)
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


def test_estimators_at_zero_one_and_three_unflagged_episodes():
    # checkpoint 0 is flagged in every episode, checkpoint 1 in all but the
    # first, checkpoint 2 in none
    pooled = np.array([[9.0, 1.0, 1.0], [9.0, 5.0, 2.0], [9.0, 7.0, 6.0]])
    proxy = np.array([[9.0, 0.5, 3.0], [9.0, 4.0, 3.0], [9.0, 6.0, 7.0]])
    flags = np.array([[True, False, False], [True, True, False], [True, True, False]])
    eps = [
        sim.Episode(0, rep, 8, (2, 4, 8), np.zeros((3, 2)), pooled[rep], proxy[rep], flags[rep])
        for rep in range(3)
    ]
    perf = estimate_performance(eps)
    gap = estimate_horizon_gap(eps)
    ref = estimate_reference_regret(eps, eps)
    assert [(r.reps, r.flagged) for r in perf] == [(0, 3), (1, 2), (3, 0)]
    assert [(r.reps, r.flagged) for r in gap] == [(0, 3), (1, 2), (3, 0)]
    assert [(r.reps, r.flagged) for r in ref] == [(0, 6), (1, 4), (3, 0)]
    assert math.isnan(perf[0].value) and math.isnan(perf[0].stderr)
    assert perf[1].value == 1.0 and math.isnan(perf[1].stderr)
    assert perf[2].value == 3.0 and perf[2].stderr == np.std([1.0, 2.0, 6.0], ddof=1) / math.sqrt(3)
    # the gap needs two episodes; its value is |mean| of the signed differences
    assert all(math.isnan(r.value) and math.isnan(r.stderr) for r in gap[:2])
    diff = [-2.0, -1.0, -1.0]
    assert gap[2].value == -np.mean(diff) and gap[2].stderr == np.std(diff, ddof=1) / math.sqrt(3)
    assert ref[1].value == 0.0 and math.isnan(ref[1].stderr)
    assert ref[2].stderr == math.sqrt(2 * perf[2].stderr**2)
    proxy_rows = estimate_proxy_regret(eps, 10.0)
    assert proxy_rows[1].value == 9.5 and proxy_rows[2].value == 10.0 - np.mean([3.0, 3.0, 7.0])


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
    policy = UcbPolicy(StabilityCertificate(cert.a, 0.5, cert.q), 3.0)
    horizon = 1000
    eps = run_replications(arms, policy, crit, horizon, reps=40, seed=seed, checkpoints=[horizon])
    row = estimate_proxy_regret(eps, p_star_value)[0]
    mean_tau = np.stack([e.tau[-1] for e in eps]).mean(axis=0)
    L = lipschitz_constant(cert, arms, crit.functionals)
    bound = (L / horizon) * sum(
        mean_tau[i] * norm_distance(arms[best], arms[i], crit.functionals)
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
# CSV contract
# ---------------------------------------------------------------------------


def test_report_csv_roundtrip(tmp_path):
    arms = [Gaussian(0, 1), Gaussian(0.5, 1)]
    eps = run_replications(arms, SimplePolicy([1, 0]), MeanCriterion(), 64, reps=4, seed=3)
    rows = estimate_performance(eps) + estimate_horizon_gap(eps)
    path = tmp_path / "report.csv"
    write_report_csv(path, {"seed": 3, "criterion": "mean", "version": 1}, rows)
    meta, back = read_report_csv(path)
    assert meta["seed"] == "3"
    assert meta["criterion"] == "mean"
    assert len(back) == len(rows)
    for a, b in zip(back, rows):
        assert (a.checkpoint, a.estimator, a.reps, a.flagged) == (
            b.checkpoint, b.estimator, b.reps, b.flagged,
        )
        assert a.value == b.value or (math.isnan(a.value) and math.isnan(b.value))
