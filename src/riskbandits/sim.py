"""Episode runner, its Monte Carlo estimators and the CSV contract.

Open-loop policies hand over the pull counts at every checkpoint
(``Policy.pull_counts``) and each arm then draws its rewards in one call;
closed-loop policies play their ``start`` session in runs: the session
selects an arm, then pulls it for as long as its own rule would select it
again, reading each reward once.  The session holds the episode's pull
counts; the runner holds the rewards.  One evaluator scores each
checkpoint from the pull counts and the arm rewards.

All randomness descends from one base seed: episode ``rep`` of an
experiment derives stream ``j`` from
``numpy.random.SeedSequence(base_seed, spawn_key=(rep, j))`` with stream 0
feeding the policy and stream ``i+1`` feeding arm ``i``.  Replications are
therefore independent, embarrassingly parallel, and bit-reproducible;
aggregation sorts by replication index so serial and parallel runs agree
exactly.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .criteria import RiskCriterion
from .dist import EmpiricalDistribution, MixtureDistribution, proxy_distribution
from .errors import DomainError, add_context
from .policy import Policy

__all__ = [
    "Episode",
    "EstimateRow",
    "geometric_checkpoints",
    "run_episode",
    "run_replications",
    "cut_episode",
    "estimate_performance",
    "estimate_proxy_regret",
    "estimate_horizon_gap",
    "estimate_reference_regret",
    "write_csv",
    "write_report_csv",
    "read_report_csv",
]


@dataclass
class Episode:
    """One bandit trajectory, recorded at checkpoints.

    ``pooled_values[c]`` is the criterion on the pooled empirical CDF of all
    rewards up to checkpoint c; ``proxy_values[c]`` is the criterion on the
    pull-fraction mixture of the true arm CDFs.  ``flagged[c]`` marks
    checkpoints where the criterion raised a ``DomainError`` or an
    ``ArithmeticError`` (values are NaN there); other errors propagate.
    """

    seed: int
    rep: int
    horizon: int
    checkpoints: tuple[int, ...]
    tau: np.ndarray          # (n_checkpoints, k) pull counts
    pooled_values: np.ndarray
    proxy_values: np.ndarray
    flagged: np.ndarray


@dataclass
class EstimateRow:
    checkpoint: int
    estimator: str
    value: float
    stderr: float
    reps: int
    flagged: int = 0


def geometric_checkpoints(k: int, horizon: int) -> tuple[int, ...]:
    """Doubling grid {k, 2k, 4k, ...} capped at and including the horizon."""
    out = []
    t = k
    while t < horizon:
        out.append(t)
        t *= 2
    out.append(horizon)
    return tuple(out)


def _episode_streams(seed: int, rep: int, k: int):
    policy_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(rep, 0)))
    arm_rngs = [
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(rep, i + 1)))
        for i in range(k)
    ]
    return policy_rng, arm_rngs


def run_episode(
    arms,
    policy: Policy,
    criterion: RiskCriterion,
    horizon: int,
    checkpoints=None,
    seed: int = 0,
    rep: int = 0,
) -> Episode:
    """Play one episode and record criterion values at the checkpoints."""
    k = len(arms)
    if horizon < k:
        raise DomainError(f"horizon {horizon} is below the arm count {k}")
    if checkpoints is None:
        checkpoints = geometric_checkpoints(k, horizon)
    checkpoints = tuple(sorted(set(int(c) for c in checkpoints)))
    if not checkpoints:
        raise DomainError("an episode needs at least one checkpoint")
    if checkpoints[0] < k or checkpoints[-1] > horizon:
        raise DomainError(
            f"checkpoints must lie in [{k}, {horizon}], got {checkpoints}"
        )

    policy_rng, arm_rngs = _episode_streams(seed, rep, k)
    tau = policy.pull_counts(k, checkpoints, policy_rng)
    if tau is None:
        tau, draws = _play_closed_loop(arms, policy, criterion, checkpoints, arm_rngs)
    else:
        draws = [a.sample(r, n) if n else np.empty(0) for a, r, n in zip(arms, arm_rngs, tau[-1])]

    n_cp = len(checkpoints)
    pooled_values = np.full(n_cp, np.nan)
    proxy_values = np.full(n_cp, np.nan)
    flagged = np.zeros(n_cp, dtype=bool)
    # the checkpoints' proxies solve each level together
    proxies = [proxy_distribution(arms, tau[idx], c) for idx, c in enumerate(checkpoints)]
    MixtureDistribution.stack(proxies)
    for idx, proxy in enumerate(proxies):
        pool = np.concatenate([d[:n] for d, n in zip(draws, tau[idx])])
        pool.sort()  # in place: np.sort would sort a second copy
        pooled = EmpiricalDistribution.from_sorted(pool)
        try:
            pooled_values[idx] = criterion.evaluate(pooled)
            proxy_values[idx] = criterion.evaluate(proxy)
        except (DomainError, ArithmeticError):
            flagged[idx] = True

    return Episode(seed, rep, horizon, checkpoints, tau, pooled_values, proxy_values, flagged)


def _play_closed_loop(arms, policy, criterion, checkpoints, arm_rngs):
    """Pull counts at the checkpoints and each arm's rewards in draw order.

    Each decision of ``select`` starts a run of ``play`` on the arm's next
    rewards up to the next checkpoint and the end of its drawn block.  Each
    arm's rewards come from doubling blocks of its own stream, the same
    values one scalar draw per pull would give; unpulled draws go unseen.
    """
    k = len(arms)
    session = policy.start(k, criterion)
    tau = np.zeros((len(checkpoints), k), dtype=np.int64)
    draws = [np.empty(0) for _ in range(k)]
    counts = session.pull_counts
    select, play = session.select, session.play
    t = 0
    for idx, c in enumerate(checkpoints):
        while t < c:
            arm = select()
            n = counts[arm]
            d = draws[arm]
            if n == len(d):
                block = arms[arm].sample(arm_rngs[arm], max(n, 64))
                d = draws[arm] = np.concatenate([d, block])
            t += play(arm, d[n : n + c - t])
        tau[idx] = counts
    return tau, draws


def _run_one(args):
    arms, policy, criterion, horizon, checkpoints, seed, rep = args
    try:
        return run_episode(arms, policy, criterion, horizon, checkpoints, seed, rep)
    except Exception as exc:
        add_context(exc, f"replication {rep}")
        raise


def run_replications(
    arms,
    policy: Policy,
    criterion: RiskCriterion,
    horizon: int,
    reps: int,
    seed: int,
    checkpoints=None,
    parallel: int = 1,
) -> list[Episode]:
    """Independent episodes rep=0..reps-1; parallel runs match serial ones.

    ``parallel`` caps the worker processes; no more start than there are
    replications, and one worker means a serial run in this process.
    """
    if reps < 1:
        raise DomainError(f"need at least one replication, got {reps}")
    if parallel < 1:
        raise DomainError(f"need at least one worker process, got parallel={parallel}")
    jobs = [(arms, policy, criterion, horizon, checkpoints, seed, rep) for rep in range(reps)]
    workers = min(parallel, reps)
    if workers == 1:
        episodes = [_run_one(j) for j in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            episodes = list(pool.map(_run_one, jobs, chunksize=max(1, reps // (4 * workers))))
    episodes.sort(key=lambda e: e.rep)
    return episodes


def cut_episode(episode: Episode, horizon: int, checkpoints) -> Episode:
    """The episode's rows at ``checkpoints`` (each one of its own) as an
    episode of ``horizon``: a row at t depends only on the first t steps, so
    these are the rows of the same replication played to ``horizon``."""
    rows = [episode.checkpoints.index(c) for c in checkpoints]
    return Episode(
        episode.seed, episode.rep, horizon, tuple(checkpoints), episode.tau[rows],
        episode.pooled_values[rows], episode.proxy_values[rows], episode.flagged[rows],
    )


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


def _check_common(episodes):
    """The episodes' shared checkpoints and their (episodes x checkpoints) flags."""
    if not episodes:
        raise DomainError("no episodes to aggregate")
    cps = episodes[0].checkpoints
    if any(e.checkpoints != cps or e.horizon != episodes[0].horizon for e in episodes):
        raise DomainError("episodes disagree on checkpoints or horizon")
    return cps, np.stack([e.flagged for e in episodes])


def _checkpoint_stats(values, flags, min_n: int):
    """Per-checkpoint (mean, stderr, n, flagged) of an (episodes x checkpoints)
    array over its unflagged episodes: value and stderr are NaN below
    ``min_n`` episodes, and the stderr is NaN at one."""
    out = []
    for vals, good in zip(values.T, ~flags.T):
        n = int(good.sum())
        if n < min_n:
            out.append((math.nan, math.nan, n, len(good) - n))
            continue
        vals = vals[good]
        stderr = float(np.std(vals, ddof=1) / math.sqrt(n)) if n > 1 else math.nan
        out.append((float(np.mean(vals)), stderr, n, len(good) - n))
    return out


def estimate_performance(episodes) -> list[EstimateRow]:
    """Mean criterion value on the pooled empirical CDF, per checkpoint."""
    cps, flags = _check_common(episodes)
    stats = _checkpoint_stats(np.stack([e.pooled_values for e in episodes]), flags, 1)
    return [EstimateRow(cp, "performance", *s) for cp, s in zip(cps, stats)]


def estimate_proxy_regret(episodes, p_star_value: float) -> list[EstimateRow]:
    """Mean of ``best stationary value - criterion(proxy mixture)``."""
    cps, flags = _check_common(episodes)
    stats = _checkpoint_stats(np.stack([e.proxy_values for e in episodes]), flags, 1)
    return [
        EstimateRow(cp, "proxy-regret", p_star_value - m, se, n, fl)
        for cp, (m, se, n, fl) in zip(cps, stats)
    ]


def estimate_horizon_gap(episodes) -> list[EstimateRow]:
    """|mean(pooled - proxy)| with the stderr of the signed mean."""
    if len(episodes) < 2:
        raise DomainError("horizon gap needs at least 2 replications")
    cps, flags = _check_common(episodes)
    diff = np.stack([e.pooled_values - e.proxy_values for e in episodes])
    return [
        EstimateRow(cp, "horizon-gap", abs(m), se, n, fl)
        for cp, (m, se, n, fl) in zip(cps, _checkpoint_stats(diff, flags, 2))
    ]


def estimate_reference_regret(episodes, reference_episodes) -> list[EstimateRow]:
    """Mean pooled performance of the reference minus the candidate.

    The benchmark is an explicit named policy (finite-horizon optima are not
    computable in general), so rows read "reference regret vs <policy>".
    """
    cps, flags = _check_common(episodes)
    ref_cps, ref_flags = _check_common(reference_episodes)
    if cps != ref_cps or episodes[0].horizon != reference_episodes[0].horizon:
        raise DomainError("candidate and reference episodes use different configs")
    cand = _checkpoint_stats(np.stack([e.pooled_values for e in episodes]), flags, 1)
    ref = _checkpoint_stats(np.stack([e.pooled_values for e in reference_episodes]), ref_flags, 1)
    # a stderr is NaN below two episodes, and so is their combination
    return [
        EstimateRow(cp, "reference-regret", m_r - m_c, math.sqrt(se_c**2 + se_r**2),
                    min(n_c, n_r), fl_c + fl_r)
        for cp, (m_c, se_c, n_c, fl_c), (m_r, se_r, n_r, fl_r) in zip(cps, cand, ref)
    ]


# ---------------------------------------------------------------------------
# CSV contract
# ---------------------------------------------------------------------------

_CSV_COLUMNS = ("checkpoint", "estimator", "value", "stderr", "reps", "flagged")


def write_csv(path, meta: dict, columns, rows) -> None:
    """The CSV format of every CLI output: one '# key=value' line per metadata
    key in sorted order, the column header, then one line per row of cells
    (written with ``str``)."""
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(meta):
            fh.write(f"# {key}={meta[key]}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def write_report_csv(path, meta: dict, rows) -> None:
    """One row per (checkpoint, estimator)."""
    cells = (
        (r.checkpoint, r.estimator, repr(float(r.value)), repr(float(r.stderr)), r.reps, r.flagged)
        for r in rows
    )
    write_csv(path, meta, _CSV_COLUMNS, cells)


def read_report_csv(path) -> tuple[dict, list[EstimateRow]]:
    """The ``(meta, rows)`` of a CSV that ``write_report_csv`` wrote."""
    meta = {}
    rows = []
    with open(path, encoding="utf-8") as fh:
        header_seen = False
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key] = value
                continue
            if not header_seen:
                if line != ",".join(_CSV_COLUMNS):
                    raise DomainError(f"unexpected CSV header: {line}")
                header_seen = True
                continue
            cp, est, value, stderr, reps, flagged = line.split(",")
            rows.append(
                EstimateRow(int(cp), est, float(value), float(stderr), int(reps), int(flagged))
            )
    return meta, rows
