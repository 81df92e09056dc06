"""Acceptance gate: every release criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.  Everything is seeded, so the suite is deterministic.
"""

import math

import numpy as np

from riskbandits import checks as checklib
from riskbandits.criteria import (
    Bad1Criterion,
    Bad2Criterion,
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
)
from riskbandits.dist import (
    Gaussian,
    MixtureDistribution,
    PiecewiseLinearCDF,
    PointMass,
    TwoPoint,
    Uniform,
)
from riskbandits.oracle import best_single_arm, expected_pull_bound
from riskbandits.policy import Bad1OraclePolicy, SimplePolicy, UcbPolicy
from riskbandits.sim import (
    estimate_horizon_gap,
    estimate_performance,
    estimate_proxy_regret,
    run_replications,
)

from conftest import bad1_arm_wide, bad2_arm_steep, bad2_arm_step


def _report(number: int, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] acceptance {number}: {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# 1. Closed-form stationary table of the two-quantile-sum criterion
# ---------------------------------------------------------------------------


def test_acceptance_1_bad1_closed_form_table():
    crit = Bad1Criterion()
    arms = [bad1_arm_wide(), PointMass(5.0)]
    table = {0.0: 46.0, 0.5: 45.0, 0.95: 10.0}
    got = {
        p2: crit.evaluate(MixtureDistribution(arms, [1 - p2, p2])) for p2 in table
    }
    ok = all(abs(got[p2] - want) <= 1e-9 for p2, want in table.items())
    _report(1, ok, f"two-quantile-sum stationary values {got} vs {table}")


# ---------------------------------------------------------------------------
# 2. Closed-form stationary table of the flat-stretch criterion
# ---------------------------------------------------------------------------


def test_acceptance_2_bad2_closed_form_table():
    crit = Bad2Criterion()
    arms = [bad2_arm_steep(), bad2_arm_step()]
    table = {0.5: 5.0, 0.95: 6.0, 1.0: 10.0}
    got = {p2: crit.evaluate(MixtureDistribution(arms, [1 - p2, p2])) for p2 in table}
    ok = all(abs(got[p2] - want) <= 1e-9 for p2, want in table.items())
    _report(2, ok, f"flat-stretch stationary values {got} vs {table}")


# ---------------------------------------------------------------------------
# 3. The non-stationary oracle schedule beats every stationary vertex
# ---------------------------------------------------------------------------


def test_acceptance_3_bad1_oracle_policy_dominance():
    crit = Bad1Criterion()
    arms = [bad1_arm_wide(), PointMass(5.0)]
    horizon, reps, seed = 10_000, 100, 424242
    oracle_eps = run_replications(
        arms, Bad1OraclePolicy(), crit, horizon, reps, seed, checkpoints=[horizon]
    )
    oracle_mean = estimate_performance(oracle_eps)[0].value
    vertex_eps = run_replications(
        arms, SimplePolicy([0.0, 1.0]), crit, horizon, reps, seed, checkpoints=[horizon]
    )
    vertex_mean = estimate_performance(vertex_eps)[0].value
    ok = oracle_mean >= 48.0 and vertex_mean <= 10.5
    _report(
        3,
        ok,
        f"oracle schedule mean {oracle_mean:.3f} (>= 48) vs stationary-vertex "
        f"mean {vertex_mean:.3f} (<= 10.5) at T={horizon}, {reps} reps",
    )


# ---------------------------------------------------------------------------
# 4. Horizon gap closed form: 1/T for the empirical-variance criterion
# ---------------------------------------------------------------------------


def test_acceptance_4_horizon_gap_closed_form():
    crit = NegVarianceCriterion()
    arm = Gaussian(0.0, 1.0)
    lines = []
    ok = True
    for horizon in (50, 100, 200):
        eps = run_replications(
            [arm], SimplePolicy([1.0]), crit, horizon, 2000, 99, checkpoints=[horizon]
        )
        row = estimate_horizon_gap(eps)[0]
        hit = abs(row.value - 1.0 / horizon) <= 3 * row.stderr
        ok = ok and hit
        lines.append(f"T={horizon}: {row.value:.5f} vs 1/T={1/horizon:.5f} (3se={3*row.stderr:.5f})")
    _report(4, ok, "empirical-variance gap equals 1/T within 3 stderr; " + "; ".join(lines))


# ---------------------------------------------------------------------------
# 5. Linear criterion: zero horizon gap under the optimism policy
# ---------------------------------------------------------------------------


def test_acceptance_5_linear_zero_gap():
    arms = [Gaussian(0.5, 1.0), Gaussian(0.0, 1.0), Gaussian(-0.5, 1.0)]
    crit = MeanCriterion()
    cert = crit.stability_certificate(arms)
    policy = UcbPolicy(cert, 3.0)
    eps = run_replications(arms, policy, crit, 2048, 300, 2718)
    rows = estimate_horizon_gap(eps)
    violations = [(r.checkpoint, r.value, 3 * r.stderr) for r in rows if r.value > 3 * r.stderr]
    _report(
        5,
        not violations,
        f"mean-criterion gap within 3 stderr of 0 at all {len(rows)} checkpoints"
        + (f"; violations {violations}" if violations else ""),
    )


# ---------------------------------------------------------------------------
# 6. Expected-pull bounds and the log T / T proxy-regret rate
# ---------------------------------------------------------------------------

# Radii for the low-tail-average experiment: the shipped conservative
# certificate would explore uniformly at desk horizons, so the experiment
# overrides (a, b) with tighter constants; the bound is evaluated with the
# same constants the policy uses.
_C6_ARMS = [Gaussian(0.0, 1.0), Gaussian(-0.75, 1.0), Gaussian(-1.5, 1.0)]
_C6_CERT = StabilityCertificate(a=2.0, b=0.45, q=2.0)


def test_acceptance_6_pull_bounds_and_rate():
    crit = CVaRCriterion(0.1)
    best, p_star_value, gaps = best_single_arm(crit, _C6_ARMS)
    assert min(g for i, g in enumerate(gaps) if i != best) >= 0.3
    policy = UcbPolicy(_C6_CERT, 3.0)
    ratios = {}
    tau_ok = True
    lines = []
    for horizon in (1000, 10_000):
        eps = run_replications(
            _C6_ARMS, policy, crit, horizon, 200, 314159, checkpoints=[horizon]
        )
        mean_tau = np.stack([e.tau[-1] for e in eps]).mean(axis=0)
        bounds = expected_pull_bound(crit, _C6_ARMS, _C6_CERT, 3.0, [horizon])[horizon]
        for i, bound in enumerate(bounds):
            if bound is not None and mean_tau[i] > bound:
                tau_ok = False
        row = estimate_proxy_regret(eps, p_star_value)[0]
        scale = horizon / math.log(horizon)
        ratios[horizon] = (row.value * scale, row.stderr * scale)
        lines.append(
            f"T={horizon}: mean pulls {np.round(mean_tau, 1)} vs bounds "
            f"{['-' if b is None else round(b, 1) for b in bounds]}"
        )
    diff = ratios[10_000][0] - ratios[1000][0]
    band = 3 * math.hypot(ratios[1000][1], ratios[10_000][1])
    rate_ok = diff <= band
    _report(
        6,
        tau_ok and rate_ok,
        "; ".join(lines)
        + f"; proxy-regret*T/logT {ratios[1000][0]:.2f} -> {ratios[10_000][0]:.2f} "
        f"(diff {diff:.2f} <= 3se {band:.2f})",
    )


# ---------------------------------------------------------------------------
# 7. Divergent vs bounded horizon-gap rate for the percentile criterion
# ---------------------------------------------------------------------------


def test_acceptance_7_rate_divergence_vs_bounded():
    level = 0.3
    crit = VaRCriterion(level)
    flat = PiecewiseLinearCDF.from_pairs([(0, 0.0), (1, level), (2, level), (3, 1.0)])
    checkpoints = [1000, 10_000, 100_000]
    reps, seed = 500, 60

    def ratio_series(arm):
        eps = run_replications(
            [arm], SimplePolicy([1.0]), crit, checkpoints[-1], reps, seed,
            checkpoints=checkpoints,
        )
        rows = estimate_horizon_gap(eps)
        sc = [c / math.log(c) for c in checkpoints]
        return (
            [r.value * s for r, s in zip(rows, sc)],
            [r.stderr * s for r, s in zip(rows, sc)],
        )

    flat_ratios, _ = ratio_series(flat)
    increasing = all(b > a for a, b in zip(flat_ratios, flat_ratios[1:]))
    gauss_ratios, gauss_ses = ratio_series(Gaussian(0.0, 1.0))
    bounded = all(
        nxt <= prev + 3 * math.hypot(se_p, se_n)
        for (prev, nxt), (se_p, se_n) in zip(
            zip(gauss_ratios, gauss_ratios[1:]), zip(gauss_ses, gauss_ses[1:])
        )
    )
    _report(
        7,
        increasing and bounded,
        f"flat-at-level gap*T/logT strictly increases {np.round(flat_ratios, 1)}; "
        f"gaussian stays bounded {np.round(gauss_ratios, 3)} (3se steps)",
    )


# ---------------------------------------------------------------------------
# 8. Invariant suites
# ---------------------------------------------------------------------------

_MIXED_ARMS = [Gaussian(0.5, 1.0), Uniform(-1.0, 2.0), TwoPoint(0.3, -1.0, 3.0)]
_POSITIVE_ARMS = [Gaussian(1.0, 1.0), Uniform(0.5, 2.0), TwoPoint(0.5, 0.2, 3.0)]
_CLOSE_GAUSSIANS = [Gaussian(0.0, 1.0), Gaussian(0.1, 1.0)]


def _convexity_suite():
    cases = [
        (MeanCriterion(), _MIXED_ARMS),
        (SecondMomentCriterion(), _MIXED_ARMS),
        (NegTSVCriterion(0.0), _MIXED_ARMS),
        (EntropicCriterion(0.7), _MIXED_ARMS),
        (NegVarianceCriterion(), _MIXED_ARMS),
        (MeanVarianceCriterion(0.8), _MIXED_ARMS),
        (CVaRCriterion(0.25), _MIXED_ARMS),
        (SharpeCriterion(0.0, 0.5), _POSITIVE_ARMS),
        (SortinoCriterion(0.0, 0.5), _POSITIVE_ARMS),
        (VaRCriterion(0.25), _MIXED_ARMS),
    ]
    for crit, arms in cases:
        yield checklib.convexity_check(crit, arms, n_pairs=500, seed=8)


def _modulus_suite():
    cases = [
        (CVaRCriterion(0.1), _CLOSE_GAUSSIANS),
        (VaRCriterion(0.1), _CLOSE_GAUSSIANS),
        (MeanCriterion(), _MIXED_ARMS),
        (SecondMomentCriterion(), _MIXED_ARMS),
        (NegTSVCriterion(0.0), _MIXED_ARMS),
        (NegVarianceCriterion(), _MIXED_ARMS),
        (MeanVarianceCriterion(0.8), _MIXED_ARMS),
        (SharpeCriterion(0.0, 0.5), _POSITIVE_ARMS),
        (SortinoCriterion(0.0, 0.5), _POSITIVE_ARMS),
    ]
    for crit, arms in cases:
        cert = crit.stability_certificate(arms)
        assert cert is not None, crit.tag
        if crit.tag == "cvar":
            assert cert.q == 2.0
        if crit.tag == "var":
            assert cert.q == 1.0
        yield checklib.modulus_check(crit, arms, {f"modulus[{crit.tag}]": cert}, 500, 10)[0]


def _residual_suite():
    cases = [
        (CVaRCriterion(0.2), _CLOSE_GAUSSIANS),
        (NegVarianceCriterion(), _MIXED_ARMS),
        (MeanVarianceCriterion(0.8), _MIXED_ARMS),
        (SharpeCriterion(0.0, 0.8), _POSITIVE_ARMS),
        (SortinoCriterion(0.0, 0.8), _POSITIVE_ARMS),
        (EntropicCriterion(0.5), _POSITIVE_ARMS),
        (MeanCriterion(), _MIXED_ARMS),
    ]
    for crit, arms in cases:
        smooth = crit.smoothness_certificate(arms)
        assert smooth is not None, crit.tag
        yield checklib.residual_check(crit, arms, smooth, n_pairs=200, seed=12)


def test_acceptance_8_invariant_suites():
    results = []
    results += list(_convexity_suite())
    results += list(_modulus_suite())
    results += list(_residual_suite())
    results.append(checklib.phi_identity_check(StabilityCertificate(0.77, 310.0, 2.0)))
    results.append(checklib.phi_identity_check(StabilityCertificate(2.0, 0.45, 1.0)))
    results.append(
        checklib.dkw_grid_check(
            Gaussian(0, 1),
            [(25, 0.2), (100, 0.1), (100, 0.14), (400, 0.05), (400, 0.07)],
            reps=10_000,
            seed=2024,
        )
    )
    results.append(checklib.cvar_order_statistic_check(seed=14))
    results.append(
        checklib.galois_check(
            _MIXED_ARMS + [bad1_arm_wide(), PointMass(2.0)], n_points=400, seed=16
        )
    )
    results.append(_determinism_check())
    failures = [r.line() for r in results if not r.passed]
    for r in results:
        print("   ", r.line())
    _report(8, not failures, f"{len(results) - len(failures)}/{len(results)} invariant suites passed")


def _determinism_check():
    from riskbandits.sim import estimate_performance as perf

    arms = [Gaussian(0.0, 1.0), Gaussian(-0.5, 1.0)]
    crit = CVaRCriterion(0.2)
    cert = crit.stability_certificate(arms, b=0.5)
    policy = UcbPolicy(cert, 3.0)
    serial = run_replications(arms, policy, crit, 512, 16, seed=77, parallel=1)
    parallel = run_replications(arms, policy, crit, 512, 16, seed=77, parallel=4)
    again = run_replications(arms, policy, crit, 512, 16, seed=77, parallel=1)
    bit_equal = all(
        np.array_equal(a.pooled_values, b.pooled_values)
        and np.array_equal(a.proxy_values, b.proxy_values)
        and np.array_equal(a.tau, b.tau)
        for pair in (zip(serial, parallel), zip(serial, again))
        for a, b in pair
    )
    rows_a = perf(serial)
    rows_b = perf(parallel)
    agg_equal = all(
        (x.value, x.stderr) == (y.value, y.stderr) for x, y in zip(rows_a, rows_b)
    )
    return checklib.CheckResult(
        "bit-exact-determinism",
        bit_equal and agg_equal,
        "serial, parallel, and repeated runs agree exactly",
    )
