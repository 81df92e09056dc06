"""Command-line experiment runner.

Subcommands:
  eval      criterion values per arm and for requested mixtures
  oracle    best arm, gaps, simplex sweep, pull-count bounds -> CSV
  simulate  Monte Carlo estimates (performance, proxy regret, horizon gap,
            reference regret) -> one CSV per (policy, horizon)
  check     admissibility conditions and invariant suites -> report

Exit codes: 0 success, 1 config/validation error, 2 check failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import checks as checklib
from .config import ExperimentConfig, _file_stem, _seed, load_config
from .errors import ConfigError, DomainError
from .oracle import (
    _MAX_GRID_ARMS,
    best_single_arm,
    expected_pull_bound,
    lipschitz_constant,
    proxy_regret_bound,
    simplex_grid_argmax,
)
from .policy import SimplePolicy, UcbPolicy
from .sim import (
    cut_episode,
    estimate_horizon_gap,
    estimate_performance,
    estimate_proxy_regret,
    estimate_reference_regret,
    geometric_checkpoints,
    run_replications,
    write_csv,
    write_report_csv,
)

__all__ = ["main"]


def _criterion_label(cfg: ExperimentConfig) -> str:
    params = cfg.criterion.params_label()
    return f"{cfg.criterion.tag}({params})" if params else cfg.criterion.tag


def _base_meta(cfg: ExperimentConfig) -> dict:
    return {
        "version": cfg.version,
        "seed": cfg.seed,
        "criterion": _criterion_label(cfg),
        "arms": len(cfg.arms),
    }


def cmd_eval(cfg: ExperimentConfig, out_dir: Path | None) -> int:
    rows = []
    for i, arm in enumerate(cfg.arms):
        rows.append((f"arm{i + 1}", cfg.criterion.evaluate(arm)))
    for p, mixture in cfg.mixtures:
        label = "mix[" + ",".join(f"{w:g}" for w in p) + "]"
        rows.append((label, cfg.criterion.evaluate(mixture)))
    width = max(len(r[0]) for r in rows)
    print(f"criterion: {_criterion_label(cfg)}")
    for name, value in rows:
        print(f"  {name:<{width}}  {value:.12g}")
    if out_dir is not None:
        path = out_dir / "eval.csv"
        # the CSV separates a mixture's weights by '|', as oracle.csv does
        rows = ((n.replace(",", "|"), repr(v)) for n, v in rows)
        write_csv(path, _base_meta(cfg), ("target", "value"), rows)
        print(f"wrote {path}")
    return 0


def _grid_sweep(cfg: ExperimentConfig):
    """The simplex sweep's ``(p, value)``, or None without a resolution or
    with more arms than the sweep takes."""
    if cfg.grid_resolution is None or len(cfg.arms) > _MAX_GRID_ARMS:
        return None
    return simplex_grid_argmax(cfg.criterion, cfg.arms, cfg.grid_resolution)


def _policy_records(cfg: ExperimentConfig) -> list:
    """``(label, policy)`` of the policies, then of a reference record."""
    return [*cfg.policies, *([cfg.reference] if isinstance(cfg.reference, tuple) else [])]


def _ucb_learners(cfg: ExperimentConfig):
    """The criterion's certificate (with its override) and the ``(label,
    policy)`` of each distinct UCB learner, in record order: the policies,
    then the reference.  A label an earlier learner holds gets
    ``#<position>``.  The learner a bare ``{kind: ucb}`` record builds (that
    certificate at the top-level ``ucb_alpha``) is labelled None; it stands
    alone when no record is a UCB policy."""
    cert = cfg.criterion.stability_certificate(cfg.arms, **cfg.certificate_overrides)
    default = None if cert is None else UcbPolicy(cert, cfg.ucb_alpha)
    learners = {}  # policy -> label
    for i, (label, policy) in enumerate(_policy_records(cfg)):
        if isinstance(policy, UcbPolicy) and policy not in learners:
            if policy == default:
                label = None
            elif label in learners.values():
                label = f"{label}#{i + 1}"
            learners[policy] = label
    if not learners and default is not None:
        learners[default] = None
    return cert, [(label, policy) for policy, label in learners.items()]


def cmd_oracle(cfg: ExperimentConfig, out_dir: Path | None) -> int:
    crit, arms = cfg.criterion, cfg.arms
    cert, learners = _ucb_learners(cfg)
    best, best_value, gaps = best_single_arm(crit, arms)
    sweep = _grid_sweep(cfg)
    lipschitz = None if cert is None else lipschitz_constant(cert, arms, crit.functionals)
    # each learner's L, pull and proxy-regret bounds rest on its own
    # certificate and alpha; they need strictly suboptimal arms
    bounds = []  # (label, L, pull bounds, regret bounds)
    if all(g > 0 for i, g in enumerate(gaps) if i != best):
        for label, policy in learners:
            own = policy.certificate
            l_own = lipschitz if own == cert else lipschitz_constant(own, arms, crit.functionals)
            pulls = expected_pull_bound(crit, arms, own, policy.ucb_alpha, cfg.horizons)
            bounds.append((label, l_own, pulls, proxy_regret_bound(crit, arms, l_own, pulls)))
    print(f"criterion: {_criterion_label(cfg)}")
    print(f"best arm: arm{best + 1}  value {best_value:.12g}")
    rows = [("best-arm", best + 1, "", repr(best_value))]
    for i, gap in enumerate(gaps):
        print(f"  arm{i + 1} gap {gap:.12g}")
        rows.append(("gap", i + 1, "", repr(gap)))
    if sweep is not None:
        p = ",".join(f"{w:g}" for w in sweep[0])
        print(f"simplex sweep argmax: p=({p})  value {sweep[1]:.12g}")
        rows.append((f"simplex-argmax[{p.replace(',', '|')}]", "", "", repr(sweep[1])))
    if lipschitz is not None:
        print(f"stationary-gap constant L: {lipschitz:.6g}")
        rows.append(("lipschitz", "", "", repr(lipschitz)))
    for label, l_own, pull_bounds, regret_bounds in bounds:
        tag = "" if label is None else f" [{label}]"
        row_tag = tag[1:].replace(",", "|")
        if label is not None:
            print(f"stationary-gap constant L{tag}: {l_own:.6g}")
            rows.append((f"lipschitz{row_tag}", "", "", repr(l_own)))
        for horizon, pulls in pull_bounds.items():
            parts = []
            for i, u in enumerate(pulls):
                if u is not None:
                    # a bound at or above T says nothing about T pulls
                    parts.append(f"arm{i + 1}<={u:.6g}" + (" (vacuous)" if u >= horizon else ""))
                    rows.append((f"pull-bound{row_tag}", i + 1, horizon, repr(u)))
            print(f"T={horizon}{tag}: expected pulls {'; '.join(parts)}; "
                  f"proxy-regret bound {regret_bounds[horizon]:.6g}")
            rows.append((f"proxy-regret-bound{row_tag}", "", horizon, repr(regret_bounds[horizon])))
    if out_dir is not None:
        path = out_dir / "oracle.csv"
        write_csv(path, _base_meta(cfg), ("record", "arm", "horizon", "value"), rows)
        print(f"wrote {path}")
    return 0


def _stationary_optimum(cfg: ExperimentConfig) -> float | None:
    """Best stationary value: vertex for the quasiconvex catalog, grid sweep
    otherwise (when a resolution is configured)."""
    if cfg.criterion.convexity in ("linear", "convex", "quasiconvex"):
        return best_single_arm(cfg.criterion, cfg.arms)[1]
    sweep = _grid_sweep(cfg)
    return None if sweep is None else sweep[1]


def _reference_policy(cfg: ExperimentConfig):
    if cfg.reference != "best-arm":
        return cfg.reference  # built by the config parser
    best, _, _ = best_single_arm(cfg.criterion, cfg.arms)
    p = np.zeros(len(cfg.arms))
    p[best] = 1.0
    return f"best-arm(arm{best + 1})", SimplePolicy(p)


def cmd_simulate(
    cfg: ExperimentConfig, out_dir: Path | None, reps: int, parallel: int
) -> int:
    if not cfg.policies:
        raise ConfigError("simulate needs at least one policy in the config")
    if not cfg.horizons:
        raise ConfigError("simulate needs a non-empty 'horizons' list")
    out_dir = out_dir or Path(".")
    p_star_value = _stationary_optimum(cfg)
    want = set(cfg.estimators)
    if "reference-regret" in want:
        ref_label, ref_policy = _reference_policy(cfg)
    # each horizon's rows end at that horizon (the default: the doubling grid)
    grids = {
        horizon: geometric_checkpoints(len(cfg.arms), horizon) if cfg.checkpoints is None
        else tuple(sorted({*cfg.checkpoints, horizon}))
        for horizon in cfg.horizons
    }
    longest, union = max(cfg.horizons), sorted(set().union(*grids.values()))
    played = []  # (policy, episodes): each distinct policy plays once, to the longest horizon

    def episodes_of(policy, horizon):
        full = next((e for p, e in played if p == policy), None)
        if full is None:
            full = run_replications(
                cfg.arms, policy, cfg.criterion, longest, reps, cfg.seed, union, parallel,
            )
            played.append((policy, full))
        return [cut_episode(e, horizon, grids[horizon]) for e in full]

    for horizon in cfg.horizons:
        if "reference-regret" in want:
            ref_episodes = episodes_of(ref_policy, horizon)
        for label, policy in cfg.policies:
            episodes = episodes_of(policy, horizon)
            rows = []
            if "performance" in want:
                rows += estimate_performance(episodes)
            if "proxy-regret" in want and p_star_value is not None:
                rows += estimate_proxy_regret(episodes, p_star_value)
            if "horizon-gap" in want and reps >= 2:
                rows += estimate_horizon_gap(episodes)
            if "reference-regret" in want:
                rows += estimate_reference_regret(episodes, ref_episodes)
            meta = _base_meta(cfg)
            meta.update({"policy": label, "horizon": horizon, "replications": reps})
            if "reference-regret" in want:
                meta["reference"] = ref_label
            if p_star_value is not None:
                meta["stationary-optimum"] = repr(float(p_star_value))
            path = out_dir / f"simulate_{_file_stem(label)}_T{horizon}.csv"
            write_report_csv(path, meta, rows)
            print(f"wrote {path} ({len(rows)} rows)")
    return 0


def cmd_check(cfg: ExperimentConfig, out_dir: Path | None) -> int:
    opts = cfg.check_options  # typed by the config parser
    pairs = opts.get("pairs", 200)
    seed = opts.get("seed", cfg.seed)
    dkw_reps = opts.get("dkw_reps", 2000)
    results = []

    results.append(checklib.condition_c1(cfg.criterion, cfg.arms))
    results.append(checklib.condition_c2(cfg.arms))
    alpha = getattr(cfg.criterion, "alpha", None)
    if alpha is not None:
        results.append(checklib.condition_c3(cfg.arms, alpha))
        results.append(
            checklib.condition_c4(
                cfg.arms,
                alpha,
                b_alpha=opts.get("b_alpha"),
                m_alpha=opts.get("m_alpha"),
                grid_step=opts.get("grid_step", 1e-3),
            )
        )
        results.append(checklib.condition_c5(cfg.arms, alpha))

    results.append(checklib.convexity_check(cfg.criterion, cfg.arms, pairs, seed))
    # one modulus pass scores every certificate a command builds on, a line
    # each: the criterion's own, the config's override (which the UCB radii
    # and the pull bounds use) and each UCB record's own radii
    tag = cfg.criterion.tag
    cert = cfg.criterion.stability_certificate(cfg.arms)
    named = {} if cert is None else {f"modulus[{tag}]": cert}
    radii = cert
    if cfg.certificate_overrides:
        radii = cfg.criterion.stability_certificate(cfg.arms, **cfg.certificate_overrides)
        if radii is not None:
            named[f"modulus-override[{tag}]"] = radii
    for i, (label, policy) in enumerate(_policy_records(cfg)):
        if isinstance(policy, UcbPolicy) and policy.certificate not in named.values():
            name = f"modulus-ucb[{label}]"
            named[f"modulus-ucb[{label}#{i + 1}]" if name in named else name] = policy.certificate
    if named:
        results += checklib.modulus_check(cfg.criterion, cfg.arms, named, pairs, seed)
    if radii is not None:
        results.append(checklib.phi_identity_check(radii))
    try:
        smooth = cfg.criterion.smoothness_certificate(cfg.arms)
    except DomainError:
        smooth = None
    if smooth is not None:
        results.append(
            checklib.residual_check(cfg.criterion, cfg.arms, smooth, max(20, pairs // 4), seed)
        )
    results.append(checklib.galois_check(cfg.arms, n_points=100, seed=seed))
    dkw_grid = opts.get("dkw_grid", [(25, 0.2), (100, 0.1), (100, 0.14), (400, 0.05), (400, 0.07)])
    results.append(
        checklib.dkw_grid_check(cfg.arms[0], dkw_grid, reps=dkw_reps, seed=seed)
    )
    if cfg.criterion.tag == "cvar":
        results.append(checklib.cvar_order_statistic_check(seed=seed))

    for res in results:
        print(res.line())
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} checks passed")
    if out_dir is not None:
        path = out_dir / "check.csv"
        rows = (
            (r.name.replace(",", ";"), int(r.passed), r.detail.replace(",", ";")) for r in results
        )
        write_csv(path, _base_meta(cfg), ("check", "passed", "detail"), rows)
        print(f"wrote {path}")
    return 2 if n_fail else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="riskbandits",
        description="Risk-criterion bandit simulator and analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("eval", "oracle", "simulate", "check"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment YAML file")
        p.add_argument("--out", default=None, help="output directory for CSV files")
        p.add_argument("--seed", type=int, default=None, help="override the base seed")
        if name == "simulate":
            p.add_argument("--reps", type=int, default=None, help="override replications")
            p.add_argument("--parallel", type=int, default=1, help="worker processes (at least 1)")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = _seed(args.seed, "--seed")
        out_dir = None
        if args.out is not None:
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
        elif cfg.output is not None:
            out_dir = Path(cfg.output)
            out_dir.mkdir(parents=True, exist_ok=True)

        if args.command == "eval":
            return cmd_eval(cfg, out_dir)
        if args.command == "oracle":
            return cmd_oracle(cfg, out_dir)
        if args.command == "simulate":
            reps = args.reps if args.reps is not None else cfg.replications
            return cmd_simulate(cfg, out_dir, reps, args.parallel)
        if args.command == "check":
            return cmd_check(cfg, out_dir)
    except (ConfigError, DomainError, OSError) as exc:
        constraint = getattr(exc, "constraint", "")
        print(f"error: {exc}" + (f" [{constraint}]" if constraint else ""), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
