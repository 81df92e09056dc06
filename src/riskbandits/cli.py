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
from .dist import MixtureDistribution
from .errors import ConfigError, DomainError
from .oracle import _MAX_GRID_ARMS, best_single_arm, oracle_report, simplex_grid_argmax
from .policy import SimplePolicy
from .sim import (
    RegretReport,
    estimate_horizon_gap,
    estimate_performance,
    estimate_proxy_regret,
    estimate_reference_regret,
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
    for p in cfg.mixtures:
        label = "mix[" + ",".join(f"{w:g}" for w in p) + "]"
        rows.append((label, cfg.criterion.evaluate(MixtureDistribution(cfg.arms, p))))
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


def cmd_oracle(cfg: ExperimentConfig, out_dir: Path | None) -> int:
    cert = cfg.criterion.stability_certificate(cfg.arms, **cfg.certificate_overrides)
    report = oracle_report(
        cfg.criterion,
        cfg.arms,
        resolution=cfg.grid_resolution,
        certificate=cert,
        ucb_alpha=cfg.ucb_alpha,
        horizons=cfg.horizons,
    )
    print(f"criterion: {_criterion_label(cfg)}")
    print(f"best arm: arm{report.best_arm + 1}  value {report.best_value:.12g}")
    for i, gap in enumerate(report.gaps):
        print(f"  arm{i + 1} gap {gap:.12g}")
    if report.p_star is not None:
        p = ",".join(f"{w:g}" for w in report.p_star)
        print(f"simplex sweep argmax: p=({p})  value {report.p_star_value:.12g}")
    if report.lipschitz is not None:
        print(f"stationary-gap constant L: {report.lipschitz:.6g}")
    for horizon, (bounds, regret_bound) in report.pull_bounds.items():
        parts = [
            f"arm{i + 1}<={u:.6g}" for i, u in enumerate(bounds) if u is not None
        ]
        print(f"T={horizon}: expected pulls {'; '.join(parts)}; "
              f"proxy-regret bound {regret_bound:.6g}")
    if out_dir is not None:
        rows = [("best-arm", report.best_arm + 1, "", repr(report.best_value))]
        rows += [("gap", i + 1, "", repr(gap)) for i, gap in enumerate(report.gaps)]
        if report.p_star is not None:
            p = "|".join(f"{w:g}" for w in report.p_star)
            rows.append((f"simplex-argmax[{p}]", "", "", repr(report.p_star_value)))
        if report.lipschitz is not None:
            rows.append(("lipschitz", "", "", repr(report.lipschitz)))
        for horizon, (bounds, regret_bound) in report.pull_bounds.items():
            pulls = [(i + 1, u) for i, u in enumerate(bounds) if u is not None]
            rows += [("pull-bound", arm, horizon, repr(u)) for arm, u in pulls]
            rows.append(("proxy-regret-bound", "", horizon, repr(regret_bound)))
        path = out_dir / "oracle.csv"
        write_csv(path, _base_meta(cfg), ("record", "arm", "horizon", "value"), rows)
        print(f"wrote {path}")
    return 0


def _stationary_optimum(cfg: ExperimentConfig) -> float | None:
    """Best stationary value: vertex for the quasiconvex catalog, grid sweep
    otherwise (when a resolution is configured)."""
    if cfg.criterion.convexity in ("linear", "convex", "quasiconvex"):
        return best_single_arm(cfg.criterion, cfg.arms)[1]
    if cfg.grid_resolution is not None and len(cfg.arms) <= _MAX_GRID_ARMS:
        return simplex_grid_argmax(cfg.criterion, cfg.arms, cfg.grid_resolution)[1]
    return None


def _reference_policy(cfg: ExperimentConfig):
    if cfg.reference == "best-arm":
        best, _, _ = best_single_arm(cfg.criterion, cfg.arms)
        p = np.zeros(len(cfg.arms))
        p[best] = 1.0
        return f"best-arm(arm{best + 1})", SimplePolicy(p)
    # any other reference is a policy record (checked by the config parser)
    return cfg.reference.get("label", cfg.reference["kind"]), cfg.resolve_policy(cfg.reference)


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
    policies = cfg.policy_objects()
    for horizon in cfg.horizons:
        if "reference-regret" in want:
            ref_episodes = run_replications(
                cfg.arms, ref_policy, cfg.criterion, horizon, reps,
                cfg.seed, cfg.checkpoints, parallel,
            )
        for label, policy in policies:
            episodes = run_replications(
                cfg.arms, policy, cfg.criterion, horizon, reps,
                cfg.seed, cfg.checkpoints, parallel,
            )
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
            report = RegretReport(rows, meta)
            path = out_dir / f"simulate_{_file_stem(label)}_T{horizon}.csv"
            write_report_csv(path, report)
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
    # the modulus suite validates the criterion's own certificate; radii
    # overrides are policy-exploration knobs, not stability claims
    cert = cfg.criterion.stability_certificate(cfg.arms)
    if cert is not None:
        results.append(checklib.modulus_check(cfg.criterion, cfg.arms, cert, pairs, seed))
    radii = cfg.criterion.stability_certificate(cfg.arms, **cfg.certificate_overrides)
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
        rows = ((r.name, int(r.passed), r.detail.replace(",", ";")) for r in results)
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
