"""Benchmark of the riskbandits CLI: four workloads, timed end to end and traced per layer.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all      # every workload, untraced
  python3 perfbench/run.py --update-reference  # re-record the default-seed output hashes

Every timed command runs in a fresh interpreter (``child.py``), as a user
runs the CLI, serially (``--parallel 1``).  The workload seed N yields
``INPUTS`` input seeds N * INPUTS + i, passed in turn as the CLI's
``--seed``: the command is repeated, cycling through them, until
``--seconds`` have passed and each has run once; a repetition starts only
if it is expected to end by then.  Each metric is the median over the
repetitions, so one run's figure does not hang on one input.  The host's
speed drifts by tens of percent over minutes, so the timed metrics scale
each command's wall time by ``KERNEL_REF_S`` over the time a fixed
reference kernel took right around it (``child.reference_kernel``).
With ``--trace 1`` traced and untraced commands alternate and the per-layer
metrics come from the traced ones.  Every command's outputs are checked:
the exit code, every (checkpoint, estimator) row with ``flagged == 0``, and
every check line PASS; anything else is a failed operation.  The last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics.  See NOTES.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import yaml

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 1
INPUTS = 5
PROBE_REPS = 2
CHILD_TIMEOUT_S = 170
CHECK_LINES = 12  # check lines the close-Gaussian config prints; all must PASS
# reference-kernel seconds that define the calibrated time scale: about the
# kernel's median on the machine described in NOTES.md
KERNEL_REF_S = 0.1

# CSV metadata keys the CLI writes today; keys added later do not change the hash
META_KEYS = ("arms", "criterion", "horizon", "policy", "reference", "replications",
             "seed", "stationary-optimum", "version")

CHECK_SUITES = ("checks.modulus", "checks.convexity", "checks.residual", "checks.dkw",
                "checks.conditions")


class BenchError(RuntimeError):
    pass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                # CLI subcommand
    config: str                 # relative to the repository root
    reps: int | None            # --reps for simulate
    nonzero: tuple[str, ...]    # boundaries the traced run must see called
    zero: tuple[str, ...]       # boundaries the traced run must never see called


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ucb-cvar", "simulate", "configs/cvar_gaussians.yaml", 4,
            nonzero=("policy.select", "criteria.evaluate_select", "policy.update",
                     "dist.sample", "sim.run_episode", "criteria.evaluate_checkpoint",
                     "dist.proxy_distribution", "sim.estimate"),
            zero=("norms.sup_distance", "norms.refine", "criteria.fit_c4_constants")
            + CHECK_SUITES,
        ),
        Workload(
            "bad1-oracle", "simulate", "configs/bad1_counterexample.yaml", 2,
            nonzero=("policy.select", "policy.update", "dist.sample", "sim.run_episode",
                     "criteria.evaluate_checkpoint", "oracle.stationary_optimum",
                     "sim.estimate"),
            zero=("criteria.evaluate_select", "norms.sup_distance", "norms.refine",
                  "criteria.fit_c4_constants", "dist.mixture_cdf_in_quantile")
            + CHECK_SUITES,
        ),
        Workload(
            "var-flat-vertex", "simulate", "configs/var_flat_rate.yaml", 100,
            nonzero=("dist.sample", "sim.run_episode", "criteria.evaluate_checkpoint",
                     "dist.proxy_distribution", "sim.estimate"),
            zero=("policy.select", "policy.update", "criteria.evaluate_select",
                  "norms.sup_distance", "norms.refine", "criteria.fit_c4_constants",
                  "dist.mixture_cdf_in_quantile") + CHECK_SUITES,
        ),
        Workload(
            "check-close-gaussians", "check", "perfbench/close_gaussians.yaml", None,
            nonzero=("norms.sup_distance", "norms.refine", "criteria.fit_c4_constants",
                     "dist.mixture_quantile", "dist.mixture_cdf",
                     "dist.mixture_cdf_in_quantile") + CHECK_SUITES,
            zero=("policy.select", "policy.update", "sim.run_episode",
                  "criteria.evaluate_select", "criteria.evaluate_checkpoint"),
        ),
    )
}

END_TO_END_UNITS = {"setup_s": "s", "cal_wall_s": "s", "cal_steps_per_s": "1/s",
                    "peak_rss_mb": "MiB"}


# ---------------------------------------------------------------------------
# Layer boundaries, matched on the (parent span, span) pairs the tracer records
# ---------------------------------------------------------------------------

MIXTURE_QUANTILE = {"dist.MixtureDistribution._quantile", "dist.MixtureDistribution.upper_quantile"}
MIXTURE_CDF = {"dist.MixtureDistribution.cdf", "dist.MixtureDistribution.cdf_left"}


def _is_select(name):
    return name is not None and name.startswith("policy.") and name.endswith(".select")


def _is_evaluate(name):
    return name.startswith("criteria.") and name.endswith(".evaluate")


BOUNDARIES = {
    "policy.select": lambda parent, name: _is_select(name),
    "criteria.evaluate_select": lambda parent, name: _is_evaluate(name) and _is_select(parent),
    "policy.update": lambda parent, name: name == "policy.PolicyState.update",
    "dist.sample": lambda parent, name: name == "dist.RewardDistribution.sample",
    "sim.run_episode": lambda parent, name: name == "sim.run_episode",
    "criteria.evaluate_checkpoint":
        lambda parent, name: _is_evaluate(name) and parent == "sim.run_episode",
    "dist.proxy_distribution": lambda parent, name: name == "dist.proxy_distribution",
    "dist.mixture_quantile": lambda parent, name: name in MIXTURE_QUANTILE,
    "dist.mixture_cdf": lambda parent, name: name in MIXTURE_CDF,
    "dist.mixture_cdf_in_quantile":
        lambda parent, name: name in MIXTURE_CDF and parent in MIXTURE_QUANTILE,
    "norms.sup_distance": lambda parent, name: name == "norms.sup_distance",
    "norms.refine": lambda parent, name: name == "norms.refine",
    "criteria.fit_c4_constants": lambda parent, name: name == "criteria.fit_c4_constants",
    "checks.modulus": lambda parent, name: name == "checks.modulus_check",
    "checks.convexity": lambda parent, name: name == "checks.convexity_check",
    "checks.residual": lambda parent, name: name == "checks.residual_check",
    "checks.dkw": lambda parent, name: name == "checks.dkw_grid_check",
    "checks.conditions": lambda parent, name: name.startswith("checks.condition_c"),
    "oracle.stationary_optimum": lambda parent, name: name.startswith("oracle."),
    "sim.estimate":
        lambda parent, name: name.startswith("sim.estimate_") or name == "sim.write_report_csv",
    "config.load": lambda parent, name: name.startswith("config."),
}

CALL_METRICS = ("policy.select", "criteria.evaluate_select", "policy.update", "dist.sample",
                "sim.run_episode", "criteria.evaluate_checkpoint", "dist.proxy_distribution",
                "dist.mixture_quantile", "dist.mixture_cdf", "norms.sup_distance",
                "norms.refine", "criteria.fit_c4_constants")
SELF_METRICS = ("policy.select", "criteria.evaluate_select", "policy.update", "dist.sample",
                "sim.run_episode", "criteria.evaluate_checkpoint", "dist.mixture_quantile",
                "norms.sup_distance", "criteria.fit_c4_constants") + CHECK_SUITES + (
                "oracle.stationary_optimum", "sim.estimate", "config.load")

PER_LAYER_UNITS = {
    **{f"{b}.calls": "count" for b in CALL_METRICS},
    **{f"{b}.self_s": "s" for b in SELF_METRICS},
    "criteria.evaluate_select.mean_n": "count",
    "dist.sample.values": "count",
    "dist.sample.values_per_call": "count",
    "dist.mixture_cdf_per_quantile": "count",
    "norms.refine_per_sup": "count",
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
    "raw.wall_s": "s",
    "raw.kernel_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "sim.outputs_changed": "count",
}


def boundary_totals(stats) -> dict:
    """Per boundary: [calls, self seconds, size sum] of its outermost spans.

    A boundary's self time is its duration minus the time in child spans of
    other layers: calls inside the same layer count as its own work.
    Spans nested in a span of the same boundary are already inside it.
    """
    totals = {b: [0, 0.0, 0] for b in BOUNDARIES}
    for s in stats:
        for b, match in BOUNDARIES.items():
            nested = s["parent"] is not None and match(None, s["parent"])
            if match(s["parent"], s["name"]) and not nested:
                row = totals[b]
                row[0] += s["calls"]
                row[1] += s["layer_self_s"]
                row[2] += s["size"]
    return totals


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(stats) -> dict:
    """Per-layer metrics of one traced command (without the trace.* and sim.* extras)."""
    t = boundary_totals(stats)
    m = {f"{b}.calls": t[b][0] for b in CALL_METRICS}
    m.update({f"{b}.self_s": t[b][1] for b in SELF_METRICS})
    m["criteria.evaluate_select.mean_n"] = _ratio(t["criteria.evaluate_select"][2],
                                                  t["criteria.evaluate_select"][0])
    m["dist.sample.values"] = t["dist.sample"][2]
    m["dist.sample.values_per_call"] = _ratio(t["dist.sample"][2], t["dist.sample"][0])
    m["dist.mixture_cdf_per_quantile"] = _ratio(t["dist.mixture_cdf_in_quantile"][0],
                                                t["dist.mixture_quantile"][0])
    m["norms.refine_per_sup"] = _ratio(t["norms.refine"][0], t["norms.sup_distance"][0])
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = sum(
            s["self_s"] for s in stats if s["name"].split(".", 1)[0] == layer
        )
    return m


def tracer_self_check(w: Workload, stats) -> list[str]:
    """Boundaries whose call count contradicts the workload's expectation."""
    t = boundary_totals(stats)
    bad = [f"{b} has no calls" for b in w.nonzero if t[b][0] == 0]
    bad += [f"{b} has {t[b][0]} calls, expected none" for b in w.zero if t[b][0] != 0]
    return bad


# ---------------------------------------------------------------------------
# Running one command
# ---------------------------------------------------------------------------


def run_command(w: Workload, seed: int, trace=False, parallel=1, reps=None) -> dict:
    """Run the workload's CLI command once in a fresh interpreter.

    Returns the child's result plus ``setup_s``, ``stdout`` and the output
    files (name -> text), which live in a temporary directory under the
    checkout only while the command runs.
    """
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        tmp = Path(tmp)
        result_path = tmp / "result.json"
        config = str(ROOT / w.config)
        cli = [w.command, "--config", config, "--out", str(tmp / "out"), "--seed", str(seed)]
        if w.command == "simulate":
            cli += ["--reps", str(reps or w.reps), "--parallel", str(parallel)]
        argv = [sys.executable, str(HERE / "child.py"), str(result_path),
                "1" if trace else "0", config, "--", *cli]
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0 or not result_path.exists():
            raise BenchError(f"{w.name}: command {cli} crashed:\n{proc.stderr.strip()}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["setup_s"] = result["ready"] - spawned
        result["stdout"] = proc.stdout
        result["files"] = {p.name: p.read_text(encoding="utf-8")
                           for p in sorted((tmp / "out").glob("*.csv"))}
    return result


def parse_csv(text: str):
    """(metadata, header line, row lines) of a CSV with '# key=value' metadata."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    meta = dict(line[1:].strip().partition("=")[::2] for line in lines if line.startswith("#"))
    body = [line for line in lines if not line.startswith("#")]
    return meta, body[0] if body else "", body[1:]


def digest(text: str) -> str:
    """Hash of the CSV rows plus the metadata keys in ``META_KEYS``."""
    meta, header, rows = parse_csv(text)
    h = hashlib.sha256()
    for key in META_KEYS:
        if key in meta:
            h.update(f"{key}={meta[key]}\n".encode())
    for line in [header, *rows]:
        h.update(f"{line}\n".encode())
    return h.hexdigest()


def _checkpoints(cfg, horizon):
    if cfg.get("checkpoints"):
        return sorted(set(int(c) for c in cfg["checkpoints"]))
    out, t = [], len(cfg["arms"])
    while t < horizon:
        out.append(t)
        t *= 2
    return out + [horizon]


def _csv_failures(cfg, estimators, reps, horizon, meta, rows) -> int:
    """Failed episodes of one (policy, horizon) CSV: all of them when a row
    is missing or malformed, else its largest ``flagged`` count."""
    try:
        cells = [row.split(",") for row in rows]
        have = {(int(c[0]), c[1]) for c in cells}
        want = {(cp, e) for cp in _checkpoints(cfg, horizon) for e in estimators}
        if not want <= have or meta.get("replications") != str(reps):
            return reps
        return min(reps, max(int(c[5]) for c in cells))
    except (ValueError, IndexError):
        return reps


def verify(w: Workload, cfg: dict, run: dict):
    """(attempted, failed, steps) for one command's outputs.

    simulate: one operation per episode (reference episodes included), and
    ``steps`` counts reps x T for every policy, reference and horizon.
    check: one operation, and one step, per check line.
    """
    if w.command == "check":
        lines = [ln for ln in run["stdout"].splitlines() if ln.startswith(("[PASS]", "[FAIL]"))]
        attempted = max(len(lines), CHECK_LINES)
        if run["rc"] != 0 or "check.csv" not in run["files"]:
            return attempted, attempted, len(lines)
        failed = attempted - sum(ln.startswith("[PASS]") for ln in lines)
        return attempted, failed, len(lines)

    estimators = set(cfg["estimators"])
    if w.reps < 2:
        estimators.discard("horizon-gap")
    per_horizon = (len(cfg["policies"]) + ("reference-regret" in estimators)) * w.reps
    attempted = per_horizon * len(cfg["horizons"])
    steps = per_horizon * sum(cfg["horizons"])
    if run["rc"] != 0:
        return attempted, attempted, steps
    failed = 0
    found = dict.fromkeys(cfg["horizons"], 0)
    for text in run["files"].values():
        meta, _, rows = parse_csv(text)
        horizon = int(meta.get("horizon", -1))
        if horizon in found:
            found[horizon] += 1
            failed += _csv_failures(cfg, estimators, w.reps, horizon, meta, rows)
    failed += sum(max(0, len(cfg["policies"]) - n) * w.reps for n in found.values())
    return attempted, min(failed, attempted), steps


def output_hashes(run: dict) -> dict:
    return {name: digest(text) for name, text in run["files"].items()}


def load_cfg(w: Workload) -> dict:
    return yaml.safe_load((ROOT / w.config).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Probes and measurement
# ---------------------------------------------------------------------------


def parallel_probe(seed: int):
    """(attempted, failed): serial and ``--parallel 2`` runs of ucb-cvar must
    write identical CSVs.  Untimed, once per invocation."""
    w = WORKLOADS["ucb-cvar"]
    serial = run_command(w, seed, reps=PROBE_REPS)
    parallel = run_command(w, seed, parallel=2, reps=PROBE_REPS)
    names = set(serial["files"]) | set(parallel["files"])
    failed = sum(serial["files"].get(n) != parallel["files"].get(n) for n in names)
    if serial["rc"] != 0 or parallel["rc"] != 0 or not names:
        failed = max(1, len(names))
    return max(1, len(names)), failed


def outputs_changed(w: Workload, cfg: dict):
    """(attempted, failed, changed): one untimed run at the default seed,
    its CSV hashes compared with those recorded in reference.json."""
    run = run_command(w, DEFAULT_SEED)
    attempted, failed, _ = verify(w, cfg, run)
    want = json.loads(REFERENCE.read_text(encoding="utf-8")).get(w.name, {})
    got = output_hashes(run)
    changed = sum(want.get(n) != got.get(n) for n in set(want) | set(got))
    return attempted, failed, changed


def measure(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    cfg = load_cfg(w)
    attempted, failed = parallel_probe(seed)
    plain, traced = [], []
    first_hashes = {}
    deadline = time.monotonic() + seconds
    last_s = 0.0  # duration of the previous repetition
    while len(plain) < INPUTS or time.monotonic() + last_s < deadline:
        started = time.monotonic()
        input_seed = seed * INPUTS + len(plain) % INPUTS
        for traced_run in (False, True) if trace else (False,):
            run = run_command(w, input_seed, trace=traced_run)
            a, f, run["steps"] = verify(w, cfg, run)
            # one input seed must reproduce the same outputs in every repetition
            hashes = output_hashes(run)
            first_hashes.setdefault(input_seed, hashes)
            attempted += a
            failed += max(f, int(hashes != first_hashes[input_seed]))
            (traced if traced_run else plain).append(run)
            run["cal_wall_s"] = run["wall_s"] * KERNEL_REF_S / run["kernel_s"]
            print(f"{w.name}: {'traced' if traced_run else 'plain '} setup "
                  f"{run['setup_s']:.3f} s, wall {run['wall_s']:.3f} s, kernel "
                  f"{run['kernel_s']:.4f} s", file=sys.stderr)
        last_s = time.monotonic() - started

    if not trace:
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "cal_wall_s": statistics.median(r["cal_wall_s"] for r in plain),
            "cal_steps_per_s": statistics.median(r["steps"] / r["cal_wall_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024 for r in plain),
        }
        units = END_TO_END_UNITS
    else:
        per_run = [layer_metrics(r["stats"]) for r in traced]
        metrics = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
        metrics["raw.wall_s"] = statistics.median(r["wall_s"] for r in plain)
        metrics["raw.kernel_s"] = statistics.median(r["kernel_s"] for r in plain)
        metrics["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["raw.wall_s"]
        for r, m in zip(traced, per_run):
            bad = tracer_self_check(w, r["stats"])
            # every span nests under cli.main, so layer self times add up to the wall
            layer_sum = sum(v for k, v in m.items() if k.startswith("layer."))
            if abs(layer_sum - r["wall_s"]) > 0.01 * r["wall_s"]:
                bad.append(f"layer self times sum to {layer_sum:.4f} s, wall {r['wall_s']:.4f} s")
            for msg in bad:
                print(f"{w.name}: tracer self-check: {msg}", file=sys.stderr)
            attempted += len(w.nonzero) + len(w.zero) + 1
            failed += len(bad)
        a, f, changed = outputs_changed(w, cfg)
        attempted += a
        failed += f
        metrics["sim.outputs_changed"] = changed
        units = PER_LAYER_UNITS
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def measure_all(seed: int, seconds: float) -> dict:
    """Every workload untraced, each followed by its default-seed output comparison."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS.values():
        result = measure(w, seed, seconds, trace=False)
        a, f, changed = outputs_changed(w, load_cfg(w))
        result["attempted"] += a
        result["failed"] += f
        result["metrics"]["sim.outputs_changed"] = {"value": changed, "unit": "count"}
        result["correct"] = result["failed"] == 0
        print(json.dumps({"workload": w.name, **result}))
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            summary["metrics"][f"{w.name}.{k}"] = v
    summary["correct"] = summary["failed"] == 0
    return summary


def update_reference() -> None:
    ref = {}
    for w in WORKLOADS.values():
        run = run_command(w, DEFAULT_SEED)
        _, failed, _ = verify(w, load_cfg(w), run)
        if failed:
            raise BenchError(f"{w.name}: {failed} failed operations at the default seed")
        ref[w.name] = output_hashes(run)
    REFERENCE.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "riskbandits" / "cli.py").is_file():
        print(f"error: no riskbandits sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.update_reference:
            update_reference()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            result = measure_all(args.seed, args.seconds)
        else:
            result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
