"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root: python3 -m pytest -q perfbench/test_smoke.py
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

TINY_CHECK = """\
version: 1
seed: 2024
arms:
  - {kind: gaussian, mean: 0.0, stddev: 1.0}
  - {kind: gaussian, mean: 0.1, stddev: 1.0}
criterion: {kind: cvar, alpha: 0.1}
check: {pairs: 8, dkw_reps: 2000}
"""


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Every workload at 2 reps (the check at 8 pairs), each command run once."""
    config = tmp_path / "tiny_check.yaml"
    config.write_text(TINY_CHECK, encoding="utf-8")
    workloads = {
        name: dataclasses.replace(w, reps=2) if w.command == "simulate"
        else dataclasses.replace(w, config=str(config))  # ROOT / absolute path = that path
        for name, w in run.WORKLOADS.items()
    }
    monkeypatch.setattr(run, "WORKLOADS", workloads)
    monkeypatch.setattr(run, "INPUTS", 1)
    monkeypatch.setattr(run, "PROBE_REPS", 1)
    return workloads


def _declared(kind):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench[kind]}


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_every_metric_printed_with_its_unit(tiny, name):
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result = run.measure(tiny[name], seed=3, seconds=0, trace=trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == _declared(kind)


def test_gate_trips_on_missing_row_flagged_row_and_failed_check(tiny):
    w = tiny["var-flat-vertex"]
    cfg = run.load_cfg(w)
    result = run.run_command(w, seed=3)
    attempted, failed, _ = run.verify(w, cfg, result)
    assert attempted == w.reps and failed == 0

    name, text = next(iter(result["files"].items()))
    lines = text.splitlines()
    result["files"][name] = "\n".join(lines[:-1]) + "\n"
    assert run.verify(w, cfg, result)[1] == w.reps

    flagged = lines[-1].rsplit(",", 1)[0] + ",1"
    result["files"][name] = "\n".join(lines[:-1] + [flagged]) + "\n"
    assert run.verify(w, cfg, result)[1] == 1

    c = tiny["check-close-gaussians"]
    check = {"rc": 0, "files": {"check.csv": ""},
             "stdout": "\n".join(["[PASS] x: ok"] * 11 + ["[FAIL] y: bad"])}
    assert run.verify(c, run.load_cfg(c), check)[:2] == (12, 1)
    check["stdout"] = "[PASS] x: ok\n"
    assert run.verify(c, run.load_cfg(c), check)[:2] == (12, 11)
