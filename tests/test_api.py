"""Every name a module lists in ``__all__`` resolves, and so does every
private or foreign name the benchmark's layer tracer wraps; the closed-loop
sessions and the mixture keep the method names the tracer matches.  Every
function the package defines is called from the package itself.

A stale entry breaks only ``from riskbandits.<module> import *``, which no
other test exercises; a stale tracer target crashes ``perfbench/run.py
--trace 1`` runs.
"""

import ast
import importlib
import json
import importlib.util
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import riskbandits
from riskbandits import dist, policy, sim
from riskbandits.criteria import MeanCriterion, StabilityCertificate
from riskbandits.dist import MixtureDistribution

MODULES = [f"riskbandits.{m.name}" for m in pkgutil.iter_modules(riskbandits.__path__)]


def test_every_module_is_listed():
    assert {"riskbandits.criteria", "riskbandits.dist", "riskbandits.sim"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    names = getattr(module, "__all__", [])
    assert len(set(names)) == len(names), f"{name}.__all__ repeats a name"
    assert [n for n in names if not hasattr(module, n)] == []


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_perfbench_tracer_targets_resolve():
    tracer = _load_tracer()
    for layer, attr in tracer.EXTRA:
        module = importlib.import_module(f"riskbandits.{layer}")
        assert callable(getattr(module, attr, None)), f"riskbandits.{layer}.{attr}"
    for name in tracer.PRIVATE_METHODS:
        layer, cls, attr = name.split(".")
        owner = getattr(importlib.import_module(f"riskbandits.{layer}"), cls)
        # the tracer wraps only what the class itself defines
        assert callable(vars(owner).get(attr)), name


def test_mixture_tracer_boundaries_stay_defined():
    # the tracer's dist.mixture_* spans match these methods by name, so the
    # mixture class must define each itself and not inherit it
    for attr in ("cdf", "cdf_left", "_quantile", "upper_quantile"):
        assert callable(vars(MixtureDistribution).get(attr)), attr


def _dist_classes():
    classes = [
        c for c in vars(dist).values() if isinstance(c, type) and c.__module__ == dist.__name__
    ]
    assert dist.RewardDistribution in classes and dist.MixtureDistribution in classes
    return classes


def test_level_set_has_one_definition():
    # every kind's level set comes from its two generalized inverses, so no
    # kind defines its own
    classes = _dist_classes()
    assert [c.__name__ for c in classes if "_level_set" in vars(c)] == []
    assert [c.__name__ for c in classes if "level_set" in vars(c)] == ["RewardDistribution"]


def test_generalized_inverses_have_one_definition_per_kind():
    # both inverses of a kind come from its one _inverse(c, strict); the
    # mixture answers them itself, under the names the tracer matches
    classes = _dist_classes()
    own = [c.__name__ for c in classes if {"_quantile", "upper_quantile"} & vars(c).keys()]
    assert own == ["RewardDistribution", "MixtureDistribution"]
    assert [c.__name__ for c in classes if "_inverse" in vars(c)] == [
        "RewardDistribution", "Gaussian", "PiecewiseLinearCDF", "EmpiricalDistribution",
    ]


def test_mixture_solver_asks_one_question():
    # a Gaussian part makes a mixture's F strictly increasing, so its solver
    # decides only F >= level, for both inverses
    for solver in (MixtureDistribution._solve, MixtureDistribution._bisect_rows):
        assert "strict" not in inspect.signature(solver).parameters, solver.__name__


def test_closed_loop_tracer_boundaries_stay_defined():
    # the tracer counts decisions at policy.<session>.select and the first
    # pull of each run at policy.PolicyState.update, under their own names in
    # vars() of the class
    assert callable(vars(policy.PolicyState).get("update"))
    sessions = [
        policy.UcbPolicy(StabilityCertificate(1.0, 1.0, 2.0)).start(2, MeanCriterion()),
        policy.Bad1OraclePolicy().start(2, None),
    ]
    for session in sessions:
        cls = type(session)
        assert isinstance(session, policy.PolicyState)
        assert callable(vars(cls).get("select")), cls.__name__
        assert "update" not in vars(cls), cls.__name__
    # the runner plays each decision as one run: a session's first pull still
    # goes through update, and only the two sessions replace the one-pull run
    assert callable(vars(policy.PolicyState).get("play"))
    states = [c for c in vars(policy).values()
              if inspect.isclass(c) and issubclass(c, policy.PolicyState)]
    assert [c.__name__ for c in states if "play" in vars(c)] == [
        "PolicyState", "_UcbSession", "_Bad1OracleSession",
    ]
    # a run gets exactly the rewards it may read; the session finds no read
    # offset and no checkpoint in the call
    for c in states:
        if "play" in vars(c):
            assert list(inspect.signature(vars(c)["play"]).parameters) == [
                "self", "arm", "rewards",
            ], c.__name__
    # the UCB radius is phi_inv's alone, with no constants of its own
    assert not hasattr(sessions[0], "_radius")


class _RoundRobin(policy.PolicyState):
    """A session that defines only ``select``."""

    def select(self):
        return self.t % self.k


class _RoundRobinPolicy(policy.Policy):
    def start(self, k, criterion):
        return _RoundRobin(k)


def test_a_session_with_only_select_plays_one_pull_per_decision():
    arms = [dist.Gaussian(0.0, 1.0), dist.PointMass(2.0), dist.Uniform(0.0, 1.0)]
    episode = sim.run_episode(arms, _RoundRobinPolicy(), MeanCriterion(), 100, [3, 50, 100])
    assert episode.tau.tolist() == [[1, 1, 1], [17, 17, 16], [34, 33, 33]]
    # the pooled sample is the first pulls of each arm's own stream
    _, streams = sim._episode_streams(0, 0, 3)
    pool = np.concatenate([a.sample(r, n) for a, r, n in zip(arms, streams, [34, 33, 33])])
    assert episode.pooled_values[-1] == MeanCriterion().evaluate(dist.EmpiricalDistribution(pool))


def test_cli_import_loads_no_scipy_optimize(tmp_path):
    # cold start: the CLI needs scipy.special only, not the solver stack,
    # neither on import nor in the command that reaches the most code
    root = Path(__file__).resolve().parents[1]
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import riskbandits.cli; "
        "riskbandits.cli.main(['check', '--config', sys.argv[2], '--out', sys.argv[3]]); "
        "print('loaded:', *sorted(m for m in sys.modules "
        "if m.split('.')[:2] in (['scipy', 'optimize'], ['scipy', 'linalg'], ['scipy', 'sparse'])))"
    )
    config = root / "configs" / "cvar_gaussians.yaml"
    out = subprocess.run(
        [sys.executable, "-c", probe, str(root / "src"), str(config), str(tmp_path)],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.splitlines()[-1].split() == ["loaded:"]


def test_no_import_inside_a_function():
    # a module-level import keeps the package's import graph visible, so a
    # cycle between two modules fails at import time instead of hiding in a
    # lazy import that runs only on the call that needs it
    src = Path(__file__).resolve().parents[1] / "src" / "riskbandits"
    lazy = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                lazy += [
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert lazy == []


# read by the tests alone, and kept as the reader of the CSV format
_REACHED_BY_TESTS_ALONE = {"read_report_csv"}


def _referenced_names(tree):
    """Names read, or read as attributes, outside the functions of that name."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and node.id not in inside:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def test_every_function_is_reached_from_the_package():
    # a function that only tests call is product code no command runs; the
    # package's __init__ and every __all__ only list names, so neither counts
    src = Path(__file__).resolve().parents[1] / "src" / "riskbandits"
    defined = {}
    referenced = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, f"{path.name}:{node.lineno}")
        if path.name != "__init__.py":
            referenced |= _referenced_names(tree)
    unreached = {name: where for name, where in defined.items() if name not in referenced}
    assert unreached.keys() == _REACHED_BY_TESTS_ALONE, unreached


# run in a fresh interpreter with the benchmark's tracer installed: a check
# command, or the three batched suites alone; prints the boundary totals
_TRACED_RUN = """
import json, sys
root, mode, config = sys.argv[1:]
sys.path[:0] = [root + "/src", root + "/perfbench"]
import run, tracer
from riskbandits import checks, cli
from riskbandits.criteria import CVaRCriterion
from riskbandits.dist import Gaussian
arms, crit = [Gaussian(0.0, 1.0), Gaussian(0.1, 1.0)], CVaRCriterion(0.1)
certificates = crit.stability_certificate(arms), crit.smoothness_certificate(arms)
t = tracer.Tracer()
t.install()
if mode == "check":
    cli.main(["check", "--config", config, "--seed", "7"])
else:
    checks.convexity_check(crit, arms, 4, 7)
    checks.modulus_check(crit, arms, {f"modulus[{crit.tag}]": certificates[0]}, 6, 7)
    checks.residual_check(crit, arms, certificates[1], 4, 7)
stats = t.stats()
bad = run.tracer_self_check(run.WORKLOADS["check-close-gaussians"], stats)
calls = {b: row[0] for b, row in run.boundary_totals(stats).items()}
print(json.dumps({"bad": bad, "calls": calls}))
"""


def _traced(mode, config=""):
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, str(root), mode, str(config)],
        capture_output=True, text=True, check=True, cwd=root,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_check_keeps_every_traced_boundary_of_the_benchmark(tmp_path):
    # the check-close-gaussians workload's expectations (perfbench/run.py),
    # on a smaller instance of its config
    config = tmp_path / "close.yaml"
    config.write_text(
        "version: 1\nseed: 2024\n"
        "arms:\n  - {kind: gaussian, mean: 0.0, stddev: 1.0}\n"
        "  - {kind: gaussian, mean: 0.1, stddev: 1.0}\n"
        "criterion: {kind: cvar, alpha: 0.1}\n"
        "check: {pairs: 8, dkw_reps: 200, dkw_grid: [[25, 0.2]]}\n",
        encoding="utf-8",
    )
    result = _traced("check", config)
    assert result["bad"] == []
    # the batched suites alone still solve mixture quantiles through the
    # traced CDF and polish sup distances through the traced search
    calls = _traced("suites")["calls"]
    for boundary in ("dist.mixture_quantile", "dist.mixture_cdf_in_quantile", "norms.refine",
                     "checks.modulus", "checks.convexity", "checks.residual"):
        assert calls[boundary] > 0, boundary


# the three simulate workloads in one fresh interpreter with the benchmark's
# tracer installed, each on a copy of its config that keeps every key but
# the horizons and checkpoints, cut to 400 steps; prints each self-check
_TRACED_SIMULATE = """
import json, sys
root, tmp = sys.argv[1:]
sys.path[:0] = [root + "/src", root + "/perfbench"]
import run, tracer, yaml
from riskbandits import cli
t = tracer.Tracer()
t.install()
bad = {}
for name in ("ucb-cvar", "bad1-oracle", "var-flat-vertex"):
    w = run.WORKLOADS[name]
    doc = run.load_cfg(w)
    longest = max(doc["horizons"])
    for key in ("horizons", "checkpoints"):
        if key in doc:
            doc[key] = [v * 400 // longest for v in doc[key]]
    config = f"{tmp}/{name}.yaml"
    with open(config, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh)
    t._stats.clear()
    argv = [w.command, "--config", config, "--out", f"{tmp}/{name}", "--reps", "2"]
    assert cli.main(argv + ["--parallel", "1"]) == 0, name
    bad[name] = run.tracer_self_check(w, t.stats())
print(json.dumps(bad))
"""


def test_simulate_keeps_every_traced_boundary_of_the_benchmark(tmp_path):
    # the simulate workloads' expectations (perfbench/run.py) on their own,
    # shortened configs
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", _TRACED_SIMULATE, str(root), str(tmp_path)],
        capture_output=True, text=True, check=True, cwd=root,
    )
    bad = json.loads(out.stdout.splitlines()[-1])
    assert bad == {"ucb-cvar": [], "bad1-oracle": [], "var-flat-vertex": []}
