"""Cold start: a command loads only what its config needs, and loads it
before the command runs.

``scipy.special`` (``ndtr``, ``ndtri``) is bound lazily in ``dist``: the
first Gaussian arm loads it, so configs of knot-table arms never do.  Each
probe runs in a fresh interpreter, since the test process has long since
imported everything.
"""

import json
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from riskbandits.dist import Gaussian, MixtureDistribution, PiecewiseLinearCDF, PointMass

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"


def _probe(code, *args):
    """Last stdout line of ``code`` run in a fresh interpreter, as JSON."""
    out = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), *map(str, args)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


# after the CLI import and each config's load: is ndtr's extension loaded?
_SPECIAL_AFTER_LOAD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import riskbandits.cli
from riskbandits.config import load_config
loaded = []
for config in sys.argv[2:]:
    load_config(config)
    loaded.append("scipy.special._ufuncs" in sys.modules)
print(json.dumps(loaded))
"""


def test_scipy_special_loads_with_the_first_gaussian_arm():
    configs = ["bad1_counterexample.yaml", "var_flat_rate.yaml", "cvar_gaussians.yaml"]
    loaded = _probe(_SPECIAL_AFTER_LOAD, *(CONFIG_DIR / c for c in configs))
    assert loaded == [False, False, True]


# each command, run after the CLI import and load_config: the modules it added
_COMMANDS_ADD = """
import json, sys
src, config, out = sys.argv[1:]
sys.path.insert(0, src)
from riskbandits import cli
from riskbandits.config import load_config
load_config(config)
added = {}
for argv in (["eval"], ["oracle"], ["simulate", "--reps", "1"], ["check"]):
    before = set(sys.modules)
    cli.main([*argv, "--config", config, "--out", out])
    added[argv[0]] = sorted(set(sys.modules) - before)
print(json.dumps(added))
"""


@pytest.mark.parametrize("config", sorted(CONFIG_DIR.glob("*.yaml")), ids=lambda p: p.stem)
def test_no_command_imports_a_module_for_the_first_time(config, tmp_path):
    added = _probe(_COMMANDS_ADD, config, tmp_path)
    assert added == {"eval": [], "oracle": [], "simulate": [], "check": []}


# unpickles arms in a fresh interpreter, as a spawn worker does, and pickles
# back their answers; reports whether ndtr's extension was loaded before the
# arms were unpickled and after
_UNPICKLED = """
import json, pickle, sys
src, question, answers = sys.argv[1:]
sys.path.insert(0, src)
import riskbandits.dist
before = "scipy.special._ufuncs" in sys.modules
with open(question, "rb") as fh:
    arms, grid, levels = pickle.load(fh)
after = "scipy.special._ufuncs" in sys.modules
with open(answers, "wb") as fh:
    pickle.dump([(a.cdf(grid), [a.quantile(c) for c in levels], a.mean()) for a in arms], fh)
print(json.dumps([before, after]))
"""


def _bits(cdf, quantiles, mean):
    return cdf.tobytes(), [float(q).hex() for q in quantiles], float(mean).hex()


def test_an_unpickled_gaussian_answers_bit_for_bit(tmp_path):
    knots = PiecewiseLinearCDF.from_pairs([(0, 0.0), (1, 0.4), (3, 1.0)])
    arms = [
        Gaussian(0.5, 2.0),
        MixtureDistribution([Gaussian(-1.0, 0.5), knots, PointMass(2.0)], [0.3, 0.5, 0.2]),
    ]
    grid, levels = np.linspace(-4.0, 6.0, 41), [0.01, 0.1, 0.3, 0.5, 0.9, 0.99]
    question, answers = tmp_path / "question.pkl", tmp_path / "answers.pkl"
    question.write_bytes(pickle.dumps((arms, grid, levels)))
    # a worker loads scipy.special as it unpickles its first Gaussian
    assert _probe(_UNPICKLED, question, answers) == [False, True]
    here = [_bits(a.cdf(grid), [a.quantile(c) for c in levels], a.mean()) for a in arms]
    assert [_bits(*got) for got in pickle.loads(answers.read_bytes())] == here


# eight threads make the process's first Gaussians at once, half of them by
# unpickling, and take a CDF value each; prints the errors they met
_THREADS = """
import json, pickle, sys, threading
sys.path.insert(0, sys.argv[1])
from riskbandits.dist import Gaussian
blob = bytes.fromhex(sys.argv[2])
start, errors = threading.Barrier(8), []

def first_gaussian(i):
    start.wait()
    try:
        (pickle.loads(blob) if i % 2 else Gaussian(0.0, 1.0)).cdf(0.5)
    except Exception as exc:
        errors.append(repr(exc))

threads = [threading.Thread(target=first_gaussian, args=(i,)) for i in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join()
print(json.dumps(errors))
"""


def test_threads_making_the_first_gaussians_wait_for_one_load():
    assert _probe(_THREADS, pickle.dumps(Gaussian(0.0, 1.0)).hex()) == []


# imports scipy.special before riskbandits.dist, or after it; prints whether
# sys.modules, the scipy package and dist hold one module object
_ONE_MODULE = """
import json, sys
sys.path.insert(0, sys.argv[1])
if sys.argv[2] == "before":
    import scipy.special
import riskbandits.dist
import scipy.special
from scipy import special
from scipy.special import ndtr
module = sys.modules["scipy.special"]
print(json.dumps([scipy.special is module, special is module,
                  riskbandits.dist._special is module, module.ndtr is ndtr]))
"""


@pytest.mark.parametrize("order", ["before", "after"])
def test_scipy_special_is_one_module_imported_before_or_after_dist(order):
    assert _probe(_ONE_MODULE, order) == [True, True, True, True]
