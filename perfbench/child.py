"""Run one riskbandits CLI command in a fresh interpreter and report timings.

Usage: python3 child.py RESULT_JSON TRACE CONFIG -- CLI_ARGS...

Imports the package from the ``src/`` directory next to this benchmark,
loads CONFIG, stamps the system-wide monotonic clock as ``ready`` (the
parent subtracts its spawn stamp to get the set-up time), optionally
installs the layer tracer (TRACE = 1), runs ``riskbandits.cli.main`` on
CLI_ARGS and writes a JSON result to RESULT_JSON.  Right before and right
after the command it times ``reference_kernel``, so that the parent can
scale the command's wall time to a fixed host speed.  The command's own
stdout passes through to the parent.
"""

import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"


def reference_kernel() -> float:
    """Seconds a fixed piece of work takes at the host's current speed.

    The host's speed drifts by tens of percent over minutes (neighbours
    share it), and the drift slows this kernel and the command alike.  It
    runs no riskbandits code, so a change to the package cannot move it.
    Half of it is an interpreted loop of scalar numpy calls, like the bandit
    step loop; half is vectorised numpy work, like bulk draws and sorts.
    """
    rng = np.random.default_rng(0)
    grid = np.sort(rng.random(64))
    values = rng.random(100_000)
    acc = []
    t0 = time.perf_counter()
    for _ in range(15_000):
        u = rng.random()
        acc.append(int(np.searchsorted(grid, u)) * u)
        if len(acc) > 100:
            acc.sort()
            acc.clear()
    for _ in range(50):
        np.sort(values)
        np.exp(values).sum()
    return time.perf_counter() - t0


def main() -> int:
    result_path, trace, config, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        print("usage: child.py RESULT_JSON TRACE CONFIG -- CLI_ARGS...", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import riskbandits.cli
    from riskbandits.config import load_config

    if not Path(riskbandits.__file__).resolve().is_relative_to(SRC):
        print(f"riskbandits imported from {riskbandits.__file__}, not {SRC}", file=sys.stderr)
        return 2
    load_config(config)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    kernel_before = reference_kernel()
    t0 = time.perf_counter()
    rc = riskbandits.cli.main(cli_args)
    wall_s = time.perf_counter() - t0
    kernel_s = (kernel_before + reference_kernel()) / 2
    sys.stdout.flush()
    result = {
        "ready": ready,
        "wall_s": wall_s,
        "kernel_s": kernel_s,
        "rc": rc,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "stats": tracer.stats() if tracer else None,
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
