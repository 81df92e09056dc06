"""Layer tracer for the riskbandits package, installed from outside it.

``Tracer.install()`` wraps every public function and every public method of
each class defined in the layer modules, plus the private or foreign
callables in ``EXTRA``.  It then rebinds every module attribute that refers
to a wrapped function, because ``checks``, ``criteria`` and ``oracle`` bind
``norm_distance`` by ``from ... import`` and ``cli`` does the same with the
``sim`` functions: a wrapper on the defining module alone would miss those
calls.

Spans are aggregated in memory per (parent span, span) pair: calls, total
time, self time (total minus the time covered by child spans), layer self
time (total minus the time covered by descendant spans of other layers,
so calls within the same layer count as the span's own work) and a size sum
(values drawn for ``sample``, sample size for ``evaluate``).  Keeping
every span would not fit in memory at 1e5 steps per episode.
"""

from __future__ import annotations

import importlib
import inspect
from time import perf_counter

LAYERS = ("cli", "config", "sim", "policy", "dist", "criteria", "norms", "oracle", "checks")

# private methods that are layer boundaries of their own
PRIVATE_METHODS = {"dist.MixtureDistribution._quantile"}

# foreign callables bound in a layer module: (module, attribute) -> span name
EXTRA = {("norms", "minimize_scalar"): "norms.refine"}


def _sample_size(args):
    return int(args[2]) if len(args) > 2 else 0


def _evaluate_size(args):
    return getattr(args[1], "t", 0) if len(args) > 1 else 0


SIZERS = {("dist", "sample"): _sample_size, ("criteria", "evaluate"): _evaluate_size}


class Tracer:
    def __init__(self):
        self._stats = {}
        # frames: [time in child spans, time in child spans of other layers, name, layer]
        self._stack = [[0.0, 0.0, None, None]]

    def _wrap(self, fn, name, sizer=None):
        stats = self._stats
        stack = self._stack
        layer = name.split(".", 1)[0]

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, 0.0, name, layer]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                parent[0] += dt
                # other-layer time reaches the parent through same-layer spans
                parent[1] += dt if parent[3] != layer else frame[1]
                row = stats.get((parent[2], name))
                if row is None:
                    row = stats[(parent[2], name)] = [0, 0.0, 0.0, 0.0, 0]
                row[0] += 1
                row[1] += dt
                row[2] += dt - frame[0]
                row[3] += dt - frame[1]
                if sizer is not None:
                    row[4] += sizer(args)

        return traced

    def _wrap_class(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if attr.startswith("_") and name not in PRIVATE_METHODS:
                continue
            sizer = SIZERS.get((layer, attr))
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, attr, type(raw)(self._wrap(raw.__func__, name, sizer)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(raw, name, sizer))

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"riskbandits.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj) and not attr.startswith("_"):
                    wrapped[obj] = self._wrap(obj, f"{layer}.{attr}")
        for (layer, attr), name in EXTRA.items():
            mod = modules[layer]
            setattr(mod, attr, self._wrap(getattr(mod, attr), name))
        package = importlib.import_module("riskbandits")
        for mod in [package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])

    def stats(self) -> list[dict]:
        return [
            {"parent": parent, "name": name, "calls": calls, "total_s": total,
             "self_s": self_s, "layer_self_s": layer_self_s, "size": size}
            for (parent, name), (calls, total, self_s, layer_self_s, size)
            in self._stats.items()
        ]
