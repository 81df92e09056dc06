"""Every name a module lists in ``__all__`` resolves.

A stale entry breaks only ``from riskbandits.<module> import *``, which no
other test exercises.
"""

import importlib
import pkgutil

import pytest

import riskbandits

MODULES = [f"riskbandits.{m.name}" for m in pkgutil.iter_modules(riskbandits.__path__)]


def test_every_module_is_listed():
    assert {"riskbandits.criteria", "riskbandits.dist", "riskbandits.sim"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    names = getattr(module, "__all__", [])
    assert len(set(names)) == len(names), f"{name}.__all__ repeats a name"
    assert [n for n in names if not hasattr(module, n)] == []
