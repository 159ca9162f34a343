"""Guards on the names other code reaches: every exported name resolves,
every function the benchmark's tracer wraps exists, and importing the
package and its CLI loads no scipy module that a chaos map does not use."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import tiltedbh

from conftest import run_in_fresh_python

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

MODULES = sorted(f"tiltedbh.{info.name}"
                 for info in pkgutil.iter_modules(tiltedbh.__path__))


@pytest.mark.parametrize("module_name", ["tiltedbh", *MODULES])
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes"
    assert len(set(exported)) == len(exported), f"{module_name}: duplicates"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for module, attr, *_ in tracing.TARGETS]


def test_every_traced_function_exists():
    targets = _tracer_targets()
    assert targets
    missing = []
    for module_name, attr in targets:
        obj = importlib.import_module(module_name)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module_name}.{attr}")
    assert not missing, f"traced functions missing: {missing}"


_IMPORTS = """
import math
import sys

import tiltedbh
import tiltedbh.cli

print(*[name for name in ("scipy.special", "scipy.sparse")
        if name in sys.modules])
from tiltedbh import FockBasis, ModelParams, build
from tiltedbh.diagnostics import entropy_from_distributions

assert entropy_from_distributions([0.5, 0.5, 0.0]) == math.log(2)
h = build(FockBasis(3, 3), ModelParams(u=0.5, d=0.5))
assert (h.to_sparse().toarray() == h.to_dense()).all()
"""


def test_package_import_loads_neither_scipy_special_nor_sparse():
    # each is imported where it is used: by the entropies and to_sparse
    assert run_in_fresh_python(_IMPORTS).split() == []
