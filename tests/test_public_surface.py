"""Guards on the names other code reaches: every exported name resolves,
every function the benchmark's tracer wraps exists, and only a process
that runs an eigensolve loads scipy."""

import importlib
import importlib.util
import json
import pkgutil
from pathlib import Path

import pytest

import tiltedbh
from tiltedbh.cli import main

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


# Run in a fresh interpreter: the scipy modules loaded after importing the
# package, after a quench served from a warm cache and after one eigensolve.
_SCIPY_LOADS = """
import json
import math
import sys

import tiltedbh
import tiltedbh.cli


def scipy_modules():
    return sorted(name for name in sys.modules
                  if name == "scipy" or name.startswith("scipy."))


loaded = {{"import": scipy_modules()}}
assert tiltedbh.cli.main(["quench", "--config", {config!r},
                          "--out", {out!r}]) == 0
loaded["warm quench"] = scipy_modules()

from tiltedbh import FockBasis, ModelParams, build, diagonalize
from tiltedbh.diagnostics import entropy_from_distributions

h = build(FockBasis(3, 3), ModelParams(u=0.5, d=0.5))
diagonalize(h)
loaded["solve"] = [name for name in
                   ("scipy.linalg", "scipy.special", "scipy.sparse")
                   if name in sys.modules]
assert entropy_from_distributions([0.5, 0.5, 0.0]) == math.log(2)
assert (h.to_sparse().toarray() == h.to_dense()).all()
print(json.dumps(loaded))
"""


def test_package_import_loads_neither_scipy_special_nor_sparse(tmp_path):
    # scipy.linalg is imported by the eigensolve, scipy.sparse by to_sparse,
    # and the entropies need no scipy module
    config = tmp_path / "quench.json"
    config.write_text(json.dumps({
        "n_bosons": 4, "n_sites": 4, "u": 0.5, "d": 0.5,
        "survival_sample_count": 6, "entropy_sample_count": 4,
        "time_points": 30, "time_points_observables": 20, "seed": 3,
        "cache_dir": str(tmp_path / "cache")}))
    assert main(["quench", "--config", str(config),
                 "--out", str(tmp_path / "cold")]) == 0
    loaded = json.loads(run_in_fresh_python(_SCIPY_LOADS.format(
        config=str(config), out=str(tmp_path / "warm"))).splitlines()[-1])
    assert loaded == {"import": [], "warm quench": [],
                      "solve": ["scipy.linalg"]}
