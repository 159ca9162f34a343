"""Guards on the names other code reaches: every exported name and every
library name the README cites resolves, every function the benchmark's
tracer wraps exists, only a process that runs an eigensolve loads scipy,
and no run loads the process pool, nor, unless it draws an ensemble,
OpenSSL."""

import importlib
import importlib.util
import inspect
import json
import pkgutil
import re
import warnings
from pathlib import Path

import pytest

import tiltedbh
from tiltedbh.cli import main
from tiltedbh.config import ALLOWED_DIAGNOSTICS

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


def test_readme_layout_names_every_module():
    readme = (TRACING.parent.parent / "README.md").read_text()
    layout = readme.split("## Layout", 1)[1].split("```")[1]
    named = re.findall(r"^  (\w+)\.py ", layout, re.MULTILINE)
    assert len(named) == len(set(named)), "a module is listed twice"
    assert sorted(named) == [name.split(".")[1] for name in MODULES
                             if name != "tiltedbh._version"]


def test_readme_dotted_library_names_resolve():
    # a name such as `tbh.run_cut(config, out_dir)` or `spectrum.diagonalize`
    # whose head is the package, one of its modules or an exported class;
    # output files such as `spectrum.csv` share a module's name
    readme = (TRACING.parent.parent / "README.md").read_text()
    heads = {"tiltedbh": tiltedbh, "tbh": tiltedbh}
    heads.update((name.split(".")[1], importlib.import_module(name))
                 for name in MODULES)
    heads.update((name, getattr(tiltedbh, name)) for name in tiltedbh.__all__
                 if inspect.isclass(getattr(tiltedbh, name)))
    cited = [name for name in re.findall(r"`(\w+(?:\.\w+)+)(?:\([^`]*\))?`",
                                         readme)
             if name.split(".")[0] in heads and
             name.rsplit(".", 1)[1] not in ("csv", "json", "jsonl", "txt")]
    assert cited
    missing = []
    for name in cited:
        head, *chain = name.split(".")
        obj = heads[head]
        for part in chain:
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(name)
    assert not missing, f"README names missing attributes: {missing}"


def test_package_version_comes_from_the_module():
    from setuptools.config.pyprojecttoml import read_configuration

    with warnings.catch_warnings():  # [tool.setuptools] is still "beta"
        warnings.simplefilter("ignore")
        project = read_configuration(
            TRACING.parent.parent / "pyproject.toml")["project"]
    assert project.get("dynamic") == ["version"]
    assert project["version"] == tiltedbh.__version__


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
print(json.dumps(loaded))
"""


def test_package_import_loads_neither_scipy_special_nor_sparse(tmp_path):
    # the eigensolve calls numpy's LAPACK, and the entropies need no scipy
    # module
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
    assert loaded == {"import": [], "warm quench": [], "solve": []}


# Run in a fresh interpreter: which of the process pool and OpenSSL's
# ``_hashlib`` are loaded after importing the package and after each
# command line of ``runs``, labelled.
_POOL_AND_OPENSSL_LOADS = """
import json
import sys

import tiltedbh
import tiltedbh.cli


def loaded():
    return [name for name in
            ("concurrent.futures.process", "multiprocessing", "_hashlib")
            if name in sys.modules]


seen = {{"import": loaded()}}
for label, argv in {runs!r}:
    assert tiltedbh.cli.main(argv) == 0
    seen[label] = loaded()
print(json.dumps(seen))
"""


def test_serial_runs_load_neither_the_process_pool_nor_openssl(tmp_path):
    # a pooled sweep runs its points on threads, a serial one starts no
    # pool, and the config hash is CPython's own SHA-256; only drawing an
    # ensemble loads OpenSSL, through numpy.random's import of secrets and
    # hashlib
    sweep = {"system_sizes": [[4, 4]], "u_values": [0.5], "seed": 3,
             "workers": 1}
    configs = {
        "chaos-map": {**sweep, "d_values": [0.4, 1.0],
                      "diagnostics": ["gap_ratio"]},
        "cut": {**sweep, "d_values": [0.4],
                "diagnostics": list(ALLOWED_DIAGNOSTICS),
                "survival_sample_count": 4, "entropy_sample_count": 3,
                "save_traces": True, "save_eigenstate_profiles": True},
    }
    argv = {}
    for command, raw in configs.items():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(raw))
        argv[command] = [command, "--config", str(path), "--out",
                         str(tmp_path / command)]
    # the pooled map before the cut, which loads OpenSSL
    runs = [("chaos-map", argv["chaos-map"]),
            ("chaos-map --workers 2", argv["chaos-map"][:-1]
             + [str(tmp_path / "pooled"), "--workers", "2"]),
            ("cut", argv["cut"])]
    loaded = json.loads(run_in_fresh_python(_POOL_AND_OPENSSL_LOADS.format(
        runs=runs)).splitlines()[-1])
    assert loaded == {"import": [], "chaos-map": [],
                      "chaos-map --workers 2": [], "cut": ["_hashlib"]}
