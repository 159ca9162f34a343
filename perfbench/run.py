"""Benchmark of tiltedbh, end to end and by layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is one of chaos_map, cut_7x7, quench_8x8_warm, chaos_map_parallel or
``all``.  A run sets up, then repeats whole rounds until ``--seconds`` of
rounds have passed (at least one round).  Each round calls the workload's
entry point once in a fresh child process, and its outputs are checked
against reference computations.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer ones with
``--trace 1``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 2024
SETUP_SAMPLES = 3  # set-ups per run at least, the rounds' own included
CHILD_TIMEOUT_S = 170

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {"spectrum.eigh_calls": "count", "sweep.cache_hits": "count",
                   "sweep.cache_misses": "count", "sweep.bytes_written": "bytes",
                   "dynamics.trace_gflop": "GFlop",
                   "dynamics.trace_gflop_per_s": "GFlop/s",
                   "trace.coverage": "fraction", "trace.spans": "count"}


# -- machine facts -------------------------------------------------------------


def _blas_runtime() -> list:
    """Config string and thread count of each OpenBLAS loaded in this process."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return []
    paths = sorted({line.split()[-1] for line in maps
                    if "openblas" in line.lower() and "/" in line})
    out = []
    for path in paths:
        info = {"library": Path(path).name}
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    info.update(threads=threads(), config=config().decode())
        out.append(info)
    return out


def machine_facts() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)

    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_runtime": _blas_runtime(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# -- rounds --------------------------------------------------------------------


def prepare(name: str, seed: int, rdir: Path, eigendata: Path | None,
            small: bool = False) -> tuple[dict, dict]:
    """Set-up of one round: its config file and directories."""
    import workloads as w

    rdir.mkdir(parents=True)
    out = rdir / "out"
    out.mkdir()
    spec = {"workload": name, "out": str(out), "config": str(rdir / "config.json"),
            "result": str(rdir / "result.json"), "cache": None, "dry": False,
            "trace": False}
    if name == "chaos_map":
        cfg = w.chaos_map_config(seed, small)
    elif name == "chaos_map_parallel":
        cfg = w.chaos_map_parallel_config(seed, small)
    elif name == "cut_7x7":
        spec["cache"] = str(rdir / "cache")
        Path(spec["cache"]).mkdir()
        cfg = w.cut_config(seed, spec["cache"], small)
    else:
        spec["cache"] = str(eigendata)
        cfg = w.quench_config(seed, small)
    Path(spec["config"]).write_text(json.dumps(cfg, indent=2) + "\n")
    return spec, cfg


def launch(spec: dict) -> dict:
    """Run one child process on ``spec``; returns its result plus
    ``ready_s``, the time from spawning it until it could call the entry."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("TILTEDBH_CACHE_DIR", None)
    if spec["workload"] == "quench_8x8_warm":
        env["TILTEDBH_CACHE_DIR"] = spec["cache"]
    spec_path = Path(spec["result"]).with_name("spec.json")
    spec_path.write_text(json.dumps(spec))
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path)],
                          env=env, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{spec['workload']} child exited {proc.returncode}")
    result = json.loads(Path(spec["result"]).read_text())
    result["ready_s"] = result["ready"] - spawned
    return result


def operations(spec: dict, result: dict) -> tuple[int, int]:
    """(attempted, failed): points of a sweep, observables of the quench."""
    import checks

    if spec["workload"] == "quench_8x8_warm":
        failed = sum(1 for obs in ("survival", "entropy", "imbalance")
                     if result["rc"] != 0
                     or not (Path(spec["out"]) / f"{obs}_summary.json").exists())
        return 3, failed
    return checks.point_statuses(spec["out"])


def run_checks(spec: dict, cfg: dict, small: bool = False) -> list:
    import checks

    out, cache = spec["out"], spec["cache"]
    name = spec["workload"]
    try:
        if name == "chaos_map":
            return checks.check_chaos_map(out, cfg, small)
        if name == "chaos_map_parallel":
            return checks.check_chaos_map_parallel(out, cfg)
        if name == "cut_7x7":
            return checks.check_cut(out, cache, cfg)
        return checks.check_quench(out, cache, cfg, small)
    except (OSError, KeyError, ValueError, IndexError) as err:
        return [("checks.completed", False, f"{type(err).__name__}: {err}")]


def bytes_written(spec: dict) -> int:
    dirs = [spec["out"]] + ([spec["cache"]] if spec["workload"] == "cut_7x7" else [])
    return sum(p.stat().st_size for d in dirs for p in Path(d).rglob("*")
               if p.is_file())


def fill_eigendata(seed: int, eigendata: Path, small: bool = False) -> float:
    """Warm-quench set-up: the eigensolve with vectors and its cache write."""
    import tiltedbh
    from tiltedbh.sweep import cached_diagonalize
    import workloads as w

    cfg = w.quench_config(seed, small)
    eigendata.mkdir(parents=True)
    t0 = time.perf_counter()
    cached_diagonalize(tiltedbh.FockBasis(cfg["n_bosons"], cfg["n_sites"]),
                       tiltedbh.ModelParams(u=cfg["u"], d=cfg["d"]),
                       True, cache_dir=str(eigendata))
    return time.perf_counter() - t0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 small: bool = False, work: Path | None = None) -> dict:
    import tracing

    work = work or WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        eigendata, fill_s = None, 0.0
        if name == "quench_8x8_warm":
            eigendata = work / "eigendata"
            fill_s = fill_eigendata(seed, eigendata, small)

        setups = []
        for i in range(SETUP_SAMPLES - 1):
            t0 = time.monotonic()
            spec, _ = prepare(name, seed, work / f"dry{i}", eigendata, small)
            prep = time.monotonic() - t0
            spec["dry"] = True
            setups.append(prep + launch(spec)["ready_s"])
            shutil.rmtree(work / f"dry{i}")

        rounds, traced, checks_run = [], [], []
        attempted = failed = 0
        all_ok = True
        measured = 0.0
        while measured < seconds or not rounds or (trace and not traced):
            rdir = work / f"round{len(rounds) + len(traced)}"
            t0 = time.monotonic()
            spec, cfg = prepare(name, seed, rdir, eigendata, small)
            prep = time.monotonic() - t0
            spec["trace"] = trace and bool(rounds)
            result = launch(spec)
            measured += time.monotonic() - t0
            setups.append(prep + result["ready_s"])
            ops = operations(spec, result)
            found = run_checks(spec, cfg, small)
            checks_run = found
            all_ok = all_ok and bool(found) and all(ok for _, ok, _ in found)
            attempted += ops[0] + len(found)
            failed += ops[1] + sum(1 for _, ok, _ in found if not ok)
            result["bytes"] = bytes_written(spec)
            (traced if spec["trace"] else rounds).append(result)
            shutil.rmtree(rdir)

        if trace:
            layers = []
            for r in traced:
                m = tracing.layer_metrics(r["spans"], r["wall_s"])
                m["sweep.bytes_written"] = r["bytes"]
                m["trace.overhead_s"] = r["wall_s"] - rounds[0]["wall_s"]
                layers.append(m)
            values = tracing.median_metrics(layers)
            metrics = {k: {"value": v, "unit": PER_LAYER_UNITS.get(k, "s")}
                       for k, v in values.items()}
        else:
            values = {
                "wall_s": statistics.median(r["wall_s"] for r in rounds),
                "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
                "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
                "setup_s": fill_s + statistics.median(setups),
            }
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        return {
            "correct": all_ok,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
            "rounds": len(rounds) + len(traced),
            "checks": checks_run,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(name: str, seed: int, res: dict) -> None:
    print(f"workload {name}  seed {seed}  rounds {res['rounds']}  "
          f"attempted {res['attempted']}  failed {res['failed']}  "
          f"correct {str(res['correct']).lower()}")
    for check, ok, detail in res["checks"]:
        print(f"  check {'ok  ' if ok else 'FAIL'} {check}: {detail}")
    for metric, v in res["metrics"].items():
        print(f"  {metric:32s} {v['value']:.6g} {v['unit']}")


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed (2024; confirm claims with 7)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tiltedbh" / "__init__.py").is_file():
        print(f"error: library sources not found at {SRC / 'tiltedbh'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    print("machine " + json.dumps(machine_facts()))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(name, args.seed, results[name])
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items()
                   for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
