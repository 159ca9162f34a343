"""Parameter sweeps: chaos maps over (U, D) grids and one-parameter cuts.

A sweep walks a list of (N, M, U, D) points, computes the requested
diagnostics with shared spectral data per point, and persists one record
per point.  Each point writes its profile and trace files before it is
journaled to ``records.jsonl``, so an interrupted sweep can resume from
the journal; the canonical ``results.csv`` is rewritten sorted at the end,
so identical config + seed + worker count reproduce it byte for byte.
Initial-state ensembles are seeded and regenerated identically inside each
worker instead of being shared.

The point commands of the command line run a one-point config through the
same per-point pipeline, ``run_point``.
"""

from __future__ import annotations

import ctypes
import json
import os
import sys
import zipfile
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from . import dynamics, hamiltonian, initial_states, spectrum
from ._version import __version__
from .basis import FockBasis, dimension
from .config import SweepConfig
from .diagnostics import (
    EigenstateDiagnostics,
    central_window_average,
    eigenstate_diagnostics,
    goe_participation_reference,
    page_value,
    write_eigenstate_csv,
)
from .hamiltonian import ModelParams
from .spectrum import DimensionTooLargeError
from .tables import atomic_open, write_json, write_table

__all__ = [
    "PointData",
    "run_point",
    "record_failures",
    "trace_summary",
    "run_chaos_map",
    "run_cut",
    "exit_code_for",
    "cached_diagonalize",
    "RESULT_COLUMNS",
    "CACHE_DIR_ENV",
]

CACHE_DIR_ENV = "TILTEDBH_CACHE_DIR"

RESULT_COLUMNS = [
    "n_bosons", "n_sites", "dim", "u", "d", "u_over_nj", "d_over_j",
    "status", "error",
    "mean_r", "chaos_distance", "n_gaps",
    "pr_central_over_goe", "entropy_central_over_page", "imbalance_central",
    "ipr", "sp_min", "sp_min_raw", "hole_depth", "hole_depth_over_goe",
    "survival_relaxation",
    "entropy_relaxation", "entropy_relaxation_over_page",
    "imbalance_relaxation",
]


# -- eigendata cache --------------------------------------------------------


def _point_stem(n, m, u, d) -> str:
    """The name part a point's eigendata cache entries and per-point files
    share; 12 significant digits tell apart points that 6 would merge."""
    return f"{n}x{m}_u{u:.12g}_d{d:.12g}"


def _entry_key(basis, params, with_vectors: bool) -> np.ndarray:
    """What a cache entry holds: the point, the package version, the eigh
    driver and whether eigenvectors are present."""
    return np.array([str(basis.n_bosons), str(basis.n_sites),
                     *(repr(float(x)) for x in (params.u, params.d, params.j)),
                     __version__, spectrum.EIGH_DRIVER[with_vectors],
                     str(with_vectors)])


def _read_entry(path: Path, key: np.ndarray, dim: int, with_vectors: bool):
    """(eigenvalues, eigenvectors or None) from a cache entry, or None when
    the entry is missing, unreadable, not of this dimension or holds
    another key."""
    try:
        with np.load(path) as data:
            if not np.array_equal(data["key"], key):
                return None
            values = data["eigenvalues"]
            vectors = data["eigenvectors"] if with_vectors else None
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        return None
    if values.shape != (dim,) or \
            (with_vectors and vectors.shape != (dim, dim)):
        return None
    return values, vectors


# Cache directories this process failed to write an entry to.  Pool workers
# share no state, so each of them reports an unusable directory once.
_UNWRITABLE_CACHE_DIRS: set[Path] = set()


def cached_diagonalize(basis, params, with_vectors, *, cache_dir=None):
    """Diagonalize, reusing an on-disk eigendata store when one is configured.

    Cache entries are keyed by (N, M, U, D) so repeated diagnostics at the
    same point skip the eigensolve.  A value-only request is also served
    from an entry that holds eigenvectors.  Each entry stores its
    ``_entry_key``; an entry that cannot be read or whose key differs
    counts as a miss and is rewritten.  Entries are written to a temporary
    file and renamed into place, so an interrupted write leaves none.  A
    write that fails with an ``OSError`` leaves none either: it is reported
    on stderr once, the point goes on uncached, and the process writes no
    further entries to that directory (it still reads from it).
    """
    cdir = cache_dir or os.environ.get(CACHE_DIR_ENV)
    cdir = Path(cdir) if cdir else None
    if cdir is not None:
        stem = "eig_" + _point_stem(basis.n_bosons, basis.n_sites,
                                    params.u, params.d)
        for vectors in (True,) if with_vectors else (False, True):
            found = _read_entry(
                cdir / f"{stem}_{'vec' if vectors else 'val'}.npz",
                _entry_key(basis, params, vectors), basis.dim, with_vectors)
            if found is not None:
                return spectrum.SpectralData(basis, params, *found)
    spec = spectrum.diagonalize(hamiltonian.build(basis, params), with_vectors)
    if cdir is not None and cdir not in _UNWRITABLE_CACHE_DIRS:
        payload = {"key": _entry_key(basis, params, with_vectors),
                   "eigenvalues": spec.eigenvalues}
        if with_vectors:
            payload["eigenvectors"] = spec.eigenvectors
        path = cdir / f"{stem}_{'vec' if with_vectors else 'val'}.npz"
        try:
            cdir.mkdir(parents=True, exist_ok=True)
            with atomic_open(path, "wb") as fh:  # savez adds no suffix
                np.savez(fh, **payload)
        except OSError as err:  # a full or unusable cache fails no point
            _UNWRITABLE_CACHE_DIRS.add(cdir)
            print(f"warning: eigendata cache entry {path} not written "
                  f"({type(err).__name__}: {err}); going on uncached, and "
                  f"writing no further entries to {cdir}", file=sys.stderr)
    return spec


# -- per-point computation ---------------------------------------------------


def _ensemble(basis: FockBasis, config: SweepConfig, diag: str):
    """The seeded initial states of the trace ``diag``; identical in every
    worker for a fixed seed."""
    if diag == "imbalance_dynamics":
        return initial_states.maximally_imbalanced_states(
            basis, occupation_cap=config.occupation_cap,
            max_states=config.imbalance_max_states, seed=config.seed)
    return initial_states.sample_energy_window(
        basis, sample_count=(config.survival_sample_count if diag == "survival"
                             else config.entropy_sample_count),
        reference=ModelParams(u=config.reference_u, d=config.reference_d),
        window_halfwidth=config.window_halfwidth,
        occupation_cap=config.occupation_cap, seed=config.seed)


@dataclass
class PointData:
    """Everything computed at one point: its ``results.csv`` record and the
    spectral data, statistics, profiles, ensembles and traces behind it."""

    record: dict
    spectral: spectrum.SpectralData | None = None
    gap_stats: spectrum.GapRatioStats | None = None
    profiles: EigenstateDiagnostics | None = None
    ensembles: dict = field(default_factory=dict)  # diagnostic -> StateEnsemble
    traces: dict = field(default_factory=dict)     # diagnostic -> QuenchTrace
    hole: dynamics.SurvivalAnalysis | None = None
    # (AnalyticCurveInputs, curve on the survival grid), set by ``quench``
    analytic: tuple | None = None


def _point_record(n: int, m: int, u: float, d: float, status: str = "ok",
                  error: str = "") -> dict:
    """The ``results.csv`` record of a point before any diagnostic."""
    return {
        "n_bosons": n, "n_sites": m, "u": u, "d": d,
        "d_over_j": d, "u_over_nj": u / n,
        "status": status, "error": error,
    }


@contextmanager
def record_failures(record: dict):
    """Turn an exception inside the block into the point's ``status`` and
    ``error``, keeping the fields set before it."""
    try:
        yield
    except DimensionTooLargeError as err:
        record["status"] = "skipped_dimension"
        record["error"] = str(err)
    except Exception as err:  # per-point failures never abort the sweep
        record["status"] = "error"
        record["error"] = f"{type(err).__name__}: {err}"


def run_point(config: SweepConfig, n: int, m: int, u: float,
              d: float) -> PointData:
    """The config's diagnostics at (N, M, U, D).

    A failure does not raise: it sets the record's ``status`` and
    ``error`` and keeps the fields computed before it.
    """
    diags = set(config.diagnostics)
    record = _point_record(n, m, u, d)
    point = PointData(record)
    with record_failures(record):
        record["dim"] = dimension(n, m)
        basis = FockBasis(n, m)
        spec = point.spectral = cached_diagonalize(
            basis, ModelParams(u=u, d=d), bool(diags - {"gap_ratio"}),
            cache_dir=config.cache_dir)
        d_goe = goe_participation_reference(basis.dim)

        if "gap_ratio" in diags:
            stats = point.gap_stats = spectrum.mean_gap_ratio(
                spec.eigenvalues, config.edge_discard)
            record["mean_r"] = stats.mean_r
            record["chaos_distance"] = spectrum.chaos_distance(stats)
            record["n_gaps"] = stats.n_gaps_used

        if diags & {"pr", "entropy", "imbalance"}:
            prof = point.profiles = eigenstate_diagnostics(spec)
            if "pr" in diags:
                record["pr_central_over_goe"] = central_window_average(
                    prof.participation, config.central_window) / d_goe
            if "entropy" in diags:
                record["entropy_central_over_page"] = central_window_average(
                    prof.entropy_mean, config.central_window) / prof.page
            if "imbalance" in diags:
                record["imbalance_central"] = central_window_average(
                    prof.imbalance, config.central_window)

        # every ensemble before any trace: an empty one fails the point first
        point.ensembles = {
            diag: _ensemble(basis, config, diag)
            for diag in ("survival", "entropy_dynamics", "imbalance_dynamics")
            if diag in diags}

        if "survival" in diags:
            grid = dynamics.log_time_grid(
                config.time_min, config.time_max, config.time_points)
            coeff = dynamics.ensemble_amplitudes(
                point.ensembles["survival"].indices, spec)
            trace = point.traces["survival"] = dynamics.survival_trace(
                coeff, spec.eigenvalues, grid, config.smoothing_window)
            ipr = dynamics.ensemble_ipr(coeff)
            del coeff  # freed before the traces allocate their buffers
            hole = point.hole = dynamics.correlation_hole_depth(
                trace, ipr, tuple(config.hole_window))
            record["ipr"] = hole.ipr
            record["sp_min"] = hole.sp_min
            record["sp_min_raw"] = hole.sp_min_raw
            record["hole_depth"] = hole.hole_depth
            record["hole_depth_over_goe"] = hole.hole_depth / d_goe
            record["survival_relaxation"] = trace.relaxation_value

        observed = [(diag, name) for diag, name in
                    (("entropy_dynamics", "entropy"),
                     ("imbalance_dynamics", "imbalance")) if diag in diags]
        if observed:
            obs_grid = dynamics.log_time_grid(
                config.time_min, config.time_max_observables or config.time_max,
                config.time_points_observables)
        for diag, name in observed:
            trace = point.traces[diag] = dynamics.observable_trace(
                point.ensembles[diag].indices, spec, obs_grid, name,
                config.smoothing_window)
            record[f"{name}_relaxation"] = trace.relaxation_value
        if "entropy_dynamics" in diags:
            record["entropy_relaxation_over_page"] = \
                record["entropy_relaxation"] / page_value(n, m)
    return point


def trace_summary(point: PointData, diag: str) -> dict:
    """Relaxation value, ensemble protocol and, for the survival
    probability, the correlation hole of the point's ``diag`` trace."""
    trace, ensemble = point.traces[diag], point.ensembles[diag]
    summary = {
        "observable": trace.observable,
        "relaxation_value": trace.relaxation_value,
        "smoothing_window": trace.smoothing_window,
        "n_states": len(ensemble),
        "protocol": ensemble.metadata,
    }
    if diag == "survival":
        hole = point.hole
        summary.update({
            "ipr": hole.ipr,
            "sp_min": hole.sp_min,
            "sp_min_raw": hole.sp_min_raw,
            "hole_depth": hole.hole_depth,
            "hole_window": list(hole.hole_window),
        })
    return summary


def _write_point_files(config: SweepConfig, out_dir: Path,
                       point: PointData) -> dict:
    """Write the point's eigenstate profile and trace files into
    ``out_dir``, if the config saves them; return its record."""
    rec = point.record
    if rec["status"] != "ok":
        return rec
    stem = _point_stem(rec["n_bosons"], rec["n_sites"], rec["u"], rec["d"])
    metadata = config.metadata()
    if config.save_eigenstate_profiles and point.profiles is not None:
        (out_dir / "eigenstates").mkdir(exist_ok=True)
        write_eigenstate_csv(out_dir / "eigenstates" / f"{stem}.csv",
                             point.spectral.eigenvalues, point.profiles,
                             metadata)
    if config.save_traces and point.traces:
        (out_dir / "traces").mkdir(exist_ok=True)
        for diag, trace in point.traces.items():
            name = f"{trace.observable}_{stem}"
            dynamics.write_trace_csv(out_dir / "traces" / f"{name}.csv", trace,
                                     metadata)
            write_json(out_dir / "traces" / f"{name}.json",
                       trace_summary(point, diag), metadata)
    return rec


def _malloc_trim():
    """glibc's ``malloc_trim``, or None where the C library has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError, TypeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


_MALLOC_TRIM = _malloc_trim()


def _release_freed_heap() -> None:
    """Return the process's freed heap memory to the OS, where the C
    library can; elsewhere do nothing."""
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def _compute_point(config: SweepConfig, out_dir: Path, n: int, m: int,
                   u: float, d: float) -> dict:
    """The (N, M, U, D) record, returned once the point's eigenstate
    profile and trace files, if the config saves them, are in ``out_dir``."""
    try:
        return _write_point_files(config, out_dir,
                                  run_point(config, n, m, u, d))
    finally:
        # the point's arrays are freed by now; glibc keeps their brk heap,
        # where its mmap threshold, raised by the first freed work buffer of
        # up to 32 MiB, puts later ones, so the next point would start on it
        _release_freed_heap()


# -- journal / results persistence -------------------------------------------


def _point_key(n, m, u, d) -> str:
    return f"{n}_{m}_{u:.12g}_{d:.12g}"


def _trim_journal(path: Path) -> None:
    """Cut a partial last line left by an interrupted write, so the next
    record starts on a line of its own."""
    if path.exists():
        data = path.read_bytes()
        end = data.rfind(b"\n") + 1
        if end < len(data):
            with open(path, "r+b") as fh:
                fh.truncate(end)


def _load_journal(out_dir: Path, config_hash: str) -> dict:
    path = out_dir / "records.jsonl"
    done = {}
    if not path.exists():
        return done
    for line in path.read_text().splitlines():
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue  # a line damaged by an interrupted write
        if entry.get("config_hash") == config_hash:
            done[entry["key"]] = entry["record"]
    return done


def _append_journal(out_dir: Path, key: str, record: dict,
                    config_hash: str) -> None:
    entry = {"key": key, "config_hash": config_hash, "record": record}
    with open(out_dir / "records.jsonl", "a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
        fh.flush()
        os.fsync(fh.fileno())


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@contextmanager
def _worker_pool(workers: int, calls: list):
    """Run ``(fn, *args)`` calls on a pool of spawned processes; yields the
    futures in call order.

    Each worker gets ``cpu_count // workers`` BLAS threads (at least one),
    so the pools of all workers together do not oversubscribe the cores.
    Each BLAS reads its thread count from the environment when it is
    loaded: numpy's when numpy is imported, scipy's at the first eigensolve,
    and a spawned worker does both after it starts; ``submit``
    starts the workers, so the variables are set only while submitting and
    the parent's environment is restored afterwards.
    """
    threads = str(max(1, (os.cpu_count() or 1) // workers))
    saved = {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}
    with ProcessPoolExecutor(workers, mp_context=get_context("spawn")) as pool:
        try:
            os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, threads))
            futures = [pool.submit(*call) for call in calls]
        finally:
            for var, value in saved.items():
                if value is None:
                    os.environ.pop(var, None)
                else:
                    os.environ[var] = value
        yield futures


def _run_points(config: SweepConfig, out_dir, resume: bool) -> list:
    """Run the config's diagnostics at every (N, M, U, D) of its grid and
    write ``results.csv``; return the records."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    metadata = config.metadata()
    chash = metadata["config_hash"]
    _trim_journal(out / "records.jsonl")
    done = _load_journal(out, chash) if resume else {}
    pending = [(n, m, u, d)
               for (n, m) in config.system_sizes
               for u in config.u_values
               for d in config.d_values
               if _point_key(n, m, u, d) not in done]
    records = list(done.values())

    def finish(point, record):
        # a point's files are written before its record: a journaled
        # point is complete on disk
        _append_journal(out, _point_key(*point), record, chash)
        records.append(record)

    if config.workers == 1 or len(pending) <= 1:
        for point in pending:
            finish(point, _compute_point(config, out, *point))
    else:
        calls = [(_compute_point, config, out, *point) for point in pending]
        with _worker_pool(config.workers, calls) as submitted:
            futures = dict(zip(submitted, pending))
            for fut in as_completed(futures):
                try:
                    result = fut.result()
                except BrokenProcessPool as err:
                    # a dead worker (killed, out of memory) fails every point
                    # still without a result; unjournaled, --resume redoes it
                    records.append(_point_record(
                        *futures[fut], "error",
                        f"{type(err).__name__}: a sweep worker process "
                        f"died: {err}"))
                else:
                    finish(futures[fut], result)

    records.sort(key=lambda r: (r["n_bosons"], r["n_sites"], r["u"], r["d"]))
    write_table(out / "results.csv", RESULT_COLUMNS,
                ([rec.get(col) for col in RESULT_COLUMNS] for rec in records),
                metadata)
    return records


def run_chaos_map(config: SweepConfig, out_dir, resume: bool = False) -> list:
    """The config's diagnostics over the full (U, D) grid; the command line
    accepts only ``gap_ratio`` there, which needs no eigenvectors."""
    return _run_points(config, out_dir, resume)


def run_cut(config: SweepConfig, out_dir, resume: bool = False) -> list:
    """All requested diagnostics along a one-parameter cut, per system size.

    The cut runs over the cartesian product of ``u_values`` and
    ``d_values``; a cut in the usual sense fixes one list to length 1.
    """
    return _run_points(config, out_dir, resume)


def exit_code_for(records: list) -> int:
    """0 all ok; 2 if any point failed; 3 if the only failures hit limits."""
    statuses = {rec.get("status", "ok") for rec in records}
    if "error" in statuses:
        return 2
    if "skipped_dimension" in statuses:
        return 3
    return 0
