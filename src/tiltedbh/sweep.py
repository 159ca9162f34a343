"""Parameter sweeps: chaos maps over (U, D) grids and one-parameter cuts.

A sweep walks a list of (N, M, U, D) points, computes the requested
diagnostics with shared spectral data per point, and persists one record
per point.  Completed points are journaled to ``records.jsonl`` so an
interrupted sweep can resume; the canonical ``results.csv`` is rewritten
sorted at the end, so identical config + seed + worker count reproduce it
byte for byte.  Initial-state ensembles are seeded and regenerated
identically inside each worker instead of being shared.

The point commands of the command line run a one-point config through the
same per-point pipeline, ``run_point``.
"""

from __future__ import annotations

import json
import os
import zipfile
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from . import dynamics, hamiltonian, initial_states, spectrum
from .basis import FockBasis, dimension
from .config import ConfigError, SweepConfig, validate_and_echo_config
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
from .tables import write_json, write_table

__all__ = [
    "ConfigError",
    "SweepConfig",
    "validate_and_echo_config",
    "PointData",
    "run_point",
    "trace_summary",
    "run_chaos_map",
    "run_cut",
    "exit_code_for",
    "cached_diagonalize",
    "resolve_cache_dir",
    "RESULT_COLUMNS",
    "CACHE_DIR_ENV",
]

CACHE_DIR_ENV = "TILTEDBH_CACHE_DIR"

_STATIC_VECTOR_DIAGS = {"pr", "entropy", "imbalance"}
_DYNAMIC_DIAGS = {"survival", "entropy_dynamics", "imbalance_dynamics"}

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


def resolve_cache_dir(explicit=None) -> Path | None:
    cdir = explicit or os.environ.get(CACHE_DIR_ENV)
    return Path(cdir) if cdir else None


def _read_entry(path: Path, dim: int, with_vectors: bool):
    """(eigenvalues, eigenvectors or None) from a cache entry, or None when
    the entry is missing, unreadable or not of this dimension."""
    try:
        with np.load(path) as data:
            values = data["eigenvalues"]
            vectors = data["eigenvectors"] if with_vectors else None
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        return None
    if values.shape != (dim,) or \
            (with_vectors and vectors.shape != (dim, dim)):
        return None
    return values, vectors


def cached_diagonalize(basis, params, with_vectors, *, cache_dir=None,
                       value_limit=spectrum.DENSE_EIGENVALUE_LIMIT,
                       vector_limit=spectrum.DENSE_EIGENVECTOR_LIMIT):
    """Diagonalize, reusing an on-disk eigendata store when one is configured.

    Cache entries are keyed by (N, M, U, D) so repeated diagnostics at the
    same point skip the eigensolve.  A value-only request is also served
    from an entry that holds eigenvectors.  An entry that cannot be read
    counts as a miss and is rewritten; entries are written to a temporary
    file and renamed into place, so an interrupted write leaves none.
    """
    cdir = resolve_cache_dir(cache_dir)
    if cdir is not None:
        stem = (f"eig_{basis.n_bosons}x{basis.n_sites}"
                f"_u{params.u:.12g}_d{params.d:.12g}")
        path = cdir / f"{stem}_{'vec' if with_vectors else 'val'}.npz"
        for entry in (path, cdir / f"{stem}_vec.npz"):
            found = _read_entry(entry, basis.dim, with_vectors)
            if found is not None:
                return spectrum.SpectralData(basis, params, *found)
    h = hamiltonian.build(basis, params)
    spec = spectrum.diagonalize(
        h, with_vectors, value_limit=value_limit, vector_limit=vector_limit)
    if cdir is not None:
        cdir.mkdir(parents=True, exist_ok=True)
        payload = {"eigenvalues": spec.eigenvalues}
        if with_vectors:
            payload["eigenvectors"] = spec.eigenvectors
        tmp = cdir / f".{path.name}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:  # a handle: savez adds no suffix
                np.savez(fh, **payload)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    return spec


# -- per-point computation ---------------------------------------------------


def _build_ensembles(basis: FockBasis, config: SweepConfig, diags: set):
    """Seeded initial-state sets; identical in every worker for a fixed seed."""
    out = {}
    reference = ModelParams(u=config.reference_u, d=config.reference_d)
    for diag, count in (("survival", config.survival_sample_count),
                        ("entropy_dynamics", config.entropy_sample_count)):
        if diag in diags:
            out[diag] = initial_states.sample_energy_window(
                basis,
                initial_states.EnergyWindowProtocol(
                    sample_count=count,
                    reference_params=reference,
                    window_halfwidth=config.window_halfwidth,
                    occupation_cap=config.occupation_cap,
                    rng_seed=config.seed,
                ),
            )
    if "imbalance_dynamics" in diags:
        out["imbalance_dynamics"] = initial_states.maximally_imbalanced_states(
            basis,
            initial_states.ImbalanceProtocol(
                occupation_cap=config.occupation_cap,
                max_states=config.imbalance_max_states,
                rng_seed=config.seed,
            ),
        )
    return out


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


def _point_record(n: int, m: int, u: float, d: float, status: str = "ok",
                  error: str = "") -> dict:
    """The ``results.csv`` record of a point before any diagnostic."""
    return {
        "n_bosons": n, "n_sites": m, "u": u, "d": d,
        "d_over_j": d, "u_over_nj": u / n,
        "status": status, "error": error,
    }


def run_point(config: SweepConfig, n: int, m: int, u: float, d: float,
              diags) -> PointData:
    """The diagnostics ``diags`` at (N, M, U, D).

    A failure does not raise: it sets the record's ``status`` and
    ``error`` and keeps the fields computed before it.
    """
    diags = set(diags)
    record = _point_record(n, m, u, d)
    point = PointData(record)
    try:
        record["dim"] = dimension(n, m)
        basis = FockBasis(n, m)
        with_vectors = bool(diags & (_STATIC_VECTOR_DIAGS | _DYNAMIC_DIAGS))
        spec = point.spectral = cached_diagonalize(
            basis, ModelParams(u=u, d=d), with_vectors,
            cache_dir=config.cache_dir,
            value_limit=config.eigenvalue_limit,
            vector_limit=config.eigenvector_limit,
        )
        d_goe = goe_participation_reference(basis.dim)

        if "gap_ratio" in diags:
            stats = point.gap_stats = spectrum.mean_gap_ratio(
                spec.eigenvalues, config.edge_discard)
            record["mean_r"] = stats.mean_r
            record["chaos_distance"] = spectrum.chaos_distance(
                stats, config.goe_reference)
            record["n_gaps"] = stats.n_gaps_used

        if diags & _STATIC_VECTOR_DIAGS:
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

        if diags & _DYNAMIC_DIAGS:
            ensembles = point.ensembles = _build_ensembles(basis, config, diags)
            traces = point.traces

            if "survival" in diags:
                grid = dynamics.log_time_grid(
                    config.time_min, config.time_max, config.time_points)
                coeff = dynamics.ensemble_amplitudes(
                    ensembles["survival"].indices, spec)
                trace = traces["survival"] = dynamics.survival_trace(
                    coeff, spec.eigenvalues, grid, config.smoothing_window)
                ipr = dynamics.ensemble_ipr(coeff)
                hole = point.hole = dynamics.correlation_hole_depth(
                    trace, ipr, tuple(config.hole_window))
                record["ipr"] = hole.ipr
                record["sp_min"] = hole.sp_min
                record["sp_min_raw"] = hole.sp_min_raw
                record["hole_depth"] = hole.hole_depth
                record["hole_depth_over_goe"] = hole.hole_depth / d_goe
                record["survival_relaxation"] = trace.relaxation_value

            obs_t_max = config.time_max_observables or config.time_max
            obs_grid = dynamics.log_time_grid(
                config.time_min, obs_t_max, config.time_points_observables)

            if "entropy_dynamics" in diags:
                trace = traces["entropy_dynamics"] = dynamics.observable_trace(
                    ensembles["entropy_dynamics"].indices, spec, obs_grid,
                    "entropy", config.smoothing_window)
                record["entropy_relaxation"] = trace.relaxation_value
                record["entropy_relaxation_over_page"] = \
                    trace.relaxation_value / page_value(n, m)

            if "imbalance_dynamics" in diags:
                trace = traces["imbalance_dynamics"] = dynamics.observable_trace(
                    ensembles["imbalance_dynamics"].indices, spec, obs_grid,
                    "imbalance", config.smoothing_window)
                record["imbalance_relaxation"] = trace.relaxation_value
    except DimensionTooLargeError as err:
        record["status"] = "skipped_dimension"
        record["error"] = str(err)
    except Exception as err:  # per-point failures never abort the sweep
        record["status"] = "error"
        record["error"] = f"{type(err).__name__}: {err}"
    return point


def trace_summary(trace, ensemble, hole=None) -> dict:
    """Relaxation value, ensemble protocol and, for the survival
    probability, the correlation-hole analysis of one trace."""
    summary = {
        "observable": trace.observable,
        "relaxation_value": trace.relaxation_value,
        "smoothing_window": trace.smoothing_window,
        "n_states": len(ensemble),
        "protocol": ensemble.metadata,
    }
    if hole is not None:
        summary.update({
            "ipr": hole.ipr,
            "sp_min": hole.sp_min,
            "sp_min_raw": hole.sp_min_raw,
            "hole_depth": hole.hole_depth,
            "hole_window": list(hole.hole_window),
        })
    return summary


def _compute_point(config: SweepConfig, n: int, m: int, u: float, d: float,
                   diags: tuple) -> tuple[dict, list]:
    """One (N, M, U, D) record plus the files to persist for it, as
    ``(writer, relative path, writer arguments)`` triples."""
    point = run_point(config, n, m, u, d, diags)
    files = []
    if point.record["status"] != "ok":
        return point.record, files
    stem = f"{n}x{m}_u{u:.6g}_d{d:.6g}"
    if config.save_eigenstate_profiles and point.profiles is not None:
        files.append((write_eigenstate_csv, f"eigenstates/{stem}.csv",
                      (point.spectral.eigenvalues, point.profiles)))
    if config.save_traces:
        for diag, trace in point.traces.items():
            path = f"traces/{trace.observable}_{stem}"
            summary = trace_summary(trace, point.ensembles[diag],
                                    point.hole if diag == "survival" else None)
            files += [(dynamics.write_trace_csv, f"{path}.csv", (trace,)),
                      (write_json, f"{path}.json", (summary,))]
    return point.record, files


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


def _write_files(out_dir: Path, files: list, metadata: dict) -> None:
    for writer, relative, args in files:
        path = out_dir / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        writer(path, *args, metadata)


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@contextmanager
def _worker_pool(workers: int, calls: list):
    """Run ``(fn, *args)`` calls on a pool of spawned processes; yields the
    futures in call order.

    Each worker gets ``cpu_count // workers`` BLAS threads (at least one),
    so the pools of all workers together do not oversubscribe the cores.
    BLAS reads its thread count from the environment when numpy is first
    imported, which a spawned worker does after it starts; ``submit``
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


def _run_points(config: SweepConfig, out_dir, points, diags,
                resume: bool) -> list:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    metadata = config.metadata()
    chash = config.config_hash
    _trim_journal(out / "records.jsonl")
    done = _load_journal(out, chash) if resume else {}
    pending = [p for p in points if _point_key(*p) not in done]
    records = list(done.values())

    def finish(point, record, files):
        _append_journal(out, _point_key(*point), record, chash)
        _write_files(out, files, metadata)
        records.append(record)

    if config.workers == 1 or len(pending) <= 1:
        for point in pending:
            finish(point, *_compute_point(config, *point, tuple(diags)))
    else:
        calls = [(_compute_point, config, *point, tuple(diags))
                 for point in pending]
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
                    finish(futures[fut], *result)

    records.sort(key=lambda r: (r["n_bosons"], r["n_sites"], r["u"], r["d"]))
    write_table(out / "results.csv", RESULT_COLUMNS,
                ([rec.get(col) for col in RESULT_COLUMNS] for rec in records),
                metadata)
    return records


def _grid_points(config: SweepConfig) -> list:
    return [(n, m, u, d)
            for (n, m) in config.system_sizes
            for u in config.u_values
            for d in config.d_values]


def run_chaos_map(config: SweepConfig, out_dir, resume: bool = False) -> list:
    """Gap-ratio map over the full (U, D) grid, eigenvalues only."""
    return _run_points(config, out_dir, _grid_points(config), ("gap_ratio",),
                       resume)


def run_cut(config: SweepConfig, out_dir, resume: bool = False) -> list:
    """All requested diagnostics along a one-parameter cut, per system size.

    The cut runs over the cartesian product of ``u_values`` and
    ``d_values``; a cut in the usual sense fixes one list to length 1.
    """
    return _run_points(config, out_dir, _grid_points(config),
                       tuple(config.diagnostics), resume)


def exit_code_for(records: list) -> int:
    """0 all ok; 2 if any point failed; 3 if the only failures hit limits."""
    statuses = {rec.get("status", "ok") for rec in records}
    if "error" in statuses:
        return 2
    if "skipped_dimension" in statuses:
        return 3
    return 0
