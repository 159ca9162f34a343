"""Parameter sweeps: chaos maps over (U, D) grids and one-parameter cuts.

A sweep walks a list of (N, M, U, D) points, computes the requested
diagnostics with shared spectral data per point, and persists one record
per point.  Completed points are journaled to ``records.jsonl`` so an
interrupted sweep can resume; the canonical ``results.csv`` is rewritten
sorted at the end, so identical config + seed + worker count reproduce it
byte for byte.  Initial-state ensembles are seeded and regenerated
identically inside each worker instead of being shared.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from . import dynamics, hamiltonian, initial_states, spectrum
from ._version import __version__
from .basis import FockBasis, dimension
from .diagnostics import (
    central_window_average,
    eigenstate_diagnostics,
    goe_participation_reference,
    page_value,
    write_eigenstate_csv,
)
from .hamiltonian import ModelParams
from .spectrum import DimensionTooLargeError

__all__ = [
    "ConfigError",
    "SweepConfig",
    "validate_and_echo_config",
    "run_chaos_map",
    "run_cut",
    "exit_code_for",
    "cached_diagonalize",
    "resolve_cache_dir",
    "RESULT_COLUMNS",
    "CACHE_DIR_ENV",
]

CACHE_DIR_ENV = "TILTEDBH_CACHE_DIR"

ALLOWED_DIAGNOSTICS = (
    "gap_ratio",
    "pr",
    "entropy",
    "imbalance",
    "survival",
    "entropy_dynamics",
    "imbalance_dynamics",
)

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


class ConfigError(ValueError):
    pass


_DEFAULTS = {
    "j": 1.0,
    "seed": 0,
    "workers": 1,
    "edge_discard": 0.1,
    "central_window": 0.8,
    "goe_reference": spectrum.R_GOE,
    "occupation_cap": 3,
    "window_halfwidth": 0.4,
    "reference_u": 0.5,
    "reference_d": 0.8,
    "survival_sample_count": 200,
    "entropy_sample_count": 50,
    "imbalance_max_states": None,
    "time_min": 0.1,
    "time_max": 1.0e4,
    "time_points": 400,
    "time_points_observables": 400,
    "time_max_observables": None,
    "smoothing_window": dynamics.DEFAULT_SMOOTHING_WINDOW,
    "hole_window": list(dynamics.DEFAULT_HOLE_WINDOW),
    "save_traces": False,
    "save_eigenstate_profiles": False,
    "eigenvalue_limit": spectrum.DENSE_EIGENVALUE_LIMIT,
    "eigenvector_limit": spectrum.DENSE_EIGENVECTOR_LIMIT,
    "cache_dir": None,
}


@dataclass
class SweepConfig:
    system_sizes: list = field(default_factory=list)
    u_values: list = field(default_factory=list)
    d_values: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)
    j: float = 1.0
    seed: int = 0
    workers: int = 1
    edge_discard: float = 0.1
    central_window: float = 0.8
    goe_reference: float = spectrum.R_GOE
    occupation_cap: int = 3
    window_halfwidth: float = 0.4
    reference_u: float = 0.5
    reference_d: float = 0.8
    survival_sample_count: int = 200
    entropy_sample_count: int = 50
    imbalance_max_states: int | None = None
    time_min: float = 0.1
    time_max: float = 1.0e4
    time_points: int = 400
    time_points_observables: int = 400
    time_max_observables: float | None = None
    smoothing_window: int = dynamics.DEFAULT_SMOOTHING_WINDOW
    hole_window: list = field(
        default_factory=lambda: list(dynamics.DEFAULT_HOLE_WINDOW))
    save_traces: bool = False
    save_eigenstate_profiles: bool = False
    eigenvalue_limit: int = spectrum.DENSE_EIGENVALUE_LIMIT
    eigenvector_limit: int = spectrum.DENSE_EIGENVECTOR_LIMIT
    cache_dir: str | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "SweepConfig":
        """Fill defaults, validate every field, normalize energies to j = 1."""
        known = {"system_sizes", "u_values", "d_values", "diagnostics"}
        known |= set(_DEFAULTS)
        for key in raw:
            if key not in known:
                raise ConfigError(f"{key}: unknown configuration field")
        cfg = dict(_DEFAULTS)
        cfg.update(raw)

        for req in ("system_sizes", "u_values", "d_values", "diagnostics"):
            if req not in cfg or cfg[req] in (None, []):
                raise ConfigError(f"{req}: required and must be non-empty")

        sizes = []
        for i, pair in enumerate(cfg["system_sizes"]):
            try:
                n, m = int(pair[0]), int(pair[1])
            except (TypeError, ValueError, IndexError):
                raise ConfigError(f"system_sizes[{i}]: expected a [N, M] pair")
            if n < 1 or m < 1:
                raise ConfigError(f"system_sizes[{i}]: N and M must be >= 1")
            sizes.append((n, m))

        j = float(cfg["j"])
        if j <= 0:
            raise ConfigError("j: must be positive")

        def _values(name):
            out = []
            for i, v in enumerate(cfg[name]):
                v = float(v)
                if v < 0:
                    raise ConfigError(f"{name}[{i}]: must be >= 0")
                out.append(v / j)  # energies in units of the hopping
            return out

        u_values = _values("u_values")
        d_values = _values("d_values")

        diags = list(cfg["diagnostics"])
        for i, name in enumerate(diags):
            if name not in ALLOWED_DIAGNOSTICS:
                raise ConfigError(
                    f"diagnostics[{i}]: {name!r} not one of {ALLOWED_DIAGNOSTICS}"
                )

        if not 0 <= float(cfg["edge_discard"]) < 0.5:
            raise ConfigError("edge_discard: must lie in [0, 0.5)")
        if not 0 < float(cfg["central_window"]) <= 1:
            raise ConfigError("central_window: must lie in (0, 1]")
        if int(cfg["workers"]) < 1:
            raise ConfigError("workers: must be >= 1")
        for name in ("survival_sample_count", "entropy_sample_count",
                     "time_points", "time_points_observables"):
            if int(cfg[name]) < 1:
                raise ConfigError(f"{name}: must be >= 1")
        if cfg["imbalance_max_states"] is not None \
                and int(cfg["imbalance_max_states"]) < 1:
            raise ConfigError("imbalance_max_states: must be >= 1 when set")
        w = int(cfg["smoothing_window"])
        if w < 1 or w % 2 == 0:
            raise ConfigError("smoothing_window: must be odd and >= 1")
        hw = cfg["hole_window"]
        if len(hw) != 2 or not 0 < float(hw[0]) < float(hw[1]):
            raise ConfigError("hole_window: expected [lo, hi] with 0 < lo < hi")
        if float(cfg["time_min"]) <= 0 or \
                float(cfg["time_min"]) >= float(cfg["time_max"]):
            raise ConfigError("time_min/time_max: need 0 < time_min < time_max")
        if cfg["time_max_observables"] is not None and \
                float(cfg["time_max_observables"]) <= float(cfg["time_min"]):
            raise ConfigError("time_max_observables: must exceed time_min")
        for name in ("window_halfwidth",):
            if float(cfg[name]) <= 0:
                raise ConfigError(f"{name}: must be positive")
        for name in ("reference_u", "reference_d"):
            if float(cfg[name]) < 0:
                raise ConfigError(f"{name}: must be >= 0")
        if int(cfg["occupation_cap"]) < 1:
            raise ConfigError("occupation_cap: must be >= 1")

        return cls(
            system_sizes=sizes,
            u_values=u_values,
            d_values=d_values,
            diagnostics=diags,
            j=1.0,
            seed=int(cfg["seed"]),
            workers=int(cfg["workers"]),
            edge_discard=float(cfg["edge_discard"]),
            central_window=float(cfg["central_window"]),
            goe_reference=float(cfg["goe_reference"]),
            occupation_cap=int(cfg["occupation_cap"]),
            window_halfwidth=float(cfg["window_halfwidth"]),
            reference_u=float(cfg["reference_u"]) / j,
            reference_d=float(cfg["reference_d"]) / j,
            survival_sample_count=int(cfg["survival_sample_count"]),
            entropy_sample_count=int(cfg["entropy_sample_count"]),
            imbalance_max_states=(None if cfg["imbalance_max_states"] is None
                                  else int(cfg["imbalance_max_states"])),
            time_min=float(cfg["time_min"]),
            time_max=float(cfg["time_max"]),
            time_points=int(cfg["time_points"]),
            time_points_observables=int(cfg["time_points_observables"]),
            time_max_observables=(None if cfg["time_max_observables"] is None
                                  else float(cfg["time_max_observables"])),
            smoothing_window=w,
            hole_window=[float(hw[0]), float(hw[1])],
            save_traces=bool(cfg["save_traces"]),
            save_eigenstate_profiles=bool(cfg["save_eigenstate_profiles"]),
            eigenvalue_limit=int(cfg["eigenvalue_limit"]),
            eigenvector_limit=int(cfg["eigenvector_limit"]),
            cache_dir=cfg["cache_dir"],
        )

    def to_dict(self) -> dict:
        out = {
            "system_sizes": [list(p) for p in self.system_sizes],
            "u_values": list(self.u_values),
            "d_values": list(self.d_values),
            "diagnostics": list(self.diagnostics),
        }
        for key in _DEFAULTS:
            out[key] = getattr(self, key)
        return out

    @property
    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:12]

    def metadata(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "seed": self.seed,
            "version": __version__,
        }


def validate_and_echo_config(config_file, out_dir) -> SweepConfig:
    """Load a JSON config, validate it, and echo the normalized form."""
    path = Path(config_file)
    try:
        raw = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    config = SweepConfig.from_dict(raw)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    echoed = config.to_dict()
    echoed["config_hash"] = config.config_hash
    echoed["version"] = __version__
    (out / "config_normalized.json").write_text(
        json.dumps(echoed, indent=2, sort_keys=True) + "\n"
    )
    return config


# -- eigendata cache --------------------------------------------------------


def resolve_cache_dir(explicit=None) -> Path | None:
    cdir = explicit or os.environ.get(CACHE_DIR_ENV)
    return Path(cdir) if cdir else None


def cached_diagonalize(basis, params, with_vectors, *, cache_dir=None,
                       value_limit=spectrum.DENSE_EIGENVALUE_LIMIT,
                       vector_limit=spectrum.DENSE_EIGENVECTOR_LIMIT):
    """Diagonalize, reusing an on-disk eigendata store when one is configured.

    Cache entries are keyed by (N, M, U, D) so repeated diagnostics at the
    same point skip the eigensolve.  A value-only request is also served
    from an entry that holds eigenvectors.
    """
    cdir = resolve_cache_dir(cache_dir)
    if cdir is not None:
        stem = (f"eig_{basis.n_bosons}x{basis.n_sites}"
                f"_u{params.u:.12g}_d{params.d:.12g}")
        path = cdir / f"{stem}_{'vec' if with_vectors else 'val'}.npz"
        for entry in (path, cdir / f"{stem}_vec.npz"):
            if entry.exists():
                with np.load(entry) as data:
                    vecs = data["eigenvectors"] if with_vectors else None
                    return spectrum.SpectralData(
                        basis, params, data["eigenvalues"], vecs)
    h = hamiltonian.build(basis, params)
    spec = spectrum.diagonalize(
        h, with_vectors, value_limit=value_limit, vector_limit=vector_limit)
    if cdir is not None:
        cdir.mkdir(parents=True, exist_ok=True)
        payload = {"eigenvalues": spec.eigenvalues}
        if with_vectors:
            payload["eigenvectors"] = spec.eigenvectors
        np.savez(path, **payload)
    return spec


def _diagonalize_point(basis, params, config, with_vectors):
    return cached_diagonalize(
        basis, params, with_vectors,
        cache_dir=config.cache_dir,
        value_limit=config.eigenvalue_limit,
        vector_limit=config.eigenvector_limit,
    )


# -- per-point computation ---------------------------------------------------


def _build_ensembles(basis: FockBasis, config: SweepConfig, diags: set):
    """Seeded initial-state sets; identical in every worker for a fixed seed."""
    out = {}
    reference = ModelParams(u=config.reference_u, d=config.reference_d)
    if "survival" in diags:
        out["survival"] = initial_states.sample_energy_window(
            basis,
            initial_states.EnergyWindowProtocol(
                sample_count=config.survival_sample_count,
                reference_params=reference,
                window_halfwidth=config.window_halfwidth,
                occupation_cap=config.occupation_cap,
                rng_seed=config.seed,
            ),
        )
    if "entropy_dynamics" in diags:
        out["entropy_dynamics"] = initial_states.sample_energy_window(
            basis,
            initial_states.EnergyWindowProtocol(
                sample_count=config.entropy_sample_count,
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


def _compute_point(config: SweepConfig, n: int, m: int, u: float, d: float,
                   diags: tuple) -> tuple[dict, list]:
    """One (N, M, U, D) record plus any file artifacts to persist."""
    diags = set(diags)
    record = {
        "n_bosons": n, "n_sites": m, "u": u, "d": d,
        "d_over_j": d, "u_over_nj": u / n,
        "status": "ok", "error": "",
    }
    artifacts = []
    try:
        record["dim"] = dimension(n, m)
        basis = FockBasis(n, m)
        params = ModelParams(u=u, d=d)
        with_vectors = bool(diags & (_STATIC_VECTOR_DIAGS | _DYNAMIC_DIAGS))
        spec = _diagonalize_point(basis, params, config, with_vectors)
        d_goe = goe_participation_reference(basis.dim)
        stem = f"{n}x{m}_u{u:.6g}_d{d:.6g}"

        if "gap_ratio" in diags:
            stats = spectrum.mean_gap_ratio(spec.eigenvalues, config.edge_discard)
            record["mean_r"] = stats.mean_r
            record["chaos_distance"] = spectrum.chaos_distance(
                stats, config.goe_reference)
            record["n_gaps"] = stats.n_gaps_used

        if diags & _STATIC_VECTOR_DIAGS:
            prof = eigenstate_diagnostics(spec)
            if "pr" in diags:
                record["pr_central_over_goe"] = central_window_average(
                    prof.participation, config.central_window) / d_goe
            if "entropy" in diags:
                record["entropy_central_over_page"] = central_window_average(
                    prof.entropy_mean, config.central_window) / prof.page
            if "imbalance" in diags:
                record["imbalance_central"] = central_window_average(
                    prof.imbalance, config.central_window)
            if config.save_eigenstate_profiles:
                artifacts.append({
                    "kind": "eigenstates",
                    "path": f"eigenstates/{stem}.csv",
                    "eigenvalues": spec.eigenvalues,
                    "diag": prof,
                })

        if diags & _DYNAMIC_DIAGS:
            ensembles = _build_ensembles(basis, config, diags)

            if "survival" in diags:
                grid = dynamics.log_time_grid(
                    config.time_min, config.time_max, config.time_points)
                coeff = dynamics.ensemble_amplitudes(
                    ensembles["survival"].indices, spec)
                trace = dynamics.survival_trace(
                    coeff, spec.eigenvalues, grid, config.smoothing_window)
                ipr = dynamics.ensemble_ipr(coeff)
                hole = dynamics.correlation_hole_depth(
                    trace, ipr, tuple(config.hole_window))
                record["ipr"] = hole.ipr
                record["sp_min"] = hole.sp_min
                record["sp_min_raw"] = hole.sp_min_raw
                record["hole_depth"] = hole.hole_depth
                record["hole_depth_over_goe"] = hole.hole_depth / d_goe
                record["survival_relaxation"] = trace.relaxation_value
                if config.save_traces:
                    artifacts.append(_trace_artifact(
                        f"traces/survival_{stem}", trace,
                        ensembles["survival"], hole=hole))

            obs_t_max = config.time_max_observables or config.time_max
            obs_grid = dynamics.log_time_grid(
                config.time_min, obs_t_max,
                config.time_points_observables)

            if "entropy_dynamics" in diags:
                trace = dynamics.observable_trace(
                    ensembles["entropy_dynamics"].indices, spec, obs_grid,
                    "entropy", config.smoothing_window)
                page = page_value(n, m)
                record["entropy_relaxation"] = trace.relaxation_value
                record["entropy_relaxation_over_page"] = \
                    trace.relaxation_value / page
                if config.save_traces:
                    artifacts.append(_trace_artifact(
                        f"traces/entropy_{stem}", trace,
                        ensembles["entropy_dynamics"]))

            if "imbalance_dynamics" in diags:
                trace = dynamics.observable_trace(
                    ensembles["imbalance_dynamics"].indices, spec, obs_grid,
                    "imbalance", config.smoothing_window)
                record["imbalance_relaxation"] = trace.relaxation_value
                if config.save_traces:
                    artifacts.append(_trace_artifact(
                        f"traces/imbalance_{stem}", trace,
                        ensembles["imbalance_dynamics"]))

    except DimensionTooLargeError as err:
        record["status"] = "skipped_dimension"
        record["error"] = str(err)
    except Exception as err:  # per-point failures never abort the sweep
        record["status"] = "error"
        record["error"] = f"{type(err).__name__}: {err}"
    return record, artifacts


def _trace_artifact(stem, trace, ensemble, hole=None) -> dict:
    sidecar = {
        "observable": trace.observable,
        "relaxation_value": trace.relaxation_value,
        "smoothing_window": trace.smoothing_window,
        "n_states": len(ensemble),
        "protocol": ensemble.metadata,
    }
    if hole is not None:
        sidecar.update({
            "ipr": hole.ipr,
            "sp_min": hole.sp_min,
            "sp_min_raw": hole.sp_min_raw,
            "hole_depth": hole.hole_depth,
            "hole_window": list(hole.hole_window),
        })
    return {"kind": "trace", "path": f"{stem}.csv",
            "sidecar_path": f"{stem}.json", "trace": trace, "sidecar": sidecar}


# -- journal / results persistence -------------------------------------------


def _point_key(n, m, u, d) -> str:
    return f"{n}_{m}_{u:.12g}_{d:.12g}"


def _load_journal(out_dir: Path, config_hash: str) -> dict:
    path = out_dir / "records.jsonl"
    done = {}
    if not path.exists():
        return done
    for line in path.read_text().splitlines():
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            break  # truncated tail from an interrupted run
        if entry.get("config_hash") == config_hash:
            done[entry["key"]] = entry["record"]
    return done


def _append_journal(out_dir: Path, key: str, record: dict,
                    config_hash: str) -> None:
    entry = {"key": key, "config_hash": config_hash, "record": record}
    with open(out_dir / "records.jsonl", "a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_results(out_dir: Path, records: list, metadata: dict) -> None:
    records = sorted(records, key=lambda r: (r["n_bosons"], r["n_sites"],
                                             r["u"], r["d"]))
    with open(out_dir / "results.csv", "w") as fh:
        for key, val in metadata.items():
            fh.write(f"# {key}={val}\n")
        fh.write(",".join(RESULT_COLUMNS) + "\n")
        for rec in records:
            fh.write(",".join(
                _format_cell(rec.get(col)) for col in RESULT_COLUMNS) + "\n")


def _write_artifacts(out_dir: Path, artifacts: list, metadata: dict) -> None:
    for art in artifacts:
        path = out_dir / art["path"]
        path.parent.mkdir(parents=True, exist_ok=True)
        if art["kind"] == "trace":
            dynamics.write_trace_csv(path, art["trace"], metadata)
            sidecar = dict(art["sidecar"])
            sidecar.update(metadata)
            (out_dir / art["sidecar_path"]).write_text(
                json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
        elif art["kind"] == "eigenstates":
            write_eigenstate_csv(path, art["eigenvalues"], art["diag"],
                                 metadata)
        elif art["kind"] == "json":
            data = dict(art["data"])
            data.update(metadata)
            path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


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
    done = _load_journal(out, chash) if resume else {}
    pending = [p for p in points if _point_key(*p) not in done]
    records = list(done.values())

    if config.workers == 1 or len(pending) <= 1:
        for point in pending:
            record, artifacts = _compute_point(config, *point, tuple(diags))
            _append_journal(out, _point_key(*point), record, chash)
            _write_artifacts(out, artifacts, metadata)
            records.append(record)
    else:
        calls = [(_compute_point, config, *point, tuple(diags))
                 for point in pending]
        with _worker_pool(config.workers, calls) as submitted:
            futures = dict(zip(submitted, pending))
            for fut in as_completed(futures):
                point = futures[fut]
                record, artifacts = fut.result()
                _append_journal(out, _point_key(*point), record, chash)
                _write_artifacts(out, artifacts, metadata)
                records.append(record)

    _write_results(out, records, metadata)
    return sorted(records, key=lambda r: (r["n_bosons"], r["n_sites"],
                                          r["u"], r["d"]))


def run_chaos_map(config: SweepConfig, out_dir, resume: bool = False) -> list:
    """Gap-ratio map over the full (U, D) grid, eigenvalues only."""
    points = [(n, m, u, d)
              for (n, m) in config.system_sizes
              for u in config.u_values
              for d in config.d_values]
    return _run_points(config, out_dir, points, ("gap_ratio",), resume)


def run_cut(config: SweepConfig, out_dir, resume: bool = False) -> list:
    """All requested diagnostics along a one-parameter cut, per system size.

    The cut runs over the cartesian product of ``u_values`` and
    ``d_values``; a cut in the usual sense fixes one list to length 1.
    """
    points = [(n, m, u, d)
              for (n, m) in config.system_sizes
              for u in config.u_values
              for d in config.d_values]
    return _run_points(config, out_dir, points, tuple(config.diagnostics),
                       resume)


def exit_code_for(records: list) -> int:
    """0 all ok; 2 if any point failed; 3 if the only failures hit limits."""
    statuses = {rec.get("status", "ok") for rec in records}
    if "error" in statuses:
        return 2
    if "skipped_dimension" in statuses:
        return 3
    return 0
