"""Command-line front end.

Subcommands map one-to-one onto the library layers:

* ``basis``        dimension and (optionally) the enumerated state table
* ``spectrum``     eigenvalues, normalized energies, gap-ratio statistics
* ``eigenstates``  per-eigenstate participation / entropy / imbalance table
* ``quench``       survival probability, entropy and imbalance traces,
                   correlation-hole analysis and the analytic curve
* ``chaos-map``    gap-ratio map over a (U, D) grid
* ``cut``          all requested diagnostics along a one-parameter cut

Every subcommand reads one JSON config (``--config``) and writes into an
output directory (``--out``).  Exit codes: 0 success, 1 config error,
2 partial per-point failures, 3 resource limit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
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
from .sweep import (
    ConfigError,
    cached_diagonalize,
    exit_code_for,
    run_chaos_map,
    run_cut,
    validate_and_echo_config,
)

_STATE_TABLE_LIMIT = 100_000


def _load_config(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err


def _get(cfg: dict, key: str, default=None, required: bool = False):
    if key not in cfg:
        if required:
            raise ConfigError(f"{key}: required field missing")
        return default
    return cfg[key]


def _point_config(raw: dict, seed_override=None) -> dict:
    """Validate and normalize a single-point config (energies to j = 1)."""
    n = int(_get(raw, "n_bosons", required=True))
    m = int(_get(raw, "n_sites", required=True))
    if n < 1 or m < 1:
        raise ConfigError("n_bosons/n_sites: must be >= 1")
    j = float(_get(raw, "j", 1.0))
    if j <= 0:
        raise ConfigError("j: must be positive")
    u = float(_get(raw, "u", required=True)) / j
    d = float(_get(raw, "d", required=True)) / j
    if u < 0 or d < 0:
        raise ConfigError("u/d: must be >= 0")
    out = dict(raw)
    out.update({"n_bosons": n, "n_sites": m, "u": u, "d": d, "j": 1.0})
    out["seed"] = int(seed_override if seed_override is not None
                      else _get(raw, "seed", 0))
    return out


def _metadata(cfg: dict) -> dict:
    canon = json.dumps(cfg, sort_keys=True)
    return {
        "config_hash": hashlib.sha256(canon.encode()).hexdigest()[:12],
        "seed": cfg.get("seed", 0),
        "version": __version__,
    }


def _write_json(path: Path, data: dict, metadata: dict) -> None:
    out = dict(data)
    out.update(metadata)
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")


# -- point commands ----------------------------------------------------------


def _cmd_basis(args) -> int:
    raw = _load_config(args.config)
    n = int(_get(raw, "n_bosons", required=True))
    m = int(_get(raw, "n_sites", required=True))
    cfg = {"n_bosons": n, "n_sites": m,
           "write_states": bool(_get(raw, "write_states", True)), "seed": 0}
    meta = _metadata(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dim = dimension(n, m)
    _write_json(out / "basis_summary.json",
                {"n_bosons": n, "n_sites": m, "dim": dim}, meta)
    if cfg["write_states"] and dim <= _STATE_TABLE_LIMIT:
        basis = FockBasis(n, m)
        with open(out / "basis_states.csv", "w") as fh:
            for key, val in meta.items():
                fh.write(f"# {key}={val}\n")
            fh.write("index," + ",".join(f"n_{i+1}" for i in range(m)) + "\n")
            for i, row in enumerate(basis.states):
                fh.write(f"{i}," + ",".join(str(x) for x in row) + "\n")
    return 0


def _cmd_spectrum(args) -> int:
    cfg = _point_config(_load_config(args.config), args.seed)
    meta = _metadata(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    basis = FockBasis(cfg["n_bosons"], cfg["n_sites"])
    params = ModelParams(u=cfg["u"], d=cfg["d"])
    if bool(_get(cfg, "export_matrix", False)):
        h = hamiltonian.build(basis, params)
        h.export_coo(out / "hamiltonian_coo.txt", meta)
    spec = cached_diagonalize(basis, params, with_vectors=False)
    spectrum.write_spectrum_csv(out / "spectrum.csv", spec.eigenvalues, meta)
    edge = float(_get(cfg, "edge_discard", 0.1))
    stats = spectrum.mean_gap_ratio(spec.eigenvalues, edge)
    _write_json(out / "gap_statistics.json", {
        "mean_r": stats.mean_r,
        "n_gaps_used": stats.n_gaps_used,
        "edge_fraction_discarded": stats.edge_fraction_discarded,
        "n_degenerate": stats.n_degenerate,
        "chaos_distance": spectrum.chaos_distance(
            stats, float(_get(cfg, "goe_reference", spectrum.R_GOE))),
    }, meta)
    return 0


def _cmd_eigenstates(args) -> int:
    cfg = _point_config(_load_config(args.config), args.seed)
    meta = _metadata(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    basis = FockBasis(cfg["n_bosons"], cfg["n_sites"])
    params = ModelParams(u=cfg["u"], d=cfg["d"])
    spec = cached_diagonalize(basis, params, with_vectors=True)
    prof = eigenstate_diagnostics(spec)
    write_eigenstate_csv(out / "eigenstates.csv", spec.eigenvalues, prof, meta)
    window = float(_get(cfg, "central_window", 0.8))
    _write_json(out / "eigenstates_summary.json", {
        "central_window": window,
        "pr_central_over_goe": central_window_average(
            prof.participation, window) / prof.participation_goe,
        "entropy_central_over_page": central_window_average(
            prof.entropy_mean, window) / prof.page,
        "imbalance_central": central_window_average(prof.imbalance, window),
        "page_value": prof.page,
        "participation_goe": prof.participation_goe,
    }, meta)
    return 0


def _cmd_quench(args) -> int:
    cfg = _point_config(_load_config(args.config), args.seed)
    meta = _metadata(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    observables = list(_get(cfg, "observables",
                            ["survival", "entropy", "imbalance"]))
    for name in observables:
        if name not in ("survival", "entropy", "imbalance"):
            raise ConfigError(f"observables: unknown entry {name!r}")

    basis = FockBasis(cfg["n_bosons"], cfg["n_sites"])
    params = ModelParams(u=cfg["u"], d=cfg["d"])
    spec = cached_diagonalize(basis, params, with_vectors=True)

    reference = ModelParams(u=float(_get(cfg, "reference_u", 0.5)),
                            d=float(_get(cfg, "reference_d", 0.8)))
    cap = int(_get(cfg, "occupation_cap", 3))
    halfwidth = float(_get(cfg, "window_halfwidth", 0.4))
    smoothing = int(_get(cfg, "smoothing_window",
                         dynamics.DEFAULT_SMOOTHING_WINDOW))
    grid = dynamics.log_time_grid(
        float(_get(cfg, "time_min", 0.1)),
        float(_get(cfg, "time_max", 1.0e4)),
        int(_get(cfg, "time_points", 400)))
    obs_grid = dynamics.log_time_grid(
        grid.points[0],
        float(_get(cfg, "time_max_observables", grid.points[-1])),
        int(_get(cfg, "time_points_observables", grid.points.size)))

    if "survival" in observables:
        ens = initial_states.sample_energy_window(
            basis, initial_states.EnergyWindowProtocol(
                sample_count=int(_get(cfg, "survival_sample_count", 200)),
                reference_params=reference, window_halfwidth=halfwidth,
                occupation_cap=cap, rng_seed=cfg["seed"]))
        initial_states.write_state_manifest(
            out / "survival_states.json", ens, meta)
        coeff = dynamics.ensemble_amplitudes(ens.indices, spec)
        trace = dynamics.survival_trace(coeff, spec.eigenvalues, grid, smoothing)
        ipr = dynamics.ensemble_ipr(coeff)
        hole_window = tuple(_get(cfg, "hole_window",
                                 list(dynamics.DEFAULT_HOLE_WINDOW)))
        hole = dynamics.correlation_hole_depth(trace, ipr, hole_window)
        dynamics.write_trace_csv(out / "survival_trace.csv", trace, meta)
        summary = {
            "observable": "survival",
            "ipr": hole.ipr, "sp_min": hole.sp_min,
            "sp_min_raw": hole.sp_min_raw, "hole_depth": hole.hole_depth,
            "hole_depth_over_goe": hole.hole_depth
                / goe_participation_reference(basis.dim),
            "hole_window": list(hole.hole_window),
            "relaxation_value": trace.relaxation_value,
            "smoothing_window": smoothing,
            "n_states": len(ens),
            "protocol": ens.metadata,
        }
        if bool(_get(cfg, "include_analytic", True)):
            inputs = dynamics.estimate_curve_inputs(coeff, spec.eigenvalues)
            curve = dynamics.analytic_survival_curve(inputs, grid)
            with open(out / "survival_analytic.csv", "w") as fh:
                for key, val in meta.items():
                    fh.write(f"# {key}={val}\n")
                fh.write("time,analytic\n")
                for t, v in zip(grid.points, curve):
                    fh.write(f"{float(t)!r},{float(v)!r}\n")
            summary["analytic_eta"] = inputs.eta
            summary["analytic_mean_dos"] = inputs.mean_dos
        _write_json(out / "survival_summary.json", summary, meta)

    if "entropy" in observables:
        ens = initial_states.sample_energy_window(
            basis, initial_states.EnergyWindowProtocol(
                sample_count=int(_get(cfg, "entropy_sample_count", 50)),
                reference_params=reference, window_halfwidth=halfwidth,
                occupation_cap=cap, rng_seed=cfg["seed"]))
        initial_states.write_state_manifest(
            out / "entropy_states.json", ens, meta)
        trace = dynamics.observable_trace(ens.indices, spec, obs_grid,
                                          "entropy", smoothing)
        dynamics.write_trace_csv(out / "entropy_trace.csv", trace, meta)
        _write_json(out / "entropy_summary.json", {
            "observable": "entropy",
            "relaxation_value": trace.relaxation_value,
            "relaxation_over_page": trace.relaxation_value
                / page_value(basis.n_bosons, basis.n_sites),
            "smoothing_window": smoothing,
            "n_states": len(ens),
            "protocol": ens.metadata,
        }, meta)

    if "imbalance" in observables:
        max_states = _get(cfg, "imbalance_max_states", None)
        ens = initial_states.maximally_imbalanced_states(
            basis, initial_states.ImbalanceProtocol(
                occupation_cap=cap,
                max_states=None if max_states is None else int(max_states),
                rng_seed=cfg["seed"]))
        initial_states.write_state_manifest(
            out / "imbalance_states.json", ens, meta)
        trace = dynamics.observable_trace(ens.indices, spec, obs_grid,
                                          "imbalance", smoothing)
        dynamics.write_trace_csv(out / "imbalance_trace.csv", trace, meta)
        _write_json(out / "imbalance_summary.json", {
            "observable": "imbalance",
            "relaxation_value": trace.relaxation_value,
            "smoothing_window": smoothing,
            "n_states": len(ens),
            "protocol": ens.metadata,
        }, meta)
    return 0


# -- sweep commands ----------------------------------------------------------


def _sweep_overrides(args) -> dict:
    out = {}
    if args.workers is not None:
        out["workers"] = args.workers
    if args.seed is not None:
        out["seed"] = args.seed
    return out


def _cmd_sweep(args, runner) -> int:
    raw = _load_config(args.config)
    raw.update(_sweep_overrides(args))
    tmp = Path(args.out)
    tmp.mkdir(parents=True, exist_ok=True)
    cfg_file = tmp / "config_effective.json"
    cfg_file.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n")
    config = validate_and_echo_config(cfg_file, args.out)
    records = runner(config, args.out, resume=args.resume)
    failures = [r for r in records if r.get("status") != "ok"]
    for rec in failures:
        print(f"point N={rec['n_bosons']} M={rec['n_sites']} "
              f"u={rec['u']} d={rec['d']}: {rec['status']} ({rec['error']})",
              file=sys.stderr)
    return exit_code_for(records)


# -- entry ---------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tiltedbh",
        description="Exact-diagonalization chaos diagnostics for the tilted "
                    "Bose-Hubbard chain.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "basis": "enumerate the Fock basis of one sector",
        "spectrum": "eigenvalues and gap-ratio statistics at one point",
        "eigenstates": "per-eigenstate static diagnostics at one point",
        "quench": "quench dynamics and correlation-hole analysis at one point",
        "chaos-map": "gap-ratio map over a (U, D) grid",
        "cut": "diagnostics along a one-parameter cut",
    }
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--workers", type=int, default=None,
                       help="parallel workers (sweeps only)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--resume", action="store_true",
                       help="skip points already journaled (sweeps only)")
    args = parser.parse_args(argv)

    handlers = {
        "basis": _cmd_basis,
        "spectrum": _cmd_spectrum,
        "eigenstates": _cmd_eigenstates,
        "quench": _cmd_quench,
    }
    try:
        if args.command in handlers:
            return handlers[args.command](args)
        if args.command == "chaos-map":
            return _cmd_sweep(args, run_chaos_map)
        return _cmd_sweep(args, run_cut)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except (DimensionTooLargeError, MemoryError) as err:
        print(f"resource limit: {err}", file=sys.stderr)
        return 3


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
