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
output directory (``--out``).  ``spectrum``, ``eigenstates`` and ``quench``
run their point (``n_bosons``, ``n_sites``, ``u``, ``d``) as a one-point
sweep config through the sweep's per-point pipeline and differ only in the
files they write.  Exit codes: 0 success, 1 config error, 2 partial
per-point failures, 3 resource limit.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import dynamics, hamiltonian, initial_states, spectrum
from .basis import FockBasis, dimension
from .diagnostics import write_eigenstate_csv
from .config import (
    OBSERVABLES,
    ConfigError,
    SweepConfig,
    basis_config,
    load_config,
    output_metadata,
    point_config,
)
from .sweep import (exit_code_for, record_failures, run_chaos_map, run_cut,
                    run_point, trace_summary)
from .tables import write_json, write_table

_STATE_TABLE_LIMIT = 100_000


def _overrides(args) -> dict:
    return {key: value for key, value in
            (("workers", args.workers), ("seed", args.seed))
            if value is not None}


def _reject_flags(args, names) -> None:
    """Raise ConfigError for a flag in ``names`` that was given: the
    command does not read it."""
    for name in names:
        if getattr(args, name) not in (None, False):
            raise ConfigError(f"--{name}: {args.command} does not take it")


def _report(records: list) -> int:
    for rec in records:
        if rec.get("status") != "ok":
            print(f"point N={rec['n_bosons']} M={rec['n_sites']} "
                  f"u={rec['u']} d={rec['d']}: {rec['status']} "
                  f"({rec['error']})", file=sys.stderr)
    return exit_code_for(records)


# -- point commands ----------------------------------------------------------


def _cmd_basis(args) -> int:
    _reject_flags(args, ("workers", "seed", "resume"))
    n, m, own = basis_config(load_config(args.config))
    dim = dimension(n, m)
    meta = output_metadata({"n_bosons": n, "n_sites": m, "seed": 0, **own}, 0)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "basis_summary.json",
               {"n_bosons": n, "n_sites": m, "dim": dim}, meta)
    if own["write_states"] and dim <= _STATE_TABLE_LIMIT:
        write_table(out / "basis_states.csv",
                    ["index", *(f"n_{i + 1}" for i in range(m))],
                    ((i, *row) for i, row in enumerate(FockBasis(n, m).states)),
                    meta)
    return 0


def _write_spectrum(out, config, point, own, meta) -> None:
    spec, stats = point.spectral, point.gap_stats
    if own["export_matrix"]:
        hamiltonian.build(spec.basis, spec.params).export_coo(
            out / "hamiltonian_coo.txt", meta)
    spectrum.write_spectrum_csv(out / "spectrum.csv", spec.eigenvalues, meta)
    write_json(out / "gap_statistics.json", {
        "mean_r": stats.mean_r,
        "n_gaps_used": stats.n_gaps_used,
        "edge_fraction_discarded": stats.edge_fraction_discarded,
        "n_degenerate": stats.n_degenerate,
        "chaos_distance": point.record["chaos_distance"],
    }, meta)


def _write_eigenstates(out, config, point, own, meta) -> None:
    prof, record = point.profiles, point.record
    write_eigenstate_csv(out / "eigenstates.csv", point.spectral.eigenvalues,
                         prof, meta)
    write_json(out / "eigenstates_summary.json", {
        "central_window": config.central_window,
        "pr_central_over_goe": record["pr_central_over_goe"],
        "entropy_central_over_page": record["entropy_central_over_page"],
        "imbalance_central": record["imbalance_central"],
        "page_value": prof.page,
        "participation_goe": prof.participation_goe,
    }, meta)


def _write_quench(out, config, point, own, meta) -> None:
    for name in own["observables"]:
        diag = OBSERVABLES[name]
        trace = point.traces[diag]
        initial_states.write_state_manifest(
            out / f"{name}_states.json", point.ensembles[diag], meta)
        dynamics.write_trace_csv(out / f"{name}_trace.csv", trace, meta)
        summary = trace_summary(point, diag)
        if name == "survival":
            summary["hole_depth_over_goe"] = point.record["hole_depth_over_goe"]
            if point.analytic is not None:
                inputs, curve = point.analytic
                write_table(out / "survival_analytic.csv", ["time", "analytic"],
                            zip(trace.time_grid.points, curve), meta)
                summary["analytic_eta"] = inputs.eta
                summary["analytic_mean_dos"] = inputs.mean_dos
        if name == "entropy":
            summary["relaxation_over_page"] = \
                point.record["entropy_relaxation_over_page"]
        write_json(out / f"{name}_summary.json", summary, meta)


_POINT_WRITERS = {
    "spectrum": _write_spectrum,
    "eigenstates": _write_eigenstates,
    "quench": _write_quench,
}


def _cmd_point(args) -> int:
    """Validate, run the point and any analytic curve, and only then write
    the command's files."""
    _reject_flags(args, ("resume",))
    config, own = point_config(load_config(args.config), args.command,
                               _overrides(args))
    (n, m), u, d = config.system_sizes[0], config.u_values[0], config.d_values[0]
    point = run_point(config, n, m, u, d)
    if point.record["status"] == "ok" and own.get("include_analytic") and \
            "survival" in point.traces:
        with record_failures(point.record):
            inputs = dynamics.estimate_curve_inputs(
                dynamics.ensemble_amplitudes(
                    point.ensembles["survival"].indices, point.spectral),
                point.spectral.eigenvalues)
            point.analytic = inputs, dynamics.analytic_survival_curve(
                inputs, point.traces["survival"].time_grid)
    if point.record["status"] != "ok":
        return _report([point.record])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _POINT_WRITERS[args.command](out, config, point, own, config.metadata(own))
    return 0


# -- sweep commands ----------------------------------------------------------


def _cmd_sweep(args, runner) -> int:
    raw = load_config(args.config)
    raw.update(_overrides(args))
    config = SweepConfig.from_dict(raw)
    if args.command == "chaos-map" and set(config.diagnostics) != {"gap_ratio"}:
        raise ConfigError("diagnostics: a chaos map computes only "
                          "gap_ratio; run the other diagnostics with cut")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "config_effective.json", raw)
    config.echo(out)
    return _report(runner(config, out, resume=args.resume))


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
                       help="override the config seed (all but basis)")
        p.add_argument("--resume", action="store_true",
                       help="skip points already journaled (sweeps only)")
    args = parser.parse_args(argv)

    try:
        if args.command == "basis":
            return _cmd_basis(args)
        if args.command == "chaos-map":
            return _cmd_sweep(args, run_chaos_map)
        if args.command == "cut":
            return _cmd_sweep(args, run_cut)
        return _cmd_point(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        print(f"resource limit: {err}", file=sys.stderr)
        return 3


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
