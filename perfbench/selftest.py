"""Self-test of the benchmark's own checks: ``python3 perfbench/selftest.py``.

1. The brute-force Hamiltonian matches ``hamiltonian.build`` on small chains.
2. Each workload runs once on a small chain (through the same child process
   as the benchmark) and every check passes on its outputs.
3. Each check fails when one output value is perturbed, mostly by 1e-6, in
   a copy of those outputs; window checks pass inside their window and
   fail outside it.

Exits 0 when every case holds.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402

SEED = 2024
WORK = run.WORK / "selftest"
failures = []


def expect(label: str, ok: bool, detail: str = "") -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {label}{': ' + detail if detail and not ok else ''}")
    if not ok:
        failures.append(label)


def edit_csv(path, row: int, column: str, fn) -> None:
    """Replace one cell of a CSV output by ``fn(old value)``."""
    lines = Path(path).read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    header = lines[first].split(",")
    cells = lines[first + 1 + row].split(",")
    col = header.index(column)
    cells[col] = repr(float(fn(checks.number(cells[col]))))
    lines[first + 1 + row] = ",".join(cells)
    Path(path).write_text("\n".join(lines) + "\n")


def edit_json(path, key: str, fn) -> None:
    data = json.loads(Path(path).read_text())
    data[key] = fn(data[key])
    Path(path).write_text(json.dumps(data))


def edit_npz(path, key: str, index, delta: float) -> None:
    with np.load(path) as data:
        arrays = dict(data)
    arrays[key][index] += delta
    np.savez(path, **arrays)


def check_builds() -> None:
    import tiltedbh

    for n, m, u, d in ((4, 4, 0.5, 0.5), (3, 5, 1.0, 2.0), (5, 3, 0.2, 0.0)):
        chain = ref.Chain(n, m, u, d)
        h = tiltedbh.build(tiltedbh.FockBasis(n, m), tiltedbh.ModelParams(u=u, d=d))
        dense = h.to_dense()
        scale = max(1.0, np.abs(dense).max())
        expect(f"brute-force H {n}x{m} u={u} d={d} equals hamiltonian.build",
               np.abs(chain.h.toarray() - dense).max() <= 1e-13 * scale)
        gap = np.abs(chain.eigenvalues() - np.linalg.eigvalsh(dense)).max()
        expect(f"brute-force eigenvalues {n}x{m} agree to 1e-12",
               gap <= 1e-12 * scale, f"{gap:.3e}")


def outputs(name: str):
    """Run one small round of ``name``; returns its spec and config."""
    eigendata = None
    if name == "quench_8x8_warm":
        eigendata = WORK / "eigendata"
        run.fill_eigendata(SEED, eigendata, small=True)
    spec, cfg = run.prepare(name, SEED, WORK / name, eigendata, small=True)
    result = run.launch(spec)
    attempted, failed = run.operations(spec, result)
    expect(f"{name}: {attempted} operations, none failed", failed == 0)
    return spec, cfg


def perturbed(name, spec, cfg, edit, small=True) -> dict:
    """Checks on a copy of the outputs after ``edit(out_dir, cache_dir)``."""
    copy = WORK / f"{name}-copy"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(spec["out"], copy / "out")
    cache = spec["cache"]
    if cache:
        shutil.copytree(cache, copy / "cache")
        cache = str(copy / "cache")
    edit(copy / "out", Path(cache) if cache else None)
    spec = dict(spec, out=str(copy / "out"), cache=cache)
    return {c: (ok, d) for c, ok, d in run.run_checks(spec, cfg, small)}


def expect_status(name, label, results, check, want_ok) -> None:
    ok, detail = results.get(check, (None, "check missing"))
    expect(f"{name}: {label} -> {check} {'passes' if want_ok else 'fails'}",
           ok is not None and bool(ok) == want_ok, detail)


def test_workload(name, cases, windows=()) -> None:
    spec, cfg = outputs(name)
    found = run.run_checks(spec, cfg, small=True)
    bad = [c for c, ok, _ in found if not ok]
    expect(f"{name}: all {len(found)} checks pass on unperturbed outputs",
           not bad, ", ".join(bad))
    for label, edit, check in cases:
        expect_status(name, label, perturbed(name, spec, cfg, edit), check, False)
    for label, edit, check, want_ok in windows:
        results = perturbed(name, spec, cfg, edit, small=False)
        expect_status(name, label, results, check, want_ok)


def shift(delta):
    return lambda v: v + delta


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        check_builds()

        def mean_r(u, d, value_fn):
            def edit(out, cache):
                rows = checks.read_rows(out / "results.csv")
                row = next(i for i, r in enumerate(rows)
                           if float(r["u"]) == u and float(r["d"]) == d)
                edit_csv(out / "results.csv", row, "mean_r", value_fn)
            return edit

        def anchors(chaotic, regular):
            def edit(out, cache):
                mean_r(0.5, 0.5, lambda v: chaotic)(out, cache)
                mean_r(0.5, 4.0, lambda v: regular)(out, cache)
            return edit

        test_workload("chaos_map", [
            ("anchor mean_r +1e-6", mean_r(0.5, 0.5, shift(1e-6)), "u0.5_d0.5.mean_r"),
            ("a mean_r set to 1.5", mean_r(2.0, 4.0, lambda v: 1.5),
             "points.mean_r_range"),
        ], windows=[
            ("anchors at 0.53 / 0.40", anchors(0.53, 0.40), "anchor.chaotic.window", True),
            ("anchors at 0.53 / 0.40", anchors(0.53, 0.40), "anchor.regular.window", True),
            ("chaotic anchor at 0.45", anchors(0.45, 0.40), "anchor.chaotic.window", False),
            ("regular anchor at 0.48", anchors(0.53, 0.48), "anchor.regular.window", False),
        ])
        test_workload("chaos_map_parallel", [
            ("sampled mean_r +1e-6", mean_r(0.5, 0.5, shift(1e-6)), "u0.5_d0.5.mean_r"),
        ])

        stem = "4x4_u0.5_d0.4"
        entry = "eig_4x4_u0.5_d0.4_vec.npz"
        ln5 = math.log(5)
        test_workload("cut_7x7", [
            ("eigenvalue +1e-6", lambda o, c: edit_npz(c / entry, "eigenvalues", 3, 1e-6),
             f"{stem}.eigenvalues"),
            ("eigenvector entry +1e-6",
             lambda o, c: edit_npz(c / entry, "eigenvectors", (5, 0), 1e-6),
             f"{stem}.residual"),
            ("eigenstate PR +1e-6",
             lambda o, c: edit_csv(o / "eigenstates" / f"{stem}.csv", 0, "pr", shift(1e-6)),
             f"{stem}.eigenstate_profile"),
            ("eigenstate entropy above ln(N+1)",
             lambda o, c: edit_csv(o / "eigenstates" / f"{stem}.csv", 9, "s_site_2",
                                   lambda v: ln5 + 1e-6),
             f"{stem}.eigenstate_profile"),
        ] + [
            (f"{obs} trace +1e-6",
             lambda o, c, obs=obs: edit_csv(o / "traces" / f"{obs}_{stem}.csv", 1,
                                            "raw_mean", shift(1e-6)),
             f"{stem}.{obs}_trace")
            for obs in ("survival", "entropy", "imbalance")
        ] + [
            ("survival start above 1",
             lambda o, c: edit_csv(o / "traces" / f"survival_{stem}.csv", 0,
                                   "raw_mean", lambda v: 1.0 + 1e-6),
             f"{stem}.trace_ranges"),
            ("smoothed entropy above ln(N+1)",
             lambda o, c: edit_csv(o / "traces" / f"entropy_{stem}.csv", 150,
                                   "smoothed_mean", lambda v: ln5 + 1e-6),
             f"{stem}.trace_ranges"),
            ("imbalance below -1",
             lambda o, c: edit_csv(o / "traces" / f"imbalance_{stem}.csv", 100,
                                   "raw_mean", lambda v: -1.0 - 1e-6),
             f"{stem}.trace_ranges"),
        ])

        quench_entry = "eig_5x5_u0.5_d0.5_vec.npz"
        page = ref.page_value(5, 5)

        def entropy_tail(value):
            def edit(out, cache):
                rows = len(checks.read_rows(out / "entropy_trace.csv"))
                for row in range(rows - 10, rows):
                    edit_csv(out / "entropy_trace.csv", row, "smoothed_mean",
                             lambda v: value)
            return edit

        def hole_depth(ratio):
            return lambda o, c: edit_json(o / "survival_summary.json", "hole_depth",
                                          lambda v: ratio * 126 / 3.0)

        test_workload("quench_8x8_warm", [
            ("eigenvalue +1e-6",
             lambda o, c: edit_npz(c / quench_entry, "eigenvalues", 7, 1e-6),
             "eigendata.eigenvalues"),
            ("eigenvector entry +1e-6",
             lambda o, c: edit_npz(c / quench_entry, "eigenvectors", (3, 0), 1e-6),
             "eigendata.residual"),
            ("manifest state swapped",
             lambda o, c: edit_json(o / "survival_states.json", "basis_indices",
                                    lambda v: [v[0] + 1] + v[1:]),
             "survival.manifest"),
        ] + [
            (f"{obs} trace +1e-6",
             lambda o, c, obs=obs: edit_csv(o / f"{obs}_trace.csv", 2, "raw_mean",
                                            shift(1e-6)),
             f"quench.{obs}_trace")
            for obs in ("survival", "entropy", "imbalance")
        ] + [
            ("imbalance above 1",
             lambda o, c: edit_csv(o / "imbalance_trace.csv", 20, "smoothed_mean",
                                   lambda v: 1.0 + 1e-6),
             "quench.trace_ranges"),
            ("ipr scaled by 1 + 1e-6",
             lambda o, c: edit_json(o / "survival_summary.json", "ipr",
                                    lambda v: v * (1 + 1e-6)),
             "survival.hole"),
            ("analytic curve +1e-6",
             lambda o, c: edit_csv(o / "survival_analytic.csv", 0, "analytic",
                                   shift(1e-6)),
             "survival.analytic_curve"),
            ("entropy relaxation +1e-6",
             lambda o, c: edit_json(o / "entropy_summary.json", "relaxation_value",
                                    shift(1e-6)),
             "entropy.relaxation"),
        ], windows=[
            ("entropy tail at 0.95 Page", entropy_tail(0.95 * page),
             "entropy.relaxation_over_page_window", True),
            ("entropy tail at 1.02 Page", entropy_tail(1.02 * page),
             "entropy.relaxation_over_page_window", False),
            ("hole depth at 0.37 dim/3", hole_depth(0.37),
             "survival.hole_depth_over_goe_window", True),
            ("hole depth at 0.7 dim/3", hole_depth(0.7),
             "survival.hole_depth_over_goe_window", False),
        ])
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"{'all cases hold' if not failures else f'{len(failures)} cases failed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
