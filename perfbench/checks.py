"""Checks of each workload's output files against reference computations.

Every check returns ``(name, ok, detail)``; each counts as one operation.
Tolerances: recomputed values agree to 1e-9 absolute (a shift of 1e-6 in
any compared value fails), eigenvalues to 1e-12 of the spectral radius,
eigen-residuals to 1e-9 of it.  ``small`` chains skip the windows that
only hold at the benchmark's sizes.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np

import reference as ref
from workloads import ANCHORS

TOL = 1e-9
CHECK_TIMES = 3      # leading grid times evolved by the reference
SAMPLED_COLUMNS = 8  # eigenvectors per cache entry checked for residuals
# mean_r windows at N = M = 7 (measured 0.532 and 0.405)
ANCHOR_WINDOWS = {"chaotic": (0.50, 0.56), "regular": (0.37, 0.44)}

_NUMPY_REPR = re.compile(r"^np\.float64\((.*)\)$")


def number(cell: str) -> float:
    """A CSV cell as a float; accepts the ``np.float64(x)`` spelling too."""
    return float(_NUMPY_REPR.sub(r"\1", cell.strip()))


def read_rows(path) -> list[dict]:
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def read_table(path) -> dict:
    """Numeric CSV as {column: array}."""
    rows = read_rows(path)
    return {key: np.array([number(r[key]) for r in rows]) for key in rows[0]}


def cache_entry(cache_dir, n, m, u, d):
    path = Path(cache_dir) / f"eig_{n}x{m}_u{u:.12g}_d{d:.12g}_vec.npz"
    with np.load(path) as data:
        return data["eigenvalues"], data["eigenvectors"]


def _close(name, got, want, tol=TOL):
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    return name, err <= tol, f"max deviation {err:.3e} (tolerance {tol:.0e})"


def _within(name, values, lo, hi):
    v = np.asarray(values)
    ok = bool(((v >= lo) & (v <= hi)).all())
    return name, ok, f"range [{v.min():.6g}, {v.max():.6g}] against [{lo:.6g}, {hi:.6g}]"


def _all(name, parts):
    """One check from several labelled parts; the detail names those failing."""
    bad = [f"{label}: {detail}" for label, ok, detail in parts if not ok]
    return name, not bad, "; ".join(bad) or f"{len(parts)} parts hold"


# -- shared pieces -----------------------------------------------------------


def eigendata_checks(stem, chain, energies, vectors, full_spectrum: bool):
    """Residual ||HV - VE|| and orthonormality on sampled columns and,
    where affordable, every eigenvalue against the reference build."""
    scale = max(1.0, float(np.abs(energies).max()))
    cols = np.unique(np.linspace(0, chain.dim - 1, SAMPLED_COLUMNS).astype(int))
    v = vectors[:, cols]
    resid = np.linalg.norm(chain.h @ v - v * energies[cols], axis=0).max()
    ortho = np.abs(v.T @ v - np.eye(cols.size)).max()
    out = [(f"{stem}.residual", bool(resid <= TOL * scale and ortho <= TOL),
            f"residual {resid:.3e}, orthogonality {ortho:.3e}")]
    if full_spectrum:
        out.append(_close(f"{stem}.eigenvalues", energies,
                          chain.eigenvalues(), 1e-12 * scale))
    return out


def trace_checks(stem, chain, ensembles: dict, traces: dict):
    """Leading trace values against reference evolution, and ranges."""
    out = []
    ln = math.log(chain.n_bosons + 1)
    union = np.unique(np.concatenate([ensembles[obs] for obs in traces]))
    column = {state: i for i, state in enumerate(union)}
    wanted = {obs: set(table["time"][:CHECK_TIMES]) for obs, table in traces.items()}
    times = sorted(set().union(*wanted.values()))
    want = {obs: {} for obs in traces}
    for t, psi in zip(times, chain.evolve(union, times)):
        for obs, idx in ensembles.items():
            if t in wanted.get(obs, ()):
                cols = [column[state] for state in idx]
                want[obs][t] = chain.observables(idx, psi[:, cols])[obs]
    for obs, table in traces.items():
        out.append(_close(f"{stem}.{obs}_trace", table["raw_mean"][:CHECK_TIMES],
                          [want[obs][t] for t in table["time"][:CHECK_TIMES]]))
    parts = []
    if "survival" in traces:
        t0 = traces["survival"]["time"][0]
        s0 = traces["survival"]["raw_mean"][0]
        # S_P(0) = 1 and S_P(t) >= 1 - var(H) t^2 for each state
        floor = 1.0 - chain.energy_variance(ensembles["survival"]).mean() * t0 ** 2
        parts.append(("survival start", bool(floor - 1e-12 <= s0 <= 1.0 + 1e-12),
                      f"S_P(t0)={s0:.12g}, floor {floor:.12g}"))
        parts.append(_within("survival", traces["survival"]["raw_mean"],
                             0.0, 1.0 + 1e-12))
    for obs, lo, hi in (("entropy", 0.0, ln), ("imbalance", -1.0, 1.0)):
        if obs in traces:
            for col in ("raw_mean", "smoothed_mean"):
                parts.append(_within(f"{obs} {col}", traces[obs][col],
                                     lo - 1e-12, hi + 1e-12))
    out.append(_all(f"{stem}.trace_ranges", parts))
    return out


def profile_check(stem, chain, energies, vectors, table):
    """Eigenstate table against the eigendata: energies, and PR and mean
    site entropy of sampled eigenvectors; every column in range."""
    cols = np.unique(np.linspace(0, chain.dim - 1, SAMPLED_COLUMNS).astype(int))
    probs = vectors[:, cols] ** 2
    ln = math.log(chain.n_bosons + 1)
    sites = [k for k in table if k.startswith("s_site_")]
    parts = [
        _close("energy", table["energy"], energies, 1e-12),
        _close("pr", table["pr"][cols], 1.0 / (probs ** 2).sum(axis=0),
               TOL * chain.dim),
        _close("s_avg", table["s_avg"][cols], chain.site_entropy_mean(probs)),
        _within("pr range", table["pr"], 1.0 - 1e-9, chain.dim + 1e-9),
        _within("entropy range",
                np.concatenate([table[k] for k in sites] + [table["s_avg"]]),
                -1e-12, ln + 1e-12),
        _within("imbalance range", table["imbalance"], -1.0 - 1e-12, 1.0 + 1e-12),
    ]
    return _all(f"{stem}.eigenstate_profile", parts)


def _ensembles(n, m, cfg) -> dict:
    window = dict(seed=cfg["seed"], halfwidth=cfg["window_halfwidth"],
                  cap=cfg["occupation_cap"])
    reference = ref.Chain(n, m, cfg["reference_u"], cfg["reference_d"])
    return {
        "survival": ref.energy_window_states(
            reference, count=cfg["survival_sample_count"], **window),
        "entropy": ref.energy_window_states(
            reference, count=cfg["entropy_sample_count"], **window),
        "imbalance": ref.imbalanced_states(n, m, cfg["occupation_cap"]),
    }


# -- per workload ------------------------------------------------------------


def _results(out_dir):
    return read_rows(Path(out_dir) / "results.csv")


def point_statuses(out_dir) -> tuple[int, int]:
    """(points attempted, points failed) from results.csv."""
    rows = _results(out_dir)
    return len(rows), sum(1 for r in rows if r["status"] != "ok")


def _mean_r_checks(cfg, picks):
    out = []
    for r in picks:
        n, m, u, d = int(r["n_bosons"]), int(r["n_sites"]), float(r["u"]), float(r["d"])
        want = ref.mean_gap_ratio(ref.Chain(n, m, u, d).eigenvalues(),
                                  cfg["edge_discard"])
        out.append(_close(f"u{u:g}_d{d:g}.mean_r", number(r["mean_r"]), want))
    return out


def check_chaos_map(out_dir, cfg, small=False):
    rows = _results(out_dir)
    by_point = {(float(r["u"]), float(r["d"])): r for r in rows}
    anchors = {label: by_point[p] for label, p in ANCHORS.items()}
    out = _mean_r_checks(cfg, anchors.values())
    out.append(_within("points.mean_r_range",
                       [number(r["mean_r"]) for r in rows], 0.0, 1.0))
    if not small:
        for label, (lo, hi) in ANCHOR_WINDOWS.items():
            out.append(_within(f"anchor.{label}.window",
                               [number(anchors[label]["mean_r"])], lo, hi))
    return out


def check_chaos_map_parallel(out_dir, cfg):
    rows = _results(out_dir)
    picks = rows[::max(1, len(rows) // 6)]
    return _mean_r_checks(cfg, picks) + [
        _within("points.mean_r_range", [number(r["mean_r"]) for r in rows], 0.0, 1.0)]


def check_cut(out_dir, cache_dir, cfg):
    out = []
    for r in _results(out_dir):
        n, m, u, d = int(r["n_bosons"]), int(r["n_sites"]), float(r["u"]), float(r["d"])
        stem = f"{n}x{m}_u{u:.6g}_d{d:.6g}"
        chain = ref.Chain(n, m, u, d)
        energies, vectors = cache_entry(cache_dir, n, m, u, d)
        out += eigendata_checks(stem, chain, energies, vectors, full_spectrum=True)
        out.append(profile_check(
            stem, chain, energies, vectors,
            read_table(Path(out_dir) / "eigenstates" / f"{stem}.csv")))
        traces = {obs: read_table(Path(out_dir) / "traces" / f"{obs}_{stem}.csv")
                  for obs in ("survival", "entropy", "imbalance")}
        out += trace_checks(stem, chain, _ensembles(n, m, cfg), traces)
    return out


def check_quench(out_dir, cache_dir, cfg, small=False):
    from tiltedbh import dynamics

    out_dir = Path(out_dir)
    n, m = cfg["n_bosons"], cfg["n_sites"]
    chain = ref.Chain(n, m, cfg["u"], cfg["d"])
    energies, vectors = cache_entry(cache_dir, n, m, cfg["u"], cfg["d"])
    out = eigendata_checks("eigendata", chain, energies, vectors,
                           full_spectrum=small)
    ensembles = _ensembles(n, m, cfg)
    for obs, idx in ensembles.items():
        manifest = json.loads((out_dir / f"{obs}_states.json").read_text())
        ok = manifest["basis_indices"] == idx.tolist()
        out.append((f"{obs}.manifest", ok, f"{len(idx)} reference states"))
    traces = {obs: read_table(out_dir / f"{obs}_trace.csv")
              for obs in ("survival", "entropy", "imbalance")}
    out += trace_checks("quench", chain, ensembles, traces)

    survival = json.loads((out_dir / "survival_summary.json").read_text())
    coeff = vectors[ensembles["survival"]]
    ipr = float((coeff ** 4).sum(axis=1).mean())
    out.append(_all("survival.hole", [
        _close("ipr", survival["ipr"] / ipr, 1.0),
        _close("depth", survival["hole_depth"],
               abs(1.0 / survival["sp_min"] - 1.0 / ipr), TOL * survival["hole_depth"]),
    ]))
    analytic = read_table(out_dir / "survival_analytic.csv")
    inputs = dynamics.estimate_curve_inputs(coeff, energies)
    out.append(_all("survival.analytic_curve", [
        _close("file", analytic["analytic"],
               dynamics.analytic_survival_curve(inputs, analytic["time"])),
        _close("t=0", dynamics.analytic_survival_curve(inputs, np.zeros(1)), 1.0),
    ]))
    entropy = json.loads((out_dir / "entropy_summary.json").read_text())
    relax = traces["entropy"]["smoothed_mean"][-10:].mean()
    ratio = relax / ref.page_value(n, m)
    out.append(_all("entropy.relaxation", [
        _close("relaxation", entropy["relaxation_value"], relax),
        _close("over page", entropy["relaxation_over_page"], ratio)]))
    if not small:
        # windows at the chaotic 8x8 point (measured 0.992 and 0.369)
        out.append(_within("entropy.relaxation_over_page_window",
                           [ratio], 0.9 + 1e-12, 1.0))
        out.append(_within("survival.hole_depth_over_goe_window",
                           [survival["hole_depth"] / (chain.dim / 3.0)], 0.1, 0.6))
    return out
