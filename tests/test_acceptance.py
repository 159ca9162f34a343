"""Acceptance gate: every numbered criterion prints one PASS/FAIL line.

The heavy fixtures run the real sweep orchestrator once per cut (several
6435-dimensional eigensolves each), and all criteria that share a
parameter point read from the same records.  Run with ``pytest -s`` to see
the lines as they pass.
"""

import math

import numpy as np
import pytest

from tiltedbh import (
    AnalyticCurveInputs,
    FockBasis,
    ModelParams,
    QuenchTrace,
    SweepConfig,
    analytic_survival_curve,
    b2_form_factor,
    build,
    correlation_hole_depth,
    diagonalize,
    dimension,
    ensemble_amplitudes,
    ensemble_ipr,
    log_time_grid,
    make_rng,
    maximally_imbalanced_states,
    mean_gap_ratio,
    page_value,
    run_chaos_map,
    run_cut,
    survival_probability,
    survival_trace,
)

from conftest import (
    dense_partial_trace_entropy,
    evolve_amplitudes,
    fock_amplitudes_at,
    goe_matrix,
    goe_spectrum,
    linear_time_grid,
    poisson_spectrum,
    single_site_entropy,
)

SEED = 2024


def _report(number, name, ok, detail=""):
    print(f"ACCEPTANCE {number:02d} [{name}]: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


# The smoothing window (41 points, ~half a decade on the 400-point log grid)
# spans several Bloch periods everywhere inside the hole search window, so
# the hole statistic measures the secular dip rather than coherent
# oscillations of the regular regime; the library default (9) is kept for
# everything else.
SMOOTHING = 41


@pytest.fixture(scope="module")
def tilt_cut(tmp_path_factory):
    """Tilt cut at fixed u = 0.5 for N = M = 7 and 8 (criteria 5, 7, 9)."""
    config = SweepConfig.from_dict({
        "system_sizes": [[7, 7], [8, 8]],
        "u_values": [0.5],
        "d_values": [0.01, 0.8, 1.6, 2.4, 3.2],
        "diagnostics": ["gap_ratio", "pr", "entropy", "imbalance", "survival",
                        "imbalance_dynamics"],
        "seed": SEED,
        "time_points": 400,
        "time_points_observables": 120,
        "smoothing_window": SMOOTHING,
    })
    out = tmp_path_factory.mktemp("tilt_cut")
    records = run_cut(config, out)
    assert all(r["status"] == "ok" for r in records)
    return {(r["n_bosons"], r["d"]): r for r in records}


@pytest.fixture(scope="module")
def interaction_cut(tmp_path_factory):
    """Interaction cut at fixed d = 0.5 for N = M = 7 and 8 (criterion 8).

    The u grid mirrors the coarse figure grids (one regular anchor at
    u = 0.01, then points bracketing u/(N j) = 0.15 from both sides); the
    observable traces end at t = 10^3 where the chaotic points have
    equilibrated, so the relaxation maximum is resolvable at these sizes.
    """
    config = SweepConfig.from_dict({
        "system_sizes": [[7, 7], [8, 8]],
        "u_values": [0.01, 0.8, 1.2, 1.6, 2.4, 4.0, 6.4],
        "d_values": [0.5],
        "diagnostics": ["gap_ratio", "pr", "entropy", "survival",
                        "entropy_dynamics"],
        "seed": SEED,
        "time_points": 400,
        "time_points_observables": 120,
        "time_max_observables": 1000.0,
        "smoothing_window": SMOOTHING,
    })
    out = tmp_path_factory.mktemp("interaction_cut")
    records = run_cut(config, out)
    assert all(r["status"] == "ok" for r in records)
    return records


def test_criterion_01_hilbert_space_dimensions():
    ok = (dimension(8, 8) == 6435 == math.comb(15, 7)
          and dimension(10, 10) == 92378 == math.comb(19, 9))
    _report(1, "hilbert-dimensions", ok,
            f"dim(8,8)={dimension(8, 8)}, dim(10,10)={dimension(10, 10)}")


def test_criterion_02_imbalance_protocol_state_counts():
    counts = {}
    for nm in (7, 8, 9, 10):
        basis = FockBasis(nm, nm)
        counts[nm] = len(maximally_imbalanced_states(
            basis, occupation_cap=3, max_states=None, seed=0))
    ok = counts == {7: 6, 8: 31, 9: 20, 10: 101}
    _report(2, "imbalance-state-counts", ok, str(counts))


def test_criterion_03_gap_ratio_references():
    rng = make_rng(SEED)
    goe = float(np.mean([mean_gap_ratio(goe_spectrum(500, rng)).mean_r
                         for _ in range(50)]))
    poi = float(np.mean([mean_gap_ratio(poisson_spectrum(500, rng)).mean_r
                         for _ in range(50)]))
    ok = 0.525 <= goe <= 0.545 and 0.376 <= poi <= 0.396
    _report(3, "gap-ratio-references", ok,
            f"GOE={goe:.4f} in [0.525,0.545], Poisson={poi:.4f} in [0.376,0.396]")


def test_criterion_04_model_chaos_points(tmp_path):
    config = SweepConfig.from_dict({
        "system_sizes": [[8, 8]], "u_values": [0.5], "d_values": [0.5, 4.0],
        "diagnostics": ["gap_ratio"], "seed": SEED,
    })
    records = {r["d"]: r for r in run_chaos_map(config, tmp_path / "map")}
    chaotic = records[0.5]["mean_r"]
    regular = records[4.0]["mean_r"]
    ok = abs(chaotic - 0.535) <= 0.02 and abs(regular - 0.386) <= 0.02
    _report(4, "model-chaos-points", ok,
            f"<r>(d=0.5)={chaotic:.4f} (|diff|={abs(chaotic - 0.535):.4f}), "
            f"<r>(d=4)={regular:.4f} (|diff|={abs(regular - 0.386):.4f})")


def test_criterion_05_page_value_and_entropy_ceiling(tilt_cut):
    independent = (8 * (1 / 8) * (2.0 * np.log(2.0))
                   + 0.5 * (1 / 8 + np.log(1 - 1 / 8)))
    formula_ok = abs(page_value(8, 8) - independent) < 1e-12
    ratio = tilt_cut[(8, 0.01)]["entropy_central_over_page"]
    ratio_ok = 0.9 < ratio <= 1.0
    _report(5, "page-value", formula_ok and ratio_ok,
            f"page(8,8)={page_value(8, 8):.12f}, "
            f"central S/page at d=0.01: {ratio:.4f} in (0.9, 1.0]")


def test_criterion_06_goe_correlation_hole_law():
    dim = 500
    rng = make_rng(7)
    evals, vecs = np.linalg.eigh(goe_matrix(dim, rng))
    states = rng.standard_normal((50, dim))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    coeff = states @ vecs
    grid = log_time_grid(0.1, 1e4, 400)
    trace = survival_trace(coeff, evals, grid)
    # search below the Heisenberg time of this matrix (semicircle density)
    radius = 0.5 * (evals[-1] - evals[0])
    heisenberg = 2.0 * np.pi * (2.0 * dim / (np.pi * radius))
    hole = correlation_hole_depth(trace, ensemble_ipr(coeff), (1.0, heisenberg))
    ratio = hole.hole_depth / (dim / 3.0)
    ok = 0.35 <= ratio <= 0.65
    _report(6, "goe-hole-law", ok,
            f"depth/(dim/3)={ratio:.4f} in [0.35, 0.65] "
            f"(sp_min={hole.sp_min:.5f}, ipr={hole.ipr:.5f})")


def test_criterion_07_hole_collapse_along_tilt_cut(tilt_cut):
    details = []
    ok = True
    for n in (7, 8):
        depth = {d: tilt_cut[(n, d)]["hole_depth_over_goe"]
                 for d in (0.01, 0.8, 1.6, 2.4, 3.2)}
        chaotic_ok = all(0.1 <= depth[d] <= 0.6 for d in (0.01, 0.8))
        regular_ok = all(depth[d] < 0.05 for d in (2.4, 3.2))
        # the drop is under way by d = 1.6
        drop_ok = depth[1.6] <= 0.5 * max(depth[0.01], depth[0.8])
        ok = ok and chaotic_ok and regular_ok and drop_ok
        details.append(
            f"N={n}: " + " ".join(f"{d}:{v:.3f}" for d, v in depth.items()))
    _report(7, "tilt-cut-hole-collapse", ok, "; ".join(details))


def test_criterion_08_interaction_cut_maxima(interaction_cut):
    details = []
    ok = True
    for n in (7, 8):
        rows = sorted((r for r in interaction_cut if r["n_bosons"] == n),
                      key=lambda r: r["u"])
        x = np.array([r["u_over_nj"] for r in rows])
        relax = np.array([r["entropy_relaxation_over_page"] for r in rows])
        static = np.array([r["entropy_central_over_page"] for r in rows])
        hole = np.array([r["hole_depth_over_goe"] for r in rows])
        relax_peak = x[int(np.argmax(relax))]
        static_peak = x[int(np.argmax(static))]
        hole_peak = x[int(np.argmax(hole))]
        this_ok = (0.08 <= relax_peak <= 0.25
                   and 0.08 <= hole_peak <= 0.25
                   and 0.08 <= static_peak <= 0.25)
        ok = ok and this_ok
        details.append(f"N={n}: entropy relax peak at u/(Nj)={relax_peak:.3f}, "
                       f"eigenstate entropy peak at {static_peak:.3f}, "
                       f"hole peak at {hole_peak:.3f}")
    _report(8, "interaction-cut-maxima", ok, "; ".join(details))


def test_criterion_09_imbalance_relaxation_extremes(tilt_cut):
    shallow = tilt_cut[(8, 0.01)]["imbalance_relaxation"]
    steep = tilt_cut[(8, 3.2)]["imbalance_relaxation"]
    ok = -0.1 <= shallow <= 0.1 and -1.0 <= steep <= -0.8
    _report(9, "imbalance-relaxation", ok,
            f"relax(d=0.01)={shallow:.4f} in [-0.1, 0.1], "
            f"relax(d=3.2)={steep:.4f} in [-1.0, -0.8]")


def test_criterion_10_property_suites(rng):
    checks = {}

    # rank/unrank bijectivity
    basis = FockBasis(6, 6)
    checks["bijectivity"] = all(
        basis.rank(basis.unrank(i)) == i for i in range(basis.dim))

    # hermiticity and the analytic single-boson spectrum
    h = build(FockBasis(4, 4), ModelParams(u=0.5, d=0.5))
    dense = h.to_dense()
    checks["hermiticity"] = np.array_equal(dense, dense.T)
    chain = build(FockBasis(1, 8), ModelParams(u=0.0, d=0.0))
    evals = diagonalize(chain, compute_vectors=False).eigenvalues
    cosine = np.sort(-2.0 * np.cos(np.arange(1, 9) * np.pi / 9.0))
    checks["free-spectrum"] = np.abs(evals - cosine).max() < 1e-10

    # norm and energy conservation during evolution
    spec = diagonalize(h)
    ens = maximally_imbalanced_states(spec.basis, occupation_cap=3,
                                      max_states=None, seed=0)
    coeff = ensemble_amplitudes(ens.indices, spec)
    norm_ok, energy_ok = True, True
    e_ref = None
    for t in (0.0, 1.3, 47.0):
        psi = fock_amplitudes_at(coeff, spec, t)
        norm_ok &= bool(np.abs(np.linalg.norm(psi, axis=1) - 1).max() < 1e-10)
        energy = np.einsum("ij,ij->i", psi.conj(), (dense @ psi.T).T).real
        if e_ref is None:
            e_ref = energy
        else:
            energy_ok &= bool(
                np.abs(energy - e_ref).max() / np.abs(e_ref).max() < 1e-8)
    checks["norm-conservation"] = norm_ok
    checks["energy-conservation"] = energy_ok

    # entropy shortcut against the dense partial-trace oracle on (4, 4)
    vec = rng.standard_normal(spec.basis.dim)
    vec /= np.linalg.norm(vec)
    checks["entropy-oracle"] = all(
        abs(single_site_entropy(vec, spec.basis, site)
            - dense_partial_trace_entropy(vec, spec.basis.states, site, 4))
        < 1e-10
        for site in range(4))

    # S_P(0) = 1 and the long-time average equals the IPR
    c = evolve_amplitudes([1, 1, 1, 1], spec)
    grid = log_time_grid(0.1, 1e5, 600)
    sp = survival_probability(c, spec.eigenvalues, grid.points)
    checks["sp-at-zero"] = abs(
        survival_probability(c, spec.eigenvalues, np.array([0.0]))[0] - 1.0
    ) < 1e-12
    tail = sp[grid.points >= 1e4]
    ipr = ensemble_ipr(c[None, :])
    checks["long-time-ipr"] = abs(tail.mean() - ipr) \
        < 3 * tail.std() / np.sqrt(tail.size)

    # b2 continuity at tau = 1
    checks["b2-continuity"] = abs(
        b2_form_factor(1.0 - 1e-9) - b2_form_factor(1.0 + 1e-9)) < 1e-9

    # analytic-curve limits
    grid_e = np.linspace(-5.0, 5.0, 2001)
    inputs = AnalyticCurveInputs(grid_e, np.exp(-0.5 * grid_e ** 2),
                                 mean_dos=20.0, eta=25.0, ipr=0.03)
    curve = analytic_survival_curve(inputs, np.array([0.0, 1e8]))
    checks["curve-limits"] = (abs(curve[0] - 1.0) < 1e-12
                              and abs(curve[1] - inputs.ipr) < 1e-4)

    failed = [name for name, good in checks.items() if not good]
    _report(10, "property-suites", not failed,
            "all checks green" if not failed else f"failed: {failed}")
