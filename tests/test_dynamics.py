import tracemalloc

import numpy as np
import pytest

from tiltedbh import (
    AnalyticCurveInputs,
    FockBasis,
    ModelParams,
    QuenchTrace,
    SpectralData,
    analytic_survival_curve,
    b2_form_factor,
    build,
    correlation_hole_depth,
    diagonalize,
    ensemble_amplitudes,
    ensemble_ipr,
    estimate_curve_inputs,
    log_time_grid,
    make_rng,
    maximally_imbalanced_states,
    moving_average,
    observable_trace,
    survival_probability,
    survival_trace,
)
from tiltedbh import dynamics
from tiltedbh.diagnostics import EmptyWindowError, imbalance_diagonal
from tiltedbh.dynamics import (
    TimeGrid,
    ldos_fourier_survival,
    write_trace_csv,
)
from tiltedbh.spectrum import MissingEigenvectorsError

from conftest import (
    analytic_curve_reference,
    curve_inputs_reference,
    evolve_amplitudes,
    fock_amplitudes_at,
    goe_matrix,
    linear_time_grid,
    poisson_spectrum,
    single_site_entropy,
    survival_probability_reference,
)


@pytest.fixture(scope="module")
def chaotic_44():
    basis = FockBasis(4, 4)
    h = build(basis, ModelParams(u=0.5, d=0.5))
    return h, diagonalize(h)


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(np.array([1.0, 1.0, 2.0]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([-1.0, 2.0]))
    with pytest.raises(ValueError):
        log_time_grid(0.0, 10.0, 5)
    grid = log_time_grid(0.1, 1e4, 400)
    assert len(grid) == 400


def test_evolve_amplitudes_normalization(chaotic_44):
    _, spec = chaotic_44
    basis = spec.basis
    for k in (0, 7, basis.dim - 1):
        c = evolve_amplitudes(basis.states[k], spec)
        assert abs((c ** 2).sum() - 1.0) < 1e-10


def test_evolve_amplitudes_eigenstate_is_one_hot():
    # synthetic spectral data whose eigenvectors are the identity: every
    # Fock state is an eigenstate, so exactly one coefficient has modulus 1
    basis = FockBasis(2, 2)
    spec = SpectralData(basis, ModelParams(u=0.0, d=0.0),
                        np.array([0.0, 1.0, 2.0]), np.eye(3))
    c = evolve_amplitudes([1, 1], spec)
    assert sorted(np.abs(c).tolist()) == pytest.approx([0.0, 0.0, 1.0])


def test_evolve_requires_vectors():
    basis = FockBasis(2, 2)
    spec = SpectralData(basis, ModelParams(u=0.0, d=0.0),
                        np.array([0.0, 1.0, 2.0]), None)
    with pytest.raises(MissingEigenvectorsError):
        evolve_amplitudes([2, 0], spec)
    with pytest.raises(MissingEigenvectorsError):
        ensemble_amplitudes([0], spec)


def test_single_boson_two_sites_splits_evenly():
    basis = FockBasis(1, 2)
    spec = diagonalize(build(basis, ModelParams(u=0.0, d=0.0)))
    c = evolve_amplitudes([1, 0], spec)
    assert np.allclose(c ** 2, [0.5, 0.5])


def test_survival_probability_examples():
    # S_P(0) = 1 for any state
    rng = make_rng(0)
    c = rng.standard_normal(40)
    c /= np.linalg.norm(c)
    evals = np.sort(rng.standard_normal(40))
    times = np.array([0.0, 0.5, 2.0])
    sp = survival_probability(c, evals, times)
    assert sp[0] == pytest.approx(1.0, abs=1e-12)
    assert ((sp > 0) & (sp <= 1 + 1e-12)).all()

    # eigenstate initial condition stays put
    hot = np.zeros(40)
    hot[13] = 1.0
    assert np.allclose(survival_probability(hot, evals, times), 1.0)

    # two-level case: cos^2(gap t / 2)
    half = np.array([np.sqrt(0.5), np.sqrt(0.5)])
    gap = 1.7
    t = np.linspace(0.0, 10.0, 50)
    sp = survival_probability(half, np.array([0.0, gap]), t)
    assert np.allclose(sp, np.cos(gap * t / 2.0) ** 2, atol=1e-12)


def test_moving_average_examples():
    assert np.allclose(moving_average([0.0, 3.0, 0.0], 3), [1.5, 1.0, 1.5])
    series = np.arange(10.0)
    assert np.array_equal(moving_average(series, 1), series)
    assert np.allclose(moving_average(np.full(7, 4.2), 5), 4.2)
    with pytest.raises(ValueError):
        moving_average(series, 2)
    with pytest.raises(ValueError):
        moving_average(series, 0)


def test_moving_average_keeps_length_of_series_shorter_than_window():
    assert moving_average(np.zeros(5), 9).shape == (5,)
    # each window is cut at the ends of the series, never padded
    assert np.allclose(moving_average(np.arange(7.0), 9),
                       [2.0, 2.5, 3.0, 3.0, 3.0, 3.5, 4.0])


def test_trace_on_grid_shorter_than_window_relaxes_to_its_own_points(
        chaotic_44, tmp_path):
    _, spec = chaotic_44
    grid = log_time_grid(0.1, 100.0, 5)
    trace = observable_trace([0, 5, 17], spec, grid, "imbalance", 9)
    assert trace.smoothed_mean.shape == (5,)
    assert trace.relaxation_value == pytest.approx(trace.smoothed_mean.mean(),
                                                   rel=1e-12)
    write_trace_csv(tmp_path / "t.csv", trace)
    assert len((tmp_path / "t.csv").read_text().splitlines()) == 6


def test_quench_trace_relaxation_is_tail_mean_of_smoothed():
    grid = linear_time_grid(0.0, 1.0, 30)
    values = np.linspace(0.0, 1.0, 30)[None, :]
    trace = QuenchTrace.from_values(grid, values, "test", smoothing_window=1)
    assert trace.relaxation_value == pytest.approx(values[0, -10:].mean())
    assert np.array_equal(trace.ensemble_mean, values[0])


def test_observable_traces_start_exactly_at_initial_values(chaotic_44):
    _, spec = chaotic_44
    basis = spec.basis
    ens = maximally_imbalanced_states(basis, occupation_cap=3,
                                      max_states=None, seed=0)
    grid = linear_time_grid(0.0, 2.0, 12)
    imb = observable_trace(ens.indices, spec, grid, "imbalance")
    assert np.allclose(imb.values[:, 0], -1.0, atol=1e-12)
    ent = observable_trace(ens.indices, spec, grid, "entropy")
    assert np.abs(ent.values[:, 0]).max() < 1e-12
    with pytest.raises(ValueError):
        observable_trace(ens.indices, spec, grid, "magnetization")


def _per_time_oracle(indices, spec, times, observable):
    """Trace values from the Fock amplitudes at one grid time after another;
    entropies from the per-site occupation counts of each evolved state."""
    basis = spec.basis
    coeff = ensemble_amplitudes(indices, spec)
    values = np.empty((coeff.shape[0], times.size))
    for ti, t in enumerate(times):
        psi = fock_amplitudes_at(coeff, spec, t)
        if observable == "imbalance":
            values[:, ti] = np.abs(psi) ** 2 @ imbalance_diagonal(basis)
        else:
            values[:, ti] = [
                np.mean([single_site_entropy(row, basis, site)
                         for site in range(basis.n_sites)])
                for row in psi]
    return values


@pytest.fixture(scope="module", params=[(4, 4), (5, 5)], ids=["4x4", "5x5"])
def small_chain(request):
    n, m = request.param
    return diagonalize(build(FockBasis(n, m), ModelParams(u=0.5, d=0.5)))


@pytest.mark.parametrize("observable", ["entropy", "imbalance"])
@pytest.mark.parametrize("n_states", [1, 6])
@pytest.mark.parametrize("block", [None, 4, 1], ids=["one-block", "4", "1"])
def test_observable_trace_matches_per_time_oracle(small_chain, observable,
                                                  n_states, block,
                                                  monkeypatch):
    # 11 grid times: a single block under the default buffer budget, blocks
    # of 4, 4 and 3 times, or one time per block
    spec = small_chain
    if block is not None:
        monkeypatch.setattr(dynamics, "_TRACE_BUFFER_BYTES",
                            block * 2 * n_states * spec.dim * 8)
    indices = np.linspace(0, spec.dim - 1, n_states).astype(int)
    grid = log_time_grid(0.05, 500.0, 11)
    trace = observable_trace(indices, spec, grid, observable)
    oracle = _per_time_oracle(indices, spec, grid.points, observable)
    assert trace.values.shape == (n_states, 11)
    assert np.abs(trace.values - oracle).max() < 1e-12


def test_norm_and_energy_conserved_under_evolution(chaotic_44):
    h, spec = chaotic_44
    basis = spec.basis
    ens = maximally_imbalanced_states(basis, occupation_cap=3,
                                      max_states=None, seed=0)
    coeff = ensemble_amplitudes(ens.indices, spec)
    dense = h.to_dense()
    e0 = None
    for t in (0.0, 0.37, 5.1, 211.0):
        psi = fock_amplitudes_at(coeff, spec, t)
        norms = np.linalg.norm(psi, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-10
        energy = np.einsum("ij,ij->i", psi.conj(), (dense @ psi.T).T).real
        if e0 is None:
            e0 = energy
        else:
            assert np.abs(energy - e0).max() / np.abs(e0).max() < 1e-8


def test_long_time_average_equals_ipr(chaotic_44):
    _, spec = chaotic_44
    basis = spec.basis
    vec = np.zeros(basis.dim)
    vec[basis.rank([1, 1, 1, 1])] = 1.0
    c = evolve_amplitudes([1, 1, 1, 1], spec)
    ipr = ensemble_ipr(c[None, :])
    grid = log_time_grid(0.1, 1e5, 600)
    sp = survival_probability(c, spec.eigenvalues, grid.points)
    final_decade = grid.points >= 1e4
    samples = sp[final_decade]
    stderr = samples.std() / np.sqrt(samples.size)
    assert abs(samples.mean() - ipr) < 3 * stderr


def test_hole_depth_zero_without_a_dip():
    grid = log_time_grid(1.0, 1e4, 200)
    ipr = 0.01
    flat = np.full((1, 200), ipr)
    trace = QuenchTrace.from_values(grid, flat, "survival")
    hole = correlation_hole_depth(trace, ipr)
    assert hole.hole_depth == pytest.approx(0.0, abs=1e-9)
    assert hole.sp_min == pytest.approx(ipr)
    with pytest.raises(EmptyWindowError):
        correlation_hole_depth(trace, ipr, search_window=(1e6, 1e7))


def test_goe_hole_depth_near_half_goe_dimension():
    # plateau 3/D, hole floor about 2/D, so |1/sp_min - PR| is about D/6
    dim = 300
    rng = make_rng(7)
    evals, vecs = np.linalg.eigh(goe_matrix(dim, rng))
    states = rng.standard_normal((50, dim))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    coeff = states @ vecs
    grid = log_time_grid(0.1, 1e4, 400)
    trace = survival_trace(coeff, evals, grid)
    radius = 0.5 * (evals[-1] - evals[0])
    heisenberg = 2.0 * np.pi * (2.0 * dim / (np.pi * radius))
    hole = correlation_hole_depth(trace, ensemble_ipr(coeff),
                                  (1.0, heisenberg))
    ratio = hole.hole_depth / (dim / 3.0)
    assert 0.3 < ratio < 0.7


def test_poisson_spectra_show_no_hole():
    # fresh spectrum per state: the ensemble-averaged trace has no dip
    dim = 300
    rng = make_rng(8)
    grid = log_time_grid(0.1, 1e4, 400)
    values = np.empty((150, len(grid)))
    iprs = np.empty(150)
    for r in range(150):
        evals = poisson_spectrum(dim, rng)
        v = rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        values[r] = survival_probability(v, evals, grid.points)
        iprs[r] = (v ** 4).sum()
    trace = QuenchTrace.from_values(grid, values, "survival")
    hole = correlation_hole_depth(trace, iprs.mean(), (1.0, 2.0 * np.pi))
    assert hole.hole_depth / (dim / 3.0) < 0.1


def test_analytic_curve_limits():
    grid_e = np.linspace(-6.0, 6.0, 4001)
    rho = np.exp(-0.5 * grid_e ** 2)
    inputs = AnalyticCurveInputs(grid_e, rho, mean_dos=25.0, eta=40.0, ipr=0.02)
    times = np.array([0.0, 1e7])
    curve = analytic_survival_curve(inputs, times)
    assert curve[0] == pytest.approx(1.0, abs=1e-12)
    assert curve[1] == pytest.approx(inputs.ipr, rel=1e-3)


def test_ldos_fourier_matches_gaussian_transform():
    sigma = 0.7
    grid_e = np.linspace(-8.0 * sigma, 8.0 * sigma, 4001)
    rho = np.exp(-0.5 * (grid_e / sigma) ** 2)
    inputs = AnalyticCurveInputs(grid_e, rho, mean_dos=10.0, eta=30.0, ipr=0.05)
    t = np.linspace(0.0, 5.0 / sigma, 60)
    got = ldos_fourier_survival(inputs, t)
    assert np.abs(got - np.exp(-sigma ** 2 * t ** 2)).max() < 1e-6


def test_analytic_inputs_validation():
    grid_e = np.linspace(0.0, 1.0, 10)
    rho = np.ones(10)
    with pytest.raises(ValueError):
        AnalyticCurveInputs(grid_e, rho, mean_dos=-1.0, eta=10.0, ipr=0.1)
    with pytest.raises(ValueError):
        AnalyticCurveInputs(grid_e, rho, mean_dos=1.0, eta=0.5, ipr=0.1)
    with pytest.raises(ValueError):
        AnalyticCurveInputs(grid_e, rho, mean_dos=1.0, eta=10.0, ipr=0.0)


def test_estimate_inputs_flat_box_recovers_eta_and_mean_dos():
    # n consecutive levels with unit mean spacing carrying flat weights:
    # mean density 1 and effective level count close to n
    n = 1000
    rng = make_rng(3)
    evals = np.arange(n) + 0.1 * rng.standard_normal(n)
    evals = np.sort(evals)
    coeff = np.full((1, n), 1.0 / np.sqrt(n))
    inputs = estimate_curve_inputs(coeff, evals)
    assert inputs.mean_dos == pytest.approx(1.0, rel=0.15)
    assert inputs.eta == pytest.approx(n, rel=0.2)
    assert inputs.ipr == pytest.approx(1.0 / n, rel=1e-10)


def test_single_dominant_level_gives_flat_curve():
    n = 200
    c = np.zeros(n)
    c[57] = 1.0
    evals = np.linspace(0.0, 10.0, n)
    inputs = estimate_curve_inputs(c[None, :], evals)
    assert inputs.ipr == pytest.approx(1.0)
    curve = analytic_survival_curve(inputs, np.array([3.0, 30.0, 300.0]))
    assert np.abs(curve - inputs.ipr).max() < 1e-9


def test_analytic_curve_tracks_numerics_in_chaotic_model():
    # the prediction should reproduce plateau and hole scale of the data
    basis = FockBasis(5, 5)
    spec = diagonalize(build(basis, ModelParams(u=0.5, d=0.5)))
    rng = make_rng(21)
    capped = np.nonzero((basis.states <= 3).all(axis=1))[0]
    pick = np.sort(rng.choice(capped, size=60, replace=False))
    coeff = ensemble_amplitudes(pick, spec)
    grid = log_time_grid(0.1, 1e4, 300)
    trace = survival_trace(coeff, spec.eigenvalues, grid)
    inputs = estimate_curve_inputs(coeff, spec.eigenvalues)
    curve = analytic_survival_curve(inputs, grid)
    assert curve[0] <= 1.0 + 1e-9
    # plateau agreement
    assert curve[-1] == pytest.approx(inputs.ipr, rel=1e-2)
    assert trace.smoothed_mean[-20:].mean() == pytest.approx(
        inputs.ipr, rel=0.25)
    # both dip below the plateau inside the hole region
    window = (grid.points > 5) & (grid.points < 1e3)
    assert curve[window].min() < 0.95 * inputs.ipr
    numeric_min = trace.smoothed_mean[window].min()
    analytic_min = curve[window].min()
    assert 0.4 < numeric_min / analytic_min < 2.5


def test_b2_is_used_inside_curve():
    # with eta = 2 and spbc suppressed the curve reduces to
    # (1 - ipr) (2 spbc - b2) + ipr; probe the b2 term at large times
    grid_e = np.linspace(-1.0, 1.0, 2001)
    rho = np.ones_like(grid_e)
    ipr, nu = 0.25, 100.0
    inputs = AnalyticCurveInputs(grid_e, rho, mean_dos=nu, eta=2.0, ipr=ipr)
    t = np.array([200.0])
    curve = analytic_survival_curve(inputs, t)
    spbc = ldos_fourier_survival(inputs, t)
    expected = (1 - ipr) * (2 * spbc - b2_form_factor(t / (2 * np.pi * nu))) + ipr
    assert curve[0] == pytest.approx(float(expected[0]), abs=1e-12)


def test_write_trace_csv(tmp_path):
    grid = linear_time_grid(0.0, 1.0, 5)
    values = np.array([[1.0, 0.9, 0.7, 0.1, 0.3], [1.0, 0.8, 0.5, 0.2, 0.3]])
    trace = QuenchTrace.from_values(grid, values, "survival", 3)
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace, {"config_hash": "y"})
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_hash=y"
    assert lines[1] == "time,raw_mean,smoothed_mean"
    assert len(lines) == 7
    assert lines[2].startswith("0.0,1.0,")
    assert "np." not in path.read_text()
    rows = [[float(cell) for cell in line.split(",")] for line in lines[2:]]
    expected = np.column_stack(
        [grid.points, trace.ensemble_mean, trace.smoothed_mean])
    assert np.array_equal(np.array(rows), expected)


# -- in-place evaluation: bit identity and memory bounds ---------------------


@pytest.fixture(scope="module")
def chaotic_55_rows():
    """40 coefficient rows at a chaotic 5x5 point, real and times random
    phases exp(1j theta)."""
    spec = diagonalize(build(FockBasis(5, 5), ModelParams(u=0.5, d=0.5)))
    rng = make_rng(5)
    pick = np.sort(rng.choice(spec.dim, size=40, replace=False))
    real = ensemble_amplitudes(pick, spec)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, real.shape))
    return spec, {"real": real, "complex": real * phases}


@pytest.mark.parametrize("rows", ["real", "complex"])
def test_survival_and_analytic_curve_equal_plain_expressions(chaotic_55_rows,
                                                             rows):
    spec, coefficients = chaotic_55_rows
    coeff, evals = coefficients[rows], spec.eigenvalues
    grid = log_time_grid(0.1, 1e4, 300)
    expected = survival_probability_reference(coeff, evals, grid.points)
    assert np.array_equal(survival_probability(coeff, evals, grid), expected)
    assert np.array_equal(
        survival_probability(coeff[3], evals, grid),
        survival_probability_reference(coeff[3], evals, grid.points)[0])
    inputs = estimate_curve_inputs(coeff, evals)
    reference = curve_inputs_reference(coeff, evals)
    assert np.array_equal(inputs.energy_grid, reference.energy_grid)
    assert np.array_equal(inputs.ldos, reference.ldos)
    assert (inputs.mean_dos, inputs.eta, inputs.ipr) == \
        (reference.mean_dos, reference.eta, reference.ipr)
    assert inputs.ipr == ensemble_ipr(coeff)
    assert np.array_equal(analytic_survival_curve(inputs, grid),
                          analytic_curve_reference(inputs, grid.points))


@pytest.fixture(scope="module")
def rows_66():
    """200 ensemble rows at 6x6 (dim 462) and a 400-point time grid."""
    spec = diagonalize(build(FockBasis(6, 6), ModelParams(u=0.5, d=0.5)))
    pick = np.sort(make_rng(6).choice(spec.dim, size=200, replace=False))
    return spec, pick, log_time_grid(0.1, 1e4, 400)


def _peak_doubles(fn) -> float:
    """Peak memory traced while fn() runs, in float64 elements."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 8
    finally:
        tracemalloc.stop()


def test_ensemble_amplitudes_allocate_one_row_block(rows_66):
    spec, pick, _ = rows_66
    peak = _peak_doubles(lambda: ensemble_amplitudes(pick, spec))
    assert peak <= 1.1 * pick.size * spec.dim


def test_survival_probability_holds_one_phase_buffer(rows_66):
    spec, pick, grid = rows_66
    coeff = ensemble_amplitudes(pick, spec)
    s, dim, t = pick.size, spec.dim, len(grid)
    peak = _peak_doubles(
        lambda: survival_probability(coeff, spec.eigenvalues, grid))
    # the weights, one (dim, T) phase buffer, and the re and im products
    assert peak <= 1.1 * (s * dim + dim * t + 2 * s * t)


def test_ensemble_survival_is_survival_trace_and_ipr(rows_66):
    spec, pick, grid = rows_66
    coeff = ensemble_amplitudes(pick, spec)
    trace, ipr = dynamics.ensemble_survival(pick, spec, grid, 5)
    expected = survival_trace(coeff, spec.eigenvalues, grid, 5)
    for name in ("values", "ensemble_mean", "smoothed_mean"):
        assert np.array_equal(getattr(trace, name), getattr(expected, name))
    assert (trace.relaxation_value, trace.observable, trace.smoothing_window) \
        == (expected.relaxation_value, "survival", 5)
    assert ipr == ensemble_ipr(coeff)


def test_ensemble_survival_holds_one_weight_array(rows_66):
    spec, pick, grid = rows_66
    s, dim, t = pick.size, spec.dim, len(grid)
    peak = _peak_doubles(
        lambda: dynamics.ensemble_survival(pick, spec, grid))
    # the weights, one (dim, T) phase buffer, and the re and im products;
    # the coefficient rows beside them would add s * dim
    assert peak <= 1.1 * (s * dim + dim * t + 2 * s * t)


def test_estimate_curve_inputs_holds_weights_or_one_kernel_block(rows_66):
    spec, pick, _ = rows_66
    coeff = ensemble_amplitudes(pick, spec)
    peak = _peak_doubles(
        lambda: estimate_curve_inputs(coeff, spec.eigenvalues))
    # the weights, or one 2048 x 512 kernel block with room for a second
    assert peak <= pick.size * spec.dim + 2 * 2048 * 512
