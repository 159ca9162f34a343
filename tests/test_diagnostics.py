import numpy as np
import pytest
from scipy.special import xlogy

from tiltedbh import (
    FockBasis,
    ModelParams,
    build,
    central_window_average,
    diagonalize,
    eigenstate_diagnostics,
    goe_participation_reference,
    page_value,
)
from tiltedbh.diagnostics import (
    EmptyWindowError,
    NotNormalizedError,
    entropy_from_distributions,
    imbalance_diagonal,
    left_half_site_count,
    occupation_distributions,
    write_eigenstate_csv,
)

from conftest import (
    dense_partial_trace_entropy,
    half_chain_imbalance,
    participation_ratio,
    single_site_entropy,
)


def test_participation_ratio_examples():
    vec = np.zeros(16)
    vec[0] = 1.0
    assert participation_ratio(vec) == pytest.approx(1.0)
    uniform = np.full(25, 1.0 / 5.0)
    assert participation_ratio(uniform) == pytest.approx(25.0)
    pair = np.zeros(8)
    pair[:2] = np.sqrt(0.5)
    assert participation_ratio(pair) == pytest.approx(2.0)


def test_participation_ratio_requires_normalization():
    with pytest.raises(NotNormalizedError):
        participation_ratio(np.ones(4))


def test_goe_participation_reference():
    assert goe_participation_reference(6435) == pytest.approx(6435 / 3)


def test_fock_states_have_zero_entropy():
    basis = FockBasis(3, 3)
    for k in (0, 4, basis.dim - 1):
        vec = np.zeros(basis.dim)
        vec[k] = 1.0
        for site in range(3):
            assert single_site_entropy(vec, basis, site) == pytest.approx(0.0)


def test_two_mode_cat_state_entropy():
    basis = FockBasis(2, 2)
    vec = np.zeros(basis.dim)
    vec[basis.rank([2, 0])] = np.sqrt(0.5)
    vec[basis.rank([0, 2])] = np.sqrt(0.5)
    assert single_site_entropy(vec, basis, 0) == pytest.approx(np.log(2.0))


def test_entropy_site_range_and_normalization_checks():
    basis = FockBasis(2, 2)
    vec = np.zeros(basis.dim)
    vec[0] = 1.0
    with pytest.raises(IndexError):
        single_site_entropy(vec, basis, 2)
    with pytest.raises(NotNormalizedError):
        single_site_entropy(2.0 * vec, basis, 0)


def test_entropy_shortcut_matches_dense_partial_trace(rng):
    basis = FockBasis(4, 4)
    for _ in range(5):
        vec = rng.standard_normal(basis.dim)
        vec /= np.linalg.norm(vec)
        for site in range(basis.n_sites):
            fast = single_site_entropy(vec, basis, site)
            oracle = dense_partial_trace_entropy(
                vec, basis.states, site, basis.n_bosons)
            assert fast == pytest.approx(oracle, abs=1e-10)


def test_entropy_bounded_by_log_occupancy_count(rng):
    basis = FockBasis(3, 4)
    bound = np.log(basis.n_bosons + 1)
    for _ in range(10):
        vec = rng.standard_normal(basis.dim)
        vec /= np.linalg.norm(vec)
        for site in range(basis.n_sites):
            assert single_site_entropy(vec, basis, site) <= bound + 1e-12


def test_page_value_examples():
    independent = 2.0 * np.log(2.0) + 0.5 * (1.0 / 8.0 + np.log(7.0 / 8.0))
    assert page_value(8, 8) == pytest.approx(independent, abs=1e-12)
    # unit filling approaches 2 ln 2 from below as the chain grows
    for m in range(4, 13):
        assert page_value(m, m) < 2.0 * np.log(2.0)
    assert page_value(400, 400) == pytest.approx(2.0 * np.log(2.0), abs=1e-2)
    values = [page_value(m, m) for m in range(4, 13)]
    assert (np.diff(values) > 0).all()
    with pytest.raises(ValueError):
        page_value(3, 1)


def test_half_chain_imbalance_examples():
    basis = FockBasis(8, 8)
    vec = np.zeros(basis.dim)
    vec[basis.rank([0, 0, 0, 0, 2, 2, 2, 2])] = 1.0
    assert half_chain_imbalance(vec, basis) == pytest.approx(-1.0)
    vec = np.zeros(basis.dim)
    vec[basis.rank([8, 0, 0, 0, 0, 0, 0, 0])] = 1.0
    assert half_chain_imbalance(vec, basis) == pytest.approx(1.0)

    cat = FockBasis(2, 2)
    vec = np.zeros(cat.dim)
    vec[cat.rank([2, 0])] = np.sqrt(0.5)
    vec[cat.rank([0, 2])] = np.sqrt(0.5)
    assert half_chain_imbalance(vec, cat) == pytest.approx(0.0)


def test_odd_chain_left_half_has_extra_site():
    assert left_half_site_count(7) == 4
    assert left_half_site_count(8) == 4
    basis = FockBasis(1, 3)
    vec = np.zeros(basis.dim)
    vec[basis.rank([0, 1, 0])] = 1.0  # middle site belongs to the left half
    assert half_chain_imbalance(vec, basis) == pytest.approx(1.0)


def test_eigenstate_imbalances_bounded_and_trace_free_without_tilt():
    basis = FockBasis(4, 4)
    spec = diagonalize(build(basis, ModelParams(u=0.5, d=0.0)))
    diag = eigenstate_diagnostics(spec)
    assert (diag.imbalance >= -1.0 - 1e-12).all()
    assert (diag.imbalance <= 1.0 + 1e-12).all()
    # tr(n_l - n_r) = 0 by left-right symmetry of the basis as a set
    assert diag.imbalance.sum() == pytest.approx(0.0, abs=1e-8)


def test_central_window_average_examples():
    assert central_window_average([1.0, 2.0, 3.0], window=1.0) == pytest.approx(2.0)
    assert central_window_average([0.0, 10.0, 0.0], window=1 / 3) == pytest.approx(10.0)
    with pytest.raises(EmptyWindowError):
        central_window_average([1.0, 2.0], window=0.0)
    with pytest.raises(EmptyWindowError):
        central_window_average(np.arange(100.0), window=0.001)


def test_occupation_distributions_normalized():
    basis = FockBasis(3, 3)
    probs = np.full(basis.dim, 1.0 / basis.dim)
    dist = occupation_distributions(probs, basis)
    assert dist.shape == (3, 4)
    assert np.allclose(dist.sum(axis=-1), 1.0)
    ent = entropy_from_distributions(dist)
    assert (ent >= 0).all()


def _distributions_with_edge_values(rng, shape):
    """Dirichlet samples over the last axis with exact zeros, subnormals,
    1 and its neighbours written over some entries."""
    d = rng.dirichlet(np.full(shape[-1], 0.3), size=shape[:-1])
    d[rng.random(d.shape) < 0.2] = 0.0
    subnormal = rng.random(d.shape) < 0.05
    d[subnormal] = 5e-324 * rng.integers(1, 2 ** 52, subnormal.sum())
    for value in (1.0, np.nextafter(1.0, 0.0), 1.0 - 2 ** -52,
                  np.nextafter(1.0, 2.0)):
        d[rng.random(d.shape) < 0.02] = value
    return d


@pytest.mark.parametrize("shape", [(9,), (4, 6, 8, 9)])
def test_entropy_is_bit_identical_to_xlogy(shape):
    # np.log may differ from the C library's log by one ulp; xlogy does not
    rng = np.random.default_rng(17)
    for _ in range(50):
        d = _distributions_with_edge_values(rng, shape)
        assert np.array_equal(entropy_from_distributions(d),
                              -xlogy(d, d).sum(axis=-1))


def test_entropy_is_nan_where_xlogy_is():
    d = np.array([[0.5, np.nan, 0.5], [-0.25, 0.5, 0.75], [0.0, -0.0, 1.0],
                  [-np.inf, 0.0, 1.0], [np.inf, 0.0, 0.0], [2.0, -1.0, 0.0]])
    expected = -xlogy(d, d).sum(axis=-1)
    assert np.isnan(expected).tolist() == [True, True, False, True, False,
                                           True]
    assert np.array_equal(entropy_from_distributions(d), expected,
                          equal_nan=True)


def test_batch_diagnostics_match_per_state_functions():
    basis = FockBasis(4, 4)
    spec = diagonalize(build(basis, ModelParams(u=0.5, d=0.5)))
    diag = eigenstate_diagnostics(spec, chunk=7)
    for ix in (0, 3, basis.dim // 2, basis.dim - 1):
        vec = spec.eigenvectors[:, ix]
        assert diag.participation[ix] == pytest.approx(participation_ratio(vec))
        assert diag.imbalance[ix] == pytest.approx(half_chain_imbalance(vec, basis))
        for site in range(basis.n_sites):
            assert diag.site_entropy[ix, site] == pytest.approx(
                single_site_entropy(vec, basis, site), abs=1e-12)
        assert diag.entropy_mean[ix] == pytest.approx(
            diag.site_entropy[ix].mean())
    assert diag.page == pytest.approx(page_value(4, 4))
    assert diag.participation_goe == pytest.approx(basis.dim / 3)


def test_imbalance_diagonal_matches_direct_sum():
    basis = FockBasis(5, 3)
    left = left_half_site_count(3)
    direct = (basis.states[:, :left].sum(axis=1)
              - basis.states[:, left:].sum(axis=1)) / 5.0
    assert np.allclose(imbalance_diagonal(basis), direct)


def test_write_eigenstate_csv(tmp_path):
    basis = FockBasis(2, 3)
    spec = diagonalize(build(basis, ModelParams(u=0.4, d=0.3)))
    diag = eigenstate_diagnostics(spec)
    path = tmp_path / "eigenstates.csv"
    write_eigenstate_csv(path, spec.eigenvalues, diag, {"config_hash": "x"})
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_hash=x"
    header = lines[1].split(",")
    assert header == ["index", "energy", "normalized_energy", "pr",
                      "s_site_1", "s_site_2", "s_site_3", "s_avg", "imbalance"]
    assert len(lines) == 2 + basis.dim
