import numpy as np
import pytest

from tiltedbh import FockBasis, ModelParams, build, diagonal_energy, diagonalize
from tiltedbh.hamiltonian import diagonal_energies

from conftest import brute_force_dense


def test_two_site_two_boson_matrix_elements():
    u, d = 1.3, 0.7
    basis = FockBasis(2, 2)
    h = build(basis, ModelParams(u=u, d=d))
    # basis order (2,0), (1,1), (0,2)
    assert np.allclose(h.diagonal, [u + 2 * d, 3 * d, u + 4 * d])
    off = sorted(zip(h.rows.tolist(), h.cols.tolist(), h.values.tolist()))
    assert off == [(0, 1, pytest.approx(-np.sqrt(2))),
                   (1, 2, pytest.approx(-np.sqrt(2)))]


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(u=-0.1, d=0.0)
    with pytest.raises(ValueError):
        ModelParams(u=0.1, d=-1.0)


def test_single_boson_tight_binding_structure():
    # one boson: diagonal is the tilt ladder, hopping elements all -J
    m = 6
    basis = FockBasis(1, m)
    h = build(basis, ModelParams(u=0.0, d=0.25))
    ladder = 0.25 * np.arange(1, m + 1)
    order = np.argsort(h.diagonal)
    assert np.allclose(np.sort(h.diagonal), np.sort(ladder))
    assert len(h.values) == m - 1
    assert np.allclose(h.values, -1.0)
    assert order is not None


def test_diagonal_energy_examples():
    params = ModelParams(u=0.5, d=0.5)
    occ = [0, 0, 0, 0, 2, 2, 2, 2]
    assert diagonal_energy(occ, params) == pytest.approx(28.0)
    assert diagonal_energy(occ, ModelParams(u=0.0, d=0.0)) == 0.0
    # (N, 0, ..., 0) closed form
    n, u, d = 5, 0.7, 0.3
    stacked = [n] + [0] * 4
    expected = 0.5 * u * n * (n - 1) + d * n
    assert diagonal_energy(stacked, ModelParams(u=u, d=d)) == pytest.approx(expected)


def test_diagonal_energies_vectorized_matches_scalar():
    basis = FockBasis(4, 4)
    params = ModelParams(u=0.31, d=1.7)
    batch = diagonal_energies(basis.states, params)
    for i in (0, 5, 17, basis.dim - 1):
        assert batch[i] == pytest.approx(diagonal_energy(basis.states[i], params))


@pytest.mark.parametrize("n,m", [(3, 3), (2, 4), (4, 3)])
def test_dense_matches_brute_force_operator_build(n, m):
    basis = FockBasis(n, m)
    params = ModelParams(u=0.8, d=0.6)
    h = build(basis, params).to_dense()
    oracle = brute_force_dense(basis.states, u=0.8, d=0.6)
    assert np.allclose(h, oracle, atol=1e-13)
    assert np.array_equal(h, h.T)


def test_trace_identity_against_independent_sum():
    basis = FockBasis(4, 4)
    params = ModelParams(u=0.9, d=0.4)
    h = build(basis, params)
    by_states = sum(diagonal_energy(s, params) for s in basis.states)
    assert h.trace() == pytest.approx(by_states, rel=1e-13)
    dense = h.to_dense()
    assert h.trace_of_square() == pytest.approx((dense @ dense).trace(), rel=1e-12)


def test_offdiagonal_entries_are_adjacent_single_moves():
    basis = FockBasis(3, 4)
    h = build(basis, ModelParams(u=0.5, d=0.5))
    assert (h.rows < h.cols).all()
    assert len(h.values) <= basis.dim * (basis.n_sites - 1)
    for r, c in zip(h.rows, h.cols):
        diff = basis.states[c].astype(int) - basis.states[r].astype(int)
        moved = np.nonzero(diff)[0]
        assert len(moved) == 2
        i, j = moved
        assert j == i + 1
        assert sorted(diff[moved]) == [-1, 1]


def test_single_boson_spectrum_is_analytic_cosine():
    m = 8
    basis = FockBasis(1, m)
    h = build(basis, ModelParams(u=0.0, d=0.0))
    spec = diagonalize(h, compute_vectors=False)
    ks = np.arange(1, m + 1)
    expected = np.sort(-2.0 * np.cos(ks * np.pi / (m + 1)))
    assert np.abs(spec.eigenvalues - expected).max() < 1e-10


def test_export_coo_roundtrip(tmp_path):
    basis = FockBasis(3, 3)
    h = build(basis, ModelParams(u=1.1, d=0.2))
    path = tmp_path / "h.txt"
    h.export_coo(path, metadata={"seed": 1})
    rebuilt = np.zeros((basis.dim, basis.dim))
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        r, c, v = line.split()
        rebuilt[int(r), int(c)] += float(v)
    assert np.allclose(rebuilt, h.to_dense())
    assert path.read_text().startswith("# seed=1\n")
