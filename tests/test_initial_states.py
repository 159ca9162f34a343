import json

import numpy as np
import pytest

from tiltedbh import (
    FockBasis,
    ModelParams,
    build,
    diagonalize,
    maximally_imbalanced_states,
    sample_energy_window,
    spectral_moments,
)
from tiltedbh.hamiltonian import HamiltonianMatrix, diagonal_energies
from tiltedbh.initial_states import InsufficientCandidatesError, write_state_manifest

REFERENCE = ModelParams(u=0.5, d=0.8)
# the energy window and occupation cap of the paper's protocol
WINDOW = {"reference": REFERENCE, "window_halfwidth": 0.4, "occupation_cap": 3}


def test_spectral_moments_diagonal_example():
    basis = FockBasis(1, 2)
    params = ModelParams(u=0.0, d=1.0)
    h = HamiltonianMatrix(basis, params, np.array([0.0, 2.0]),
                          np.empty(0, int), np.empty(0, int), np.empty(0))
    assert spectral_moments(h) == (pytest.approx(1.0), pytest.approx(1.0))


def test_spectral_moments_two_level_hopping():
    basis = FockBasis(1, 2)
    h = build(basis, ModelParams(u=0.0, d=0.0))
    center, sd = spectral_moments(h)
    assert center == pytest.approx(0.0)
    assert sd == pytest.approx(1.0)


def test_spectral_moments_match_full_diagonalization():
    basis = FockBasis(6, 6)
    h = build(basis, ModelParams(u=0.5, d=0.8))
    center, sd = spectral_moments(h)
    evals = diagonalize(h, compute_vectors=False).eigenvalues
    assert center == pytest.approx(evals.mean(), abs=1e-9)
    assert sd == pytest.approx(evals.std(), abs=1e-9)


def test_energy_window_sampling_is_deterministic_and_valid():
    basis = FockBasis(8, 8)
    first = sample_energy_window(basis, sample_count=200, seed=11, **WINDOW)
    second = sample_energy_window(basis, sample_count=200, seed=11, **WINDOW)
    assert np.array_equal(first.indices, second.indices)
    assert len(first) == 200

    # post-hoc filter: every state obeys the cap and the window bounds
    assert (first.occupations <= WINDOW["occupation_cap"]).all()
    lo, hi = first.metadata["window_bounds"]
    energies = diagonal_energies(first.occupations, REFERENCE)
    assert ((energies >= lo) & (energies <= hi)).all()
    assert np.allclose(energies, first.diagonal_energies)


def test_window_uses_reference_parameters_not_swept_ones():
    basis = FockBasis(6, 6)
    ens = sample_energy_window(basis, sample_count=10, seed=3, **WINDOW)
    assert ens.metadata["reference_u"] == 0.5
    assert ens.metadata["reference_d"] == 0.8
    assert ens.metadata["sampling"] == "uniform_without_replacement"


def test_full_candidate_set_returned_without_randomness():
    basis = FockBasis(4, 4)
    probe = sample_energy_window(basis, sample_count=1, seed=0, **WINDOW)
    n_cand = probe.metadata["n_candidates"]
    full = sample_energy_window(basis, sample_count=n_cand, seed=123, **WINDOW)
    assert len(full) == n_cand
    other = sample_energy_window(basis, sample_count=n_cand, seed=456, **WINDOW)
    assert np.array_equal(full.indices, other.indices)


def test_insufficient_candidates_is_an_error():
    basis = FockBasis(4, 4)
    with pytest.raises(InsufficientCandidatesError, match=r"\d+ candidate"):
        sample_energy_window(basis, sample_count=10_000, seed=0, **WINDOW)


@pytest.mark.parametrize("nm,expected", [(7, 6), (8, 31), (9, 20), (10, 101)])
def test_maximally_imbalanced_state_counts(nm, expected):
    basis = FockBasis(nm, nm)
    ens = maximally_imbalanced_states(basis, occupation_cap=3,
                                      max_states=None, seed=0)
    assert len(ens) == expected
    left = ens.metadata["left_sites"]
    assert (ens.occupations[:, :left] == 0).all()
    assert (ens.occupations <= 3).all()


def test_imbalanced_counts_match_polynomial_oracle():
    # number of qualifying states = coefficient of x^N in (1+x+x^2+x^3)^R,
    # R the number of right-half sites
    for m in range(1, 13):
        right = m - (m + 1) // 2
        poly = np.ones(1)
        for _ in range(right):
            poly = np.convolve(poly, np.ones(4))
        for n in range(1, 13):
            expected = int(poly[n]) if n < poly.size else 0
            basis = FockBasis(n, m)
            if not expected:
                with pytest.raises(InsufficientCandidatesError):
                    maximally_imbalanced_states(
                        basis, occupation_cap=3, max_states=None, seed=0)
                continue
            got = len(maximally_imbalanced_states(
                basis, occupation_cap=3, max_states=None, seed=0))
            assert got == expected, (n, m)


def test_empty_imbalance_ensemble_is_an_error():
    # N = 8, M = 4: the two right-half sites hold at most 6 bosons at cap 3
    with pytest.raises(InsufficientCandidatesError,
                       match=r"2 sites take at most 6 under occupation_cap 3"):
        maximally_imbalanced_states(FockBasis(8, 4), occupation_cap=3,
                                    max_states=None, seed=0)
    # the same chain at cap 4 has one qualifying state, (0, 0, 4, 4)
    ens = maximally_imbalanced_states(FockBasis(8, 4), occupation_cap=4,
                                      max_states=None, seed=0)
    assert ens.occupations.tolist() == [[0, 0, 4, 4]]


def test_imbalanced_subsampling_is_seeded():
    basis = FockBasis(10, 10)
    first = maximally_imbalanced_states(basis, occupation_cap=3,
                                        max_states=20, seed=9)
    second = maximally_imbalanced_states(basis, occupation_cap=3,
                                         max_states=20, seed=9)
    assert len(first) == 20
    assert np.array_equal(first.indices, second.indices)
    assert first.metadata["n_qualifying"] == 101
    different = maximally_imbalanced_states(basis, occupation_cap=3,
                                            max_states=20, seed=10)
    assert not np.array_equal(first.indices, different.indices)


def test_protocol_validation():
    basis = FockBasis(4, 4)
    window = dict(WINDOW, sample_count=5, seed=0)
    with pytest.raises(ValueError, match="sample_count must be at least 1"):
        sample_energy_window(basis, **dict(window, sample_count=0))
    with pytest.raises(ValueError, match="window_halfwidth must be positive"):
        sample_energy_window(basis, **dict(window, window_halfwidth=-1.0))
    with pytest.raises(ValueError, match="occupation_cap must be at least 1"):
        sample_energy_window(basis, **dict(window, occupation_cap=0))
    with pytest.raises(ValueError, match="occupation_cap must be at least 1"):
        maximally_imbalanced_states(basis, occupation_cap=0, max_states=None,
                                    seed=0)
    with pytest.raises(ValueError, match="max_states must be at least 1"):
        maximally_imbalanced_states(basis, occupation_cap=3, max_states=0,
                                    seed=0)


def test_manifest_roundtrip(tmp_path):
    basis = FockBasis(5, 5)
    ens = sample_energy_window(basis, sample_count=5, seed=2, **WINDOW)
    path = tmp_path / "states.json"
    write_state_manifest(path, ens, extra={"config_hash": "abc"})
    data = json.loads(path.read_text())
    assert data["n_states"] == 5
    assert data["rng_seed"] == 2
    assert data["config_hash"] == "abc"
    assert len(data["occupations"]) == 5
    assert len(data["window_bounds"]) == 2
    assert [basis.rank(occ) for occ in data["occupations"]] == data["basis_indices"]


def test_energy_window_manifest_keeps_the_reference_hopping(tmp_path):
    ens = sample_energy_window(FockBasis(4, 4), sample_count=3, seed=1,
                               **WINDOW)
    write_state_manifest(tmp_path / "states.json", ens)
    data = json.loads((tmp_path / "states.json").read_text())
    assert data["reference_j"] == 1.0
