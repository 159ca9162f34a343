import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from tiltedbh import (
    FockBasis,
    GapRatioStats,
    ModelParams,
    R_GOE,
    R_POISSON,
    build,
    chaos_distance,
    diagonalize,
    make_rng,
    mean_gap_ratio,
    normalized_energies,
)
from tiltedbh import spectrum
from tiltedbh.spectrum import (
    ConvergenceError,
    DegenerateSpectrumError,
    DegenerateSpectrumWarning,
    DimensionTooLargeError,
    write_spectrum_csv,
)

from conftest import R_GOE_LARGE, R_GOE_SURMISE, goe_spectrum, poisson_spectrum

from conftest import brute_force_dense, fake_lapack, run_in_fresh_python


def test_two_level_hopping_matrix():
    # single boson on two sites is literally [[0, -1], [-1, 0]]
    basis = FockBasis(1, 2)
    h = build(basis, ModelParams(u=0.0, d=0.0))
    assert np.allclose(h.to_dense(), [[0, -1], [-1, 0]])
    spec = diagonalize(h)
    assert np.allclose(spec.eigenvalues, [-1.0, 1.0])


def test_spectral_data_invariants():
    basis = FockBasis(4, 4)
    h = build(basis, ModelParams(u=0.5, d=0.5))
    spec = diagonalize(h)
    assert (np.diff(spec.eigenvalues) >= 0).all()
    v = spec.eigenvectors
    assert np.abs(v.T @ v - np.eye(basis.dim)).max() < 1e-8
    dense = h.to_dense()
    resid = np.abs(dense @ v - v * spec.eigenvalues).max()
    assert resid / np.abs(spec.eigenvalues).max() < 1e-8


def test_eigenvalues_match_independent_dense_solver():
    basis = FockBasis(4, 4)
    spec = diagonalize(build(basis, ModelParams(u=0.5, d=0.5)))
    oracle = np.linalg.eigvalsh(brute_force_dense(basis.states, u=0.5, d=0.5))
    assert np.abs(spec.eigenvalues - oracle).max() < 1e-9


def test_eigensolve_is_bit_identical_to_plain_eigh():
    h = build(FockBasis(5, 5), ModelParams(u=0.5, d=0.8))
    vals, vecs = scipy.linalg.eigh(h.to_dense(), driver="evd")
    spec = diagonalize(h, compute_vectors=True)
    assert np.array_equal(spec.eigenvalues, vals)
    assert np.array_equal(spec.eigenvectors, vecs)
    assert spec.eigenvectors.flags.f_contiguous
    values = diagonalize(h, compute_vectors=False).eigenvalues
    assert np.array_equal(values, scipy.linalg.eigh(h.to_dense(),
                                                    eigvals_only=True))


# Run in a fresh interpreter, whose OpenBLAS reads its thread count when it
# is loaded: the solve against scipy.linalg.eigh with the same driver.  With
# vectors: dimensions 1 and 2; 10 and 21, on either side of the n = 14 below
# which dsytrd's workspace sizes dsyevd's; 56, 462 and 1716, above the 25 up
# to which dstedc hands the whole problem to dsteqr; and H scaled so far
# that dsyevd scales it back.
_SAME_BITS_AS_SCIPY = """
import sys
import numpy as np
from tiltedbh import FockBasis, ModelParams, build, diagonalize, spectrum
from tiltedbh.hamiltonian import HamiltonianMatrix

def scaled(h, factor):
    return HamiltonianMatrix(h.basis, h.params, h.diagonal * factor, h.rows,
                             h.cols, h.values * factor)

h77 = build(FockBasis(7, 7), ModelParams(u=0.5, d=0.8))
solves = [(h77, False), (h77, True),
          (build(FockBasis(6, 6), ModelParams(u=1.0, d=0.3)), True)]
solves += [(build(FockBasis(n, m), ModelParams(u=0.7, d=0.4)), True)
           for n, m in [(3, 1), (1, 2), (3, 3), (5, 3)]]
small = build(FockBasis(3, 6), ModelParams(u=0.7, d=0.4))
solves += [(scaled(small, factor), True) for factor in (1e-150, 1e150)]
# dsyevd returns a 1 x 1 matrix before it would scale it, and scaling this
# one would move its eigenvalue
one = build(FockBasis(3, 1), ModelParams(u=0.7, d=0.4))
solves.append((scaled(one, 3e-160), True))
results = [diagonalize(h, vectors) for h, vectors in solves]
print("resolved" if spectrum._LAPACK else "fallback",
      "scipy" in sys.modules)
import scipy.linalg
for (h, vectors), spec in zip(solves, results):
    dense = h.to_dense()
    if vectors:
        vals, vecs = scipy.linalg.eigh(dense, driver="evd")
        assert np.array_equal(spec.eigenvectors, vecs), h.dim
    else:
        vals = scipy.linalg.eigh(dense, eigvals_only=True, driver="evr")
    assert np.array_equal(spec.eigenvalues, vals), h.dim
print("same bits")
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_solve_has_the_bits_of_scipy_eigh(monkeypatch, threads):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
    solved, compared = run_in_fresh_python(_SAME_BITS_AS_SCIPY).splitlines()
    # where numpy's LAPACK resolves, solving loads no scipy module
    assert solved in ("resolved False", "fallback True")
    assert compared == "same bits"


def test_unresolved_lapack_solves_through_scipy(monkeypatch):
    h = build(FockBasis(5, 5), ModelParams(u=0.5, d=0.8))
    expected = [diagonalize(h, vectors) for vectors in (False, True)]
    monkeypatch.setattr(spectrum, "_LAPACK_SYMBOL", "no_such_dsy{}_64_")
    monkeypatch.setattr(spectrum, "_LAPACK", spectrum._numpy_lapack())
    assert spectrum._LAPACK is None
    values, both = (diagonalize(h, vectors) for vectors in (False, True))
    assert np.array_equal(values.eigenvalues, expected[0].eigenvalues)
    assert values.eigenvectors is None
    assert np.array_equal(both.eigenvalues, expected[1].eigenvalues)
    assert np.array_equal(both.eigenvectors, expected[1].eigenvectors)


@pytest.mark.parametrize("routine, outputs, error, message", [
    ("syevr", {"info": 1}, ConvergenceError, "dsyevr info=1"),
    ("sytrd", {"info": 1}, ConvergenceError, "dsytrd info=1"),
    ("stedc", {"info": 1}, ConvergenceError, "dstedc info=1"),
    ("ormtr", {"info": 1}, ConvergenceError, "dormtr info=1"),
    ("sytrd", {"info": -4}, ValueError,
     r"dsytrd rejected its argument 4 \(lda\)"),
    ("stedc", {"info": -6}, ValueError,
     r"dstedc rejected its argument 6 \(ldz\)"),
    ("ormtr", {"info": -7}, ValueError,
     r"dormtr rejected its argument 7 \(lda\)"),
    ("syevr", {"m": 9}, ConvergenceError, "found 9 of 10"),
], ids=["evr_info", "trd_info", "stedc_info", "ormtr_info", "illegal_argument",
        "stedc_illegal_argument", "ormtr_illegal_argument",
        "missing_eigenvalue"])
def test_lapack_status_is_an_error(monkeypatch, routine, outputs, error,
                                   message):
    h = build(FockBasis(3, 3), ModelParams(u=0.5, d=0.5))
    fake_lapack(monkeypatch, routine, **outputs)
    with pytest.raises(error, match=message):
        diagonalize(h, routine != "syevr")


@pytest.mark.parametrize("with_vectors", [False, True])
def test_eigensolve_works_in_the_hamiltonian_buffer(with_vectors):
    # the dense matrix, and with vectors the reflectors, the eigenvectors
    # and the workspaces of dstedc and dormtr, live in mappings of their
    # own, which tracemalloc does not see; what it sees is O(n): at n = 462
    # about 37.5 * 8n with vectors and 48 * 8n without.  A heap copy of the
    # matrix for LAPACK would add n * 8n
    h = build(FockBasis(6, 6), ModelParams(u=0.5, d=0.8))
    tracemalloc.start()
    try:
        diagonalize(h, compute_vectors=with_vectors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * h.dim) < 64


_RESIDENT_GROWTH = """
import re
# where numpy's LAPACK does not resolve, the first solve imports it
import scipy.linalg
from tiltedbh import FockBasis, ModelParams, build, diagonalize

def status_kib(key):
    with open("/proc/self/status") as fh:
        return int(re.search(key + r":\\s+(\\d+) kB", fh.read()).group(1))

h = build(FockBasis(7, 7), ModelParams(u=0.5, d=0.5))
before = status_kib("VmRSS")
diagonalize(h, compute_vectors={vectors})
print((status_kib("VmHWM") - before) * 1024 / (8 * h.dim ** 2))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads VmRSS and VmHWM from /proc/self/status")
def test_value_only_eigensolve_leaves_the_unread_triangle_unmapped():
    # LAPACK reads one triangle of the 8n^2-byte matrix, so at least half
    # of it becomes resident; a fully resident matrix reaches 1.0 and more
    growth = float(run_in_fresh_python(_RESIDENT_GROWTH.format(vectors=False)))
    assert 0.4 < growth < 0.9


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads VmRSS and VmHWM from /proc/self/status")
def test_eigensolve_with_vectors_holds_two_and_a_half_matrices():
    # dsyevd holds the matrix and a workspace of two more (3.29 at 7x7);
    # its steps hold the reflectors, the vectors and dstedc's workspace
    growth = float(run_in_fresh_python(_RESIDENT_GROWTH.format(vectors=True)))
    assert growth < 3.0


def test_dimension_limits(monkeypatch):
    basis = FockBasis(4, 4)
    h = build(basis, ModelParams(u=0.5, d=0.5))
    monkeypatch.setattr("tiltedbh.spectrum.DENSE_EIGENVECTOR_LIMIT", 10)
    monkeypatch.setattr("tiltedbh.spectrum.DENSE_EIGENVALUE_LIMIT", 10)
    with pytest.raises(DimensionTooLargeError):
        diagonalize(h, compute_vectors=True)
    with pytest.raises(DimensionTooLargeError):
        diagonalize(h, compute_vectors=False)


def test_mean_gap_ratio_examples():
    assert mean_gap_ratio([0.0, 1.0, 2.0]).mean_r == pytest.approx(1.0)
    assert mean_gap_ratio([0.0, 1.0, 3.0]).mean_r == pytest.approx(0.5)


def test_mean_gap_ratio_needs_three_levels():
    with pytest.raises(ValueError):
        mean_gap_ratio([0.0, 1.0])
    with pytest.raises(ValueError):
        mean_gap_ratio(np.linspace(0, 1, 8), edge_discard=0.4)
    with pytest.raises(ValueError):
        mean_gap_ratio(np.linspace(0, 1, 10), edge_discard=0.7)


def test_edge_discard_drops_outliers():
    # ten equal gaps plus two extreme edge levels; discarding restores r = 1
    core = np.arange(10.0)
    levels = np.concatenate([[-1e4], core, [1e4]])
    # the two edge ratios are ~1e-4, pulling the undiscarded mean below 1
    assert mean_gap_ratio(levels, edge_discard=0.0).mean_r < 0.85
    stats = mean_gap_ratio(levels, edge_discard=1.5 / levels.size)
    assert stats.mean_r == pytest.approx(1.0)
    assert stats.edge_fraction_discarded == pytest.approx(1.5 / levels.size)


def test_degenerate_spacings_warn_and_count():
    levels = np.array([0.0, 1.0, 1.0, 2.0, 3.0])
    with pytest.warns(DegenerateSpectrumWarning):
        stats = mean_gap_ratio(levels, edge_discard=0.0)
    assert stats.n_degenerate == 1
    # ratios touching the zero gap contribute 0: ratios are (0, 0, 1)
    assert stats.mean_r == pytest.approx(1.0 / 3.0)
    assert stats.n_gaps_used == 3


def test_gap_ratio_affine_invariance(rng):
    levels = np.sort(rng.standard_normal(200))
    base = mean_gap_ratio(levels)
    scaled = mean_gap_ratio(4.0 * levels)  # power of two: bitwise identical
    assert scaled.mean_r == base.mean_r
    shifted = mean_gap_ratio(2.0 * levels + 0.5)
    assert shifted.mean_r == pytest.approx(base.mean_r, rel=1e-10)


def test_gap_ratio_reference_windows_quick():
    rng = make_rng(5)
    goe = np.mean([mean_gap_ratio(goe_spectrum(300, rng)).mean_r
                   for _ in range(10)])
    poi = np.mean([mean_gap_ratio(poisson_spectrum(300, rng)).mean_r
                   for _ in range(10)])
    assert 0.52 < goe < 0.55
    assert 0.37 < poi < 0.40


def test_normalized_energies_examples():
    assert np.allclose(normalized_energies([-1.0, 0.0, 1.0]), [0.0, 0.5, 1.0])
    assert np.allclose(normalized_energies([0.0, 1.0, 10.0]), [0.0, 0.1, 1.0])
    levels = np.sort(np.random.default_rng(3).standard_normal(50))
    eps = normalized_energies(levels)
    assert eps.min() == 0.0 and eps.max() == 1.0
    assert (np.diff(eps) >= 0).all()
    again = normalized_energies(4.0 * levels - 3.0)
    assert np.allclose(eps, again, atol=1e-12)
    with pytest.raises(DegenerateSpectrumError):
        normalized_energies([2.0, 2.0, 2.0])


def test_chaos_distance_examples():
    assert chaos_distance(0.535) == pytest.approx(0.0)
    assert chaos_distance(0.386) == pytest.approx(0.149)
    stats = GapRatioStats(mean_r=0.5, n_gaps_used=10, edge_fraction_discarded=0.1)
    assert chaos_distance(stats) == pytest.approx(0.035)
    assert chaos_distance(stats, reference=R_POISSON) == pytest.approx(0.114)


def test_reference_constants():
    assert R_GOE == 0.535
    assert R_POISSON == 0.386
    assert R_GOE_SURMISE == 0.5307
    assert R_GOE_LARGE == 0.536


def test_write_spectrum_csv(tmp_path):
    path = tmp_path / "spec.csv"
    write_spectrum_csv(path, np.array([0.0, 1.0, 4.0]), {"seed": 7})
    lines = path.read_text().splitlines()
    assert lines[0] == "# seed=7"
    assert lines[1] == "index,energy,normalized_energy"
    assert lines[2].startswith("0,0.0,0.0")
    assert len(lines) == 5
