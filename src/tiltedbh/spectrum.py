"""Full eigendecomposition and unfolding-free spectral chaos statistics.

The chaos indicator is the mean ratio of consecutive level spacings,
r_n = min(s_n, s_{n-1}) / max(s_n, s_{n-1}) with s_n = E_{n+1} - E_n,
which is independent of the density of states, so no unfolding is needed.
"""

from __future__ import annotations

import mmap
import warnings
from dataclasses import dataclass

import numpy as np

from .basis import DimensionTooLargeError, FockBasis
from .hamiltonian import HamiltonianMatrix, ModelParams
from .tables import write_table

__all__ = [
    "R_GOE",
    "R_POISSON",
    "SpectralData",
    "GapRatioStats",
    "MissingEigenvectorsError",
    "DimensionTooLargeError",
    "ConvergenceError",
    "DegenerateSpectrumError",
    "DegenerateSpectrumWarning",
    "check_dense_limit",
    "diagonalize",
    "mean_gap_ratio",
    "normalized_energies",
    "chaos_distance",
    "write_spectrum_csv",
]

# Mean consecutive-spacing ratio references.  Both 0.535 and 0.536 circulate
# for the orthogonal ensemble at large size.
R_GOE = 0.535
R_POISSON = 0.386  # 2 ln 2 - 1 = 0.3863...

DENSE_EIGENVALUE_LIMIT = 100_000
DENSE_EIGENVECTOR_LIMIT = 20_000

# the LAPACK driver of scipy.linalg.eigh, by whether vectors are computed:
# divide and conquer with vectors, relatively robust representations without
EIGH_DRIVER = {True: "evd", False: "evr"}

# spacings below this fraction of the retained span count as degenerate
DEGENERACY_TOL = 1e-12


class MissingEigenvectorsError(ValueError):
    pass


class ConvergenceError(RuntimeError):
    pass


class DegenerateSpectrumError(ValueError):
    pass


class DegenerateSpectrumWarning(UserWarning):
    pass


@dataclass
class SpectralData:
    """Eigenvalues (ascending) and, optionally, the orthonormal eigenvectors.

    Column m of ``eigenvectors`` is the m-th eigenstate expressed in the
    canonical Fock basis.
    """

    basis: FockBasis
    params: ModelParams
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @property
    def has_vectors(self) -> bool:
        return self.eigenvectors is not None


def _upper_triangle_in_fresh_pages(h: HamiltonianMatrix) -> np.ndarray:
    """H's diagonal and stored upper triangle in an n x n C-order array,
    the strict lower triangle left zero, in a fresh anonymous mapping.

    A page of such a mapping becomes resident when it is first touched, so
    pages that lie wholly in the strict lower triangle take no memory until
    something reads them.  ``np.zeros`` gives no such guarantee: glibc may
    serve the matrix from heap it already holds and clear all of it.  No
    huge pages are asked for: every 2 MiB of the matrix holds entries of
    the stored triangle, so they would make all of it resident.
    """
    n = h.dim
    # MAP_PRIVATE exists on POSIX only; elsewhere the plain anonymous mapping
    flags = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}
    a = np.frombuffer(mmap.mmap(-1, 8 * n * n, **flags),
                      dtype=np.float64).reshape(n, n)
    a[np.arange(n), np.arange(n)] = h.diagonal
    a[h.rows, h.cols] = h.values
    return a


def check_dense_limit(dim: int, compute_vectors: bool) -> None:
    """Raise DimensionTooLargeError if a dense solve of dimension ``dim``,
    with or without eigenvectors, exceeds its limit; needs no basis."""
    limit = DENSE_EIGENVECTOR_LIMIT if compute_vectors else DENSE_EIGENVALUE_LIMIT
    if dim > limit:
        raise DimensionTooLargeError(
            f"dimension {dim} exceeds the dense limit {limit} "
            f"({'with' if compute_vectors else 'without'} eigenvectors)")


def diagonalize(h: HamiltonianMatrix,
                compute_vectors: bool = True) -> SpectralData:
    """Dense symmetric eigensolve of the full Hamiltonian, up to
    ``DENSE_EIGENVECTOR_LIMIT`` with eigenvectors and
    ``DENSE_EIGENVALUE_LIMIT`` without.

    LAPACK gets the column-major ``.T`` view of the upper triangle written
    into fresh pages, whose lower triangle (``lower=True``) is the one it
    reads, and overwrites that buffer instead of copying it.  Without
    vectors, pages lying wholly in the other triangle never become
    resident; with vectors, the returned eigenvectors fill the whole
    buffer, in Fortran order.
    """
    check_dense_limit(h.dim, compute_vectors)
    # imported here, so that processes that read their eigendata from the
    # cache (warm quenches, the parent of a pooled sweep) never load scipy
    import scipy.linalg
    dense = _upper_triangle_in_fresh_pages(h).T
    try:
        solved = scipy.linalg.eigh(
            dense, lower=True, overwrite_a=True, check_finite=False,
            eigvals_only=not compute_vectors,
            driver=EIGH_DRIVER[compute_vectors]
        )
    except scipy.linalg.LinAlgError as err:
        raise ConvergenceError(f"eigensolver failed to converge: {err}") from err
    vals, vecs = solved if compute_vectors else (solved, None)
    return SpectralData(h.basis, h.params, vals, vecs)


@dataclass(frozen=True)
class GapRatioStats:
    mean_r: float
    n_gaps_used: int
    edge_fraction_discarded: float
    n_degenerate: int = 0


def mean_gap_ratio(eigenvalues, edge_discard: float = 0.1) -> GapRatioStats:
    """Mean consecutive-spacing ratio after discarding spectral edges.

    ``edge_discard`` is the fraction of levels dropped at *each* end.
    Near-degenerate spacings (below 1e-12 of the retained span) contribute
    ratio 0 and trigger a DegenerateSpectrumWarning with their count.
    """
    if not 0 <= edge_discard < 0.5:
        raise ValueError(f"edge_discard must lie in [0, 0.5), got {edge_discard}")
    e = np.sort(np.asarray(eigenvalues, dtype=np.float64))
    k = int(round(edge_discard * e.size))
    kept = e[k: e.size - k]
    if kept.size < 3:
        raise ValueError(
            f"need at least 3 eigenvalues after edge discard, have {kept.size}"
        )
    s = np.diff(kept)
    tol = DEGENERACY_TOL * (kept[-1] - kept[0])
    degenerate = s < tol
    n_deg = int(degenerate.sum())
    if n_deg:
        warnings.warn(
            DegenerateSpectrumWarning(
                f"{n_deg} near-degenerate spacings below {tol:.3e}; "
                f"their ratios are set to 0"
            )
        )
    lo = np.minimum(s[:-1], s[1:])
    hi = np.maximum(s[:-1], s[1:])
    touches = degenerate[:-1] | degenerate[1:]
    ratios = np.zeros(lo.size)
    good = ~touches
    ratios[good] = lo[good] / hi[good]
    return GapRatioStats(
        mean_r=float(ratios.mean()),
        n_gaps_used=int(ratios.size),
        edge_fraction_discarded=float(edge_discard),
        n_degenerate=n_deg,
    )


def normalized_energies(eigenvalues) -> np.ndarray:
    """Affine map of the spectrum onto [0, 1]."""
    e = np.asarray(eigenvalues, dtype=np.float64)
    if e.size < 2:
        raise ValueError("need at least two eigenvalues")
    lo, hi = e.min(), e.max()
    if hi == lo:
        raise DegenerateSpectrumError("all eigenvalues identical, cannot normalize")
    return (e - lo) / (hi - lo)


def chaos_distance(stats, reference: float = R_GOE) -> float:
    """|mean_r - reference|; small in the chaotic regime."""
    value = stats.mean_r if isinstance(stats, GapRatioStats) else float(stats)
    return abs(value - reference)


def write_spectrum_csv(path, eigenvalues, metadata: dict | None = None) -> None:
    """CSV with columns (index, energy, normalized_energy)."""
    eps = normalized_energies(eigenvalues)
    write_table(path, ["index", "energy", "normalized_energy"],
                zip(range(len(eps)), eigenvalues, eps), metadata)
