"""Full eigendecomposition and unfolding-free spectral chaos statistics.

The chaos indicator is the mean ratio of consecutive level spacings,
r_n = min(s_n, s_{n-1}) / max(s_n, s_{n-1}) with s_n = E_{n+1} - E_n,
which is independent of the density of states, so no unfolding is needed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .basis import FockBasis
from .hamiltonian import HamiltonianMatrix, ModelParams
from .tables import write_table

__all__ = [
    "R_GOE",
    "R_GOE_SURMISE",
    "R_GOE_LARGE",
    "R_POISSON",
    "SpectralData",
    "GapRatioStats",
    "DimensionTooLargeError",
    "ConvergenceError",
    "DegenerateSpectrumError",
    "DegenerateSpectrumWarning",
    "diagonalize",
    "mean_gap_ratio",
    "normalized_energies",
    "chaos_distance",
    "write_spectrum_csv",
]

# Mean consecutive-spacing ratio references.  Both 0.535 and 0.536 circulate
# for the orthogonal ensemble at large size; 0.5307 is the 3x3 surmise value.
R_GOE = 0.535
R_GOE_SURMISE = 0.5307
R_GOE_LARGE = 0.536
R_POISSON = 0.386  # 2 ln 2 - 1 = 0.3863...

DENSE_EIGENVALUE_LIMIT = 100_000
DENSE_EIGENVECTOR_LIMIT = 20_000

# spacings below this fraction of the retained span count as degenerate
DEGENERACY_TOL = 1e-12


class DimensionTooLargeError(ValueError):
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


def diagonalize(h: HamiltonianMatrix, compute_vectors: bool = True,
                value_limit: int = DENSE_EIGENVALUE_LIMIT,
                vector_limit: int = DENSE_EIGENVECTOR_LIMIT) -> SpectralData:
    """Dense symmetric eigensolve of the full Hamiltonian.

    LAPACK works in the dense matrix's own buffer: H equals its transpose,
    so the ``.T`` view is a column-major array holding the same numbers,
    which LAPACK overwrites instead of copying.  The returned eigenvectors
    occupy that buffer, in Fortran order.
    """
    limit = vector_limit if compute_vectors else value_limit
    if h.dim > limit:
        raise DimensionTooLargeError(
            f"dimension {h.dim} exceeds the dense limit {limit} "
            f"({'with' if compute_vectors else 'without'} eigenvectors)"
        )
    dense = h.to_dense().T
    try:
        if compute_vectors:
            vals, vecs = scipy.linalg.eigh(
                dense, overwrite_a=True, check_finite=False, driver="evd"
            )
            return SpectralData(h.basis, h.params, vals, vecs)
        vals = scipy.linalg.eigh(
            dense, overwrite_a=True, check_finite=False, eigvals_only=True
        )
        return SpectralData(h.basis, h.params, vals, None)
    except scipy.linalg.LinAlgError as err:
        raise ConvergenceError(f"eigensolver failed to converge: {err}") from err


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
    kept = e[k: e.size - k] if k else e
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
