"""Full eigendecomposition and unfolding-free spectral chaos statistics.

The chaos indicator is the mean ratio of consecutive level spacings,
r_n = min(s_n, s_{n-1}) / max(s_n, s_{n-1}) with s_n = E_{n+1} - E_n,
which is independent of the density of states, so no unfolding is needed.
"""

from __future__ import annotations

import ctypes
import errno
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

# the LAPACK driver, named as scipy.linalg.eigh names it, by whether vectors
# are computed: divide and conquer with vectors, relatively robust
# representations without; part of every eigendata cache key
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


# -- LAPACK through numpy's OpenBLAS -------------------------------------------
# numpy >= 2.0's wheels link its linear algebra to an ILP64 OpenBLAS whose
# LAPACK symbols carry this prefix and suffix; ``dlsym`` on the extension's
# handle searches the libraries it depends on, so no path is needed.

_LAPACK_SYMBOL = "scipy_dsy{}_64_"
_INT = ctypes.POINTER(ctypes.c_int64)
_REAL = ctypes.POINTER(ctypes.c_double)
_REALS = np.ctypeslib.ndpointer(np.float64, flags="F_CONTIGUOUS,WRITEABLE")
_INTS = np.ctypeslib.ndpointer(np.int64, flags="F_CONTIGUOUS,WRITEABLE")
# each driver's arguments in LAPACK's order, with their types
_LAPACK_ARGUMENTS = {
    "evr": {"jobz": ctypes.c_char_p, "range": ctypes.c_char_p,
            "uplo": ctypes.c_char_p, "n": _INT, "a": _REALS, "lda": _INT,
            "vl": _REAL, "vu": _REAL, "il": _INT, "iu": _INT,
            "abstol": _REAL, "m": _INT, "w": _REALS, "z": _REALS,
            "ldz": _INT, "isuppz": _INTS, "work": _REALS, "lwork": _INT,
            "iwork": _INTS, "liwork": _INT, "info": _INT},
    "evd": {"jobz": ctypes.c_char_p, "uplo": ctypes.c_char_p, "n": _INT,
            "a": _REALS, "lda": _INT, "w": _REALS, "work": _REALS,
            "lwork": _INT, "iwork": _INTS, "liwork": _INT, "info": _INT},
}


def _numpy_lapack() -> dict | None:
    """``dsyevr`` and ``dsyevd`` of the OpenBLAS numpy loaded, by their
    ``EIGH_DRIVER`` names, or None where numpy uses another LAPACK (MKL,
    Accelerate, a system build)."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        found = {driver: getattr(lib, _LAPACK_SYMBOL.format(driver))
                 for driver in _LAPACK_ARGUMENTS}
    except (OSError, AttributeError):
        return None
    for driver, fn in found.items():
        types = list(_LAPACK_ARGUMENTS[driver].values())
        # gfortran passes each character argument's length after the last
        fn.argtypes = types + [ctypes.c_size_t] * types.count(ctypes.c_char_p)
        fn.restype = None
    return found


_LAPACK = _numpy_lapack()


def _call_lapack(driver: str, **args) -> dict:
    """Call ``driver`` with ``args`` by their LAPACK names, every scalar by
    reference; returns the integer scalars, outputs included, by name.

    Raises ValueError for an argument LAPACK rejects and ConvergenceError
    for a positive ``info``.
    """
    kinds = _LAPACK_ARGUMENTS[driver]
    values, lengths = [], []
    # every value, the arrays included, stays referenced until the call ends
    for name, kind in kinds.items():
        value = 0 if name == "info" else args[name]
        if kind is ctypes.c_char_p:
            value = value.encode()
            lengths.append(ctypes.c_size_t(len(value)))
        elif kind is _INT:
            value = ctypes.c_int64(value)
        elif kind is _REAL:
            value = ctypes.c_double(value)
        values.append(value)
    _LAPACK[driver](*values, *lengths)
    out = {name: value.value for name, value in zip(kinds, values)
           if isinstance(value, ctypes.c_int64)}
    if out["info"] < 0:
        raise ValueError(f"dsy{driver} rejected its argument {-out['info']} "
                         f"({list(kinds)[-out['info'] - 1]})")
    if out["info"] > 0:
        raise ConvergenceError(
            f"eigensolver failed to converge: dsy{driver} info={out['info']}")
    return out


def _solve_in_place(a: np.ndarray, compute_vectors: bool):
    """Eigenvalues of the symmetric ``a``, read from its lower triangle, and
    with ``compute_vectors`` its eigenvectors written over ``a``: the driver
    and arguments ``scipy.linalg.eigh`` passes, with the same workspace
    query, so the results are the same bits."""
    n = a.shape[0]
    if not (a.dtype == np.float64 and a.shape == (n, n)
            and a.flags.f_contiguous and a.flags.writeable):
        raise ValueError("LAPACK needs a writeable, Fortran-ordered float64 "
                         f"square matrix, got {a.dtype} {a.shape}")
    driver = EIGH_DRIVER[compute_vectors]
    w = np.empty(n)
    args = {"jobz": "V" if compute_vectors else "N", "uplo": "L", "n": n,
            "a": a, "lda": n, "w": w}
    if driver == "evr":
        # z and isuppz are not referenced without vectors
        args.update({"range": "A", "vl": 0.0, "vu": 1.0, "il": 1, "iu": n,
                     "abstol": 0.0, "m": 0, "z": np.empty(1), "ldz": 1,
                     "isuppz": np.empty(2, dtype=np.int64)})
    query_work, query_iwork = np.empty(1), np.empty(1, dtype=np.int64)
    _call_lapack(driver, **args, work=query_work, lwork=-1,
                 iwork=query_iwork, liwork=-1)
    lwork, liwork = int(query_work[0]), int(query_iwork[0])
    try:
        work, iwork = np.empty(lwork), np.empty(liwork, dtype=np.int64)
    except MemoryError as err:  # a resource limit, like the matrix's own
        raise DimensionTooLargeError(
            f"cannot allocate the {8 * (lwork + liwork)}-byte LAPACK "
            f"workspace of dimension {n}") from err
    out = _call_lapack(driver, **args, work=work, lwork=lwork, iwork=iwork,
                       liwork=liwork)
    if driver == "evr" and out["m"] != n:
        raise ConvergenceError(
            f"eigensolver failed: dsyevr found {out['m']} of {n} eigenvalues")
    return w


def _upper_triangle_in_fresh_pages(h: HamiltonianMatrix) -> np.ndarray:
    """H's diagonal and stored upper triangle in an n x n C-order array,
    the strict lower triangle left zero, in a fresh anonymous mapping.

    A page of such a mapping becomes resident when it is first touched, so
    pages that lie wholly in the strict lower triangle take no memory until
    something reads them.  ``np.zeros`` gives no such guarantee: glibc may
    serve the matrix from heap it already holds and clear all of it.  No
    huge pages are asked for: every 2 MiB of the matrix holds entries of
    the stored triangle, so they would make all of it resident.

    A mapping the system refuses for want of memory raises
    DimensionTooLargeError: the point is beyond this machine's resources.
    """
    n = h.dim
    # MAP_PRIVATE exists on POSIX only; elsewhere the plain anonymous mapping
    flags = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}
    try:
        pages = mmap.mmap(-1, 8 * n * n, **flags)
    except OSError as err:
        if err.errno != errno.ENOMEM:
            raise
        raise DimensionTooLargeError(
            f"cannot map the {8 * n * n}-byte dense matrix of dimension {n}: "
            f"{err.strerror}") from err
    a = np.frombuffer(pages, dtype=np.float64).reshape(n, n)
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

    The solve calls the LAPACK of numpy's OpenBLAS, so no process loads
    scipy for it; where numpy uses another LAPACK, ``scipy.linalg.eigh``
    runs the same driver.
    """
    check_dense_limit(h.dim, compute_vectors)
    dense = _upper_triangle_in_fresh_pages(h).T
    if _LAPACK is not None:
        vals = _solve_in_place(dense, compute_vectors)
        return SpectralData(h.basis, h.params, vals,
                            dense if compute_vectors else None)
    import scipy.linalg
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
