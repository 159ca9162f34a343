"""Full eigendecomposition and unfolding-free spectral chaos statistics.

The chaos indicator is the mean ratio of consecutive level spacings,
r_n = min(s_n, s_{n-1}) / max(s_n, s_{n-1}) with s_n = E_{n+1} - E_n,
which is independent of the density of states, so no unfolding is needed.
"""

from __future__ import annotations

import contextlib
import ctypes
import errno
import math
import mmap
import sys
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
# are computed: divide and conquer (dsyevd, run as its three steps) with
# vectors, relatively robust representations without; part of every
# eigendata cache key
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

_LAPACK_SYMBOL = "scipy_d{}_64_"
_INT = ctypes.POINTER(ctypes.c_int64)
_REAL = ctypes.POINTER(ctypes.c_double)
_REALS = np.ctypeslib.ndpointer(np.float64, flags="F_CONTIGUOUS,WRITEABLE")
_INTS = np.ctypeslib.ndpointer(np.int64, flags="F_CONTIGUOUS,WRITEABLE")
# each routine's arguments in LAPACK's order, with their types: ``dsyevr``
# solves for eigenvalues only, and the other three are the steps of
# ``dsyevd``, which solves with eigenvectors
_LAPACK_ARGUMENTS = {
    "syevr": {"jobz": ctypes.c_char_p, "range": ctypes.c_char_p,
              "uplo": ctypes.c_char_p, "n": _INT, "a": _REALS, "lda": _INT,
              "vl": _REAL, "vu": _REAL, "il": _INT, "iu": _INT,
              "abstol": _REAL, "m": _INT, "w": _REALS, "z": _REALS,
              "ldz": _INT, "isuppz": _INTS, "work": _REALS, "lwork": _INT,
              "iwork": _INTS, "liwork": _INT, "info": _INT},
    "sytrd": {"uplo": ctypes.c_char_p, "n": _INT, "a": _REALS, "lda": _INT,
              "d": _REALS, "e": _REALS, "tau": _REALS, "work": _REALS,
              "lwork": _INT, "info": _INT},
    "stedc": {"compz": ctypes.c_char_p, "n": _INT, "d": _REALS,
              "e": _REALS, "z": _REALS, "ldz": _INT, "work": _REALS,
              "lwork": _INT, "iwork": _INTS, "liwork": _INT, "info": _INT},
    "ormtr": {"side": ctypes.c_char_p, "uplo": ctypes.c_char_p,
              "trans": ctypes.c_char_p, "m": _INT, "n": _INT, "a": _REALS,
              "lda": _INT, "tau": _REALS, "c": _REALS, "ldc": _INT,
              "work": _REALS, "lwork": _INT, "info": _INT},
}


def _numpy_openblas(symbols: dict) -> dict | None:
    """The functions of the OpenBLAS numpy loaded, by the keys of
    ``symbols``, which map each to its (symbol name, argument types,
    result type); or None where one does not resolve, as where numpy uses
    another BLAS (MKL, Accelerate, a system build)."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        found = {key: getattr(lib, name)
                 for key, (name, _, _) in symbols.items()}
    except (OSError, AttributeError):
        return None
    for key, (_, argtypes, restype) in symbols.items():
        found[key].argtypes, found[key].restype = argtypes, restype
    return found


def _numpy_lapack() -> dict | None:
    """The routines of ``_LAPACK_ARGUMENTS`` in numpy's OpenBLAS, by those
    names, or None where they do not resolve."""
    symbols = {}
    for routine, kinds in _LAPACK_ARGUMENTS.items():
        types = list(kinds.values())
        # gfortran passes each character argument's length after the last
        symbols[routine] = (_LAPACK_SYMBOL.format(routine), types
                            + [ctypes.c_size_t] * types.count(ctypes.c_char_p),
                            None)
    return _numpy_openblas(symbols)


_LAPACK = _numpy_lapack()
# the thread count of numpy's OpenBLAS, which every later BLAS and LAPACK
# call of the process runs with: ``get()`` and ``set(count)``, or None
_BLAS_THREADS = _numpy_openblas({
    "get": ("scipy_openblas_get_num_threads64_", [], ctypes.c_int),
    "set": ("scipy_openblas_set_num_threads64_", [ctypes.c_int], None)})


@contextlib.contextmanager
def _blas_threads(count: int):
    """Run the block with numpy's OpenBLAS at ``count`` threads, and give
    the caller's count back after it; where the thread functions do not
    resolve, the block runs at the BLAS's own count.  A count set here
    gives the same bits as the same ``OPENBLAS_NUM_THREADS`` at start."""
    if _BLAS_THREADS is None:
        yield
        return
    saved = _BLAS_THREADS["get"]()
    _BLAS_THREADS["set"](count)
    try:
        yield
    finally:
        _BLAS_THREADS["set"](saved)


def _call_lapack(routine: str, **args) -> dict:
    """Call ``routine`` with ``args`` by their LAPACK names, every scalar by
    reference; returns the integer scalars, outputs included, by name.

    Raises ValueError for an argument LAPACK rejects and ConvergenceError
    for a positive ``info``.
    """
    kinds = _LAPACK_ARGUMENTS[routine]
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
    _LAPACK[routine](*values, *lengths)
    out = {name: value.value for name, value in zip(kinds, values)
           if isinstance(value, ctypes.c_int64)}
    if out["info"] < 0:
        raise ValueError(f"d{routine} rejected its argument {-out['info']} "
                         f"({list(kinds)[-out['info'] - 1]})")
    if out["info"] > 0:
        raise ConvergenceError(
            f"eigensolver failed to converge: d{routine} info={out['info']}")
    return out


def _eigvalsh(h: HamiltonianMatrix) -> np.ndarray:
    """Eigenvalues of H: ``dsyevr`` in H's fresh pages, with the arguments
    and workspace query of ``scipy.linalg.eigh(driver="evr")``, so they are
    the same bits."""
    n = h.dim
    a = _upper_triangle_in_fresh_pages(h).T  # its lower triangle is H's
    w = np.empty(n)
    # z and isuppz are not referenced without vectors
    args = {"jobz": "N", "range": "A", "uplo": "L", "n": n, "a": a, "lda": n,
            "vl": 0.0, "vu": 1.0, "il": 1, "iu": n, "abstol": 0.0, "m": 0,
            "w": w, "z": np.empty(1), "ldz": 1,
            "isuppz": np.empty(2, dtype=np.int64)}
    query_work, query_iwork = np.empty(1), np.empty(1, dtype=np.int64)
    _call_lapack("syevr", **args, work=query_work, lwork=-1,
                 iwork=query_iwork, liwork=-1)
    lwork, liwork = int(query_work[0]), int(query_iwork[0])
    out = _call_lapack("syevr", **args, work=np.empty(lwork), lwork=lwork,
                       iwork=np.empty(liwork, dtype=np.int64), liwork=liwork)
    if out["m"] != n:
        raise ConvergenceError(
            f"eigensolver failed: dsyevr found {out['m']} of {n} eigenvalues")
    return w


# dsyevd scales a matrix whose largest |entry| lies outside [_RMIN, _RMAX]
# into it: the square roots of LAPACK's safe minimum over its precision
# (2^-970) and of its inverse, so 2^-485 and 2^485 exactly
_RMIN = math.sqrt(sys.float_info.min / sys.float_info.epsilon)
_RMAX = 1.0 / _RMIN


def _dsyevd_scale(h: HamiltonianMatrix):
    """The factor ``dsyevd`` multiplies H by before reducing it, or None
    where it leaves H as it is: max|H| within [_RMIN, _RMAX] (or NaN), and
    dimension 1, which it returns before scaling."""
    anrm = np.abs(np.concatenate([h.diagonal, h.values])).max()
    if h.dim > 1 and 0 < anrm < _RMIN:
        return _RMIN / anrm
    if h.dim > 1 and anrm > _RMAX:
        return _RMAX / anrm
    return None


def _below_the_diagonal(n: int):
    """(j, slice): column j of an n x n matrix below its diagonal, packed
    after the columns before it."""
    start = 0
    for j in range(n - 1):
        yield j, slice(start, start + n - 1 - j)
        start += n - 1 - j


def _eigh_in_steps(h: HamiltonianMatrix):
    """Eigenvalues and eigenvectors of H: the three routines ``dsyevd``
    runs, with the arguments it passes them, so they are its bits.

    ``dsyevd`` keeps the matrix while it solves into a workspace of two
    more, then copies the vectors over the matrix: 3·8n² in all.  Here
    ``dsytrd`` reduces H in its fresh pages, and the Householder reflectors
    it leaves below the diagonal go to a mapping of their own before the
    matrix is unmapped; ``dstedc`` then writes the tridiagonal problem's
    eigenvectors into the n x n mapping that is returned, and ``dormtr``
    applies the reflectors to them from the workspace ``dstedc`` is done
    with.  The solve holds at most 2.5·8n²: the reflectors, the vectors
    and ``dstedc``'s workspace.
    """
    n = h.dim
    a = _upper_triangle_in_fresh_pages(h)  # a[j, j:] is column j of a.T
    scale = _dsyevd_scale(h)
    if scale is not None:  # dsyevd's dlascl: one multiply per entry
        a *= scale
    w, e, tau = np.empty(n), np.empty(n), np.empty(n)
    query = np.empty(1)
    _call_lapack("sytrd", uplo="L", n=n, a=a.T, lda=n, d=w, e=e, tau=tau,
                 work=query, lwork=-1)
    lwork_trd = int(query[0])
    _call_lapack("sytrd", uplo="L", n=n, a=a.T, lda=n, d=w, e=e, tau=tau,
                 work=np.empty(lwork_trd), lwork=lwork_trd)
    reflectors = _fresh_pages(n * (n - 1) // 2, "Householder reflectors", n,
                              written_whole=True)
    for j, packed in _below_the_diagonal(n):
        reflectors[packed] = a[j, j + 1:]
    del a  # the matrix's last reference: its pages are unmapped

    # the workspace dsyevd gives its last two steps: its optimal one, less
    # e, tau and the n x n eigenvectors it solves into
    lwork = max(1 + 6 * n + 2 * n * n, 2 * n + lwork_trd) - 2 * n - n * n
    z = _fresh_pages(n * n, "eigenvectors", n, written_whole=True)
    z = z.reshape(n, n).T
    work = _fresh_pages(lwork, "dstedc workspace", n, written_whole=True)
    iwork = np.empty(3 + 5 * n, dtype=np.int64)
    _call_lapack("stedc", compz="I", n=n, d=w, e=e, z=z, ldz=n, work=work,
                 lwork=lwork, iwork=iwork, liwork=iwork.size)
    v = work[:n * n].reshape(n, n)  # dormtr's n x n matrix, as v.T
    for j, packed in _below_the_diagonal(n):
        v[j, j + 1:] = reflectors[packed]
    del reflectors
    _call_lapack("ormtr", side="L", uplo="L", trans="N", m=n, n=n, a=v.T,
                 lda=n, tau=tau, c=z, ldc=n,
                 work=_fresh_pages(lwork, "dormtr workspace", n), lwork=lwork)
    if scale is not None:  # dsyevd's dscal
        w *= 1.0 / scale
    return w, z


def _fresh_pages(count: int, name: str, n: int,
                 written_whole: bool = False) -> np.ndarray:
    """``count`` float64 entries, zero, in a fresh anonymous mapping, which
    is unmapped when the last array on it is freed.

    A page of such a mapping becomes resident when it is first touched.
    ``np.empty`` gives no such guarantee: glibc may serve it from heap it
    already holds, and numpy advises huge pages for large arrays, which
    make whole 2 MiB regions resident.  A mapping that LAPACK writes
    whole gets that advice too, since it then costs no memory: on a 2-core
    Xeon VM the 7x7 solve with vectors took 4% longer than ``dsyevd`` in
    numpy's huge-page workspace with 4 KiB pages, and 7% less with huge
    pages.

    A mapping the system refuses for want of memory raises MemoryError,
    as ``np.empty`` does, naming what was to be mapped.
    """
    # MAP_PRIVATE exists on POSIX only; elsewhere the plain anonymous mapping
    flags = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}
    try:  # an empty mapping is an error, so at least one entry
        pages = mmap.mmap(-1, 8 * max(count, 1), **flags)
    except OSError as err:
        if err.errno != errno.ENOMEM:
            raise
        raise MemoryError(
            f"cannot map the {8 * count}-byte {name} of dimension {n}: "
            f"{err.strerror}") from err
    if written_whole and hasattr(mmap, "MADV_HUGEPAGE"):
        # only advice: a kernel without transparent huge pages refuses it
        with contextlib.suppress(OSError):
            pages.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(pages, dtype=np.float64)[:count]


def _upper_triangle_in_fresh_pages(h: HamiltonianMatrix) -> np.ndarray:
    """H's diagonal and stored upper triangle in an n x n C-order array,
    the strict lower triangle left zero, in fresh pages.

    Pages that lie wholly in the strict lower triangle take no memory until
    something reads them.  No huge pages are asked for: every 2 MiB of the
    matrix holds entries of the stored triangle, so they would make all of
    it resident.
    """
    n = h.dim
    a = _fresh_pages(n * n, "dense matrix", n).reshape(n, n)
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

    H's diagonal and stored upper triangle are written into fresh pages,
    and LAPACK reads them as the lower triangle of their column-major
    ``.T`` view.  Without vectors, ``dsyevr`` solves in that buffer, and
    pages lying wholly in the other triangle never become resident.  With
    vectors, the three steps of ``dsyevd`` run one by one, so the solve
    holds 2.5·8n² instead of ``dsyevd``'s 3·8n², and the eigenvectors
    come back in a mapping of their own, in Fortran order.

    The solve calls the LAPACK of numpy's OpenBLAS, so no process loads
    scipy for it, and its results are the bits of ``scipy.linalg.eigh``
    with the same driver; where numpy uses another LAPACK,
    ``scipy.linalg.eigh`` runs that driver.
    """
    check_dense_limit(h.dim, compute_vectors)
    if _LAPACK is not None and compute_vectors:
        return SpectralData(h.basis, h.params, *_eigh_in_steps(h))
    if _LAPACK is not None:
        return SpectralData(h.basis, h.params, _eigvalsh(h))
    import scipy.linalg
    try:
        solved = scipy.linalg.eigh(
            _upper_triangle_in_fresh_pages(h).T, lower=True, overwrite_a=True,
            check_finite=False, eigvals_only=not compute_vectors,
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
