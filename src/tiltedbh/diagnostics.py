"""Per-eigenstate static indicators: participation ratio, single-site
entanglement entropy against its typical-state reference, and half-chain
imbalance, evaluated for all eigenstates at once.

Because total boson number is fixed, the reduced density matrix of one
site is diagonal in the occupation basis (the rest of the chain pins the
site occupation), so S^(i) = -sum_n p_n ln p_n with
p_n = sum over basis states with n bosons on site i of |c|^2.  The dense
partial trace exists only as a test oracle.  All entropies are in nats.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log, log1p, nan

import numpy as np

from .basis import FockBasis
from .spectrum import MissingEigenvectorsError, SpectralData, normalized_energies
from .tables import write_table

__all__ = [
    "NotNormalizedError",
    "EmptyWindowError",
    "goe_participation_reference",
    "page_value",
    "left_half_site_count",
    "imbalance_diagonal",
    "occupation_onehot",
    "occupation_distributions",
    "entropy_from_distributions",
    "central_window_average",
    "EigenstateDiagnostics",
    "eigenstate_diagnostics",
    "write_eigenstate_csv",
]

NORM_ATOL = 1e-10


class NotNormalizedError(ValueError):
    pass


class EmptyWindowError(ValueError):
    pass


def goe_participation_reference(dim: int) -> float:
    """Delocalization reference for chaotic states, dim / 3."""
    return dim / 3.0


def page_value(n_bosons: int, n_sites: int) -> float:
    """Typical single-site entanglement entropy of chaotic states (nats).

    With volume V = M, subsystem fraction f = 1/M and density n = N/V:

        S = V f [(n+1) ln(n+1) - n ln n] + (f + ln(1 - f)) / 2
    """
    if n_sites < 2:
        raise ValueError("need at least two sites")
    v = n_sites
    f = 1.0 / n_sites
    n = n_bosons / v
    return v * f * ((n + 1.0) * log(n + 1.0) - n * log(n)) + 0.5 * (f + log1p(-f))


def left_half_site_count(n_sites: int) -> int:
    """ceil(M/2): for odd chains the left half holds the extra site."""
    return (n_sites + 1) // 2


def imbalance_diagonal(basis: FockBasis) -> np.ndarray:
    """(n_left - n_right)/N for every basis state, as a length-dim vector."""
    left = left_half_site_count(basis.n_sites)
    n_l = basis.states[:, :left].sum(axis=1)
    n_r = basis.states[:, left:].sum(axis=1)
    return (n_l - n_r) / float(basis.n_bosons)


def occupation_onehot(basis: FockBasis) -> np.ndarray:
    """Indicator matrix of shape (M*(N+1), dim): row i*(N+1) + n marks the
    basis states with n bosons on site i, so ``p @ onehot.T`` sums Fock
    probabilities into site-occupation distributions."""
    m, nmax = basis.n_sites, basis.n_bosons
    onehot = np.zeros((m * (nmax + 1), basis.dim))
    cols = np.arange(basis.dim)
    for i in range(m):
        onehot[i * (nmax + 1) + basis.states[:, i], cols] = 1.0
    return onehot


def occupation_distributions(probabilities, basis: FockBasis) -> np.ndarray:
    """Site-occupation distributions p[..., i, n] from Fock-basis probabilities.

    ``probabilities`` has shape (..., dim); the result has shape
    (..., M, N+1) and each (i, :) slice sums to 1.
    """
    p = np.atleast_2d(np.asarray(probabilities, dtype=np.float64))
    dist = p @ occupation_onehot(basis).T
    dist = dist.reshape(p.shape[:-1] + (basis.n_sites, basis.n_bosons + 1))
    if np.ndim(probabilities) == 1:
        return dist[0]
    return dist


def entropy_from_distributions(distributions) -> np.ndarray:
    """-sum_n p_n ln p_n over the last axis, with 0 ln 0 = 0; NaN where an
    entry is negative or NaN.

    Each p ln p is taken with the C library's scalar ``log``, as
    ``scipy.special.xlogy`` takes it, so the entropies are bit-identical to
    ``-xlogy(p, p).sum(-1)`` without loading scipy.  ``np.log`` is not:
    its vectorized kernels may differ from the C library by one ulp.
    """
    d = np.asarray(distributions, dtype=np.float64)
    terms = np.full_like(d, nan)  # stays NaN where p is negative or NaN
    terms[d == 0] = 0.0
    positive = d > 0
    p = d[positive]
    terms[positive] = p * np.fromiter(map(log, p.tolist()), np.float64, p.size)
    return -terms.sum(axis=-1)


def central_window_average(values, window: float = 0.8) -> float:
    """Mean over the central fraction of entries, selected by index.

    ``values`` must be ordered by spectral index; ``window`` = 0.8 keeps
    the middle 80% of the eigenstates.
    """
    if not 0.0 < window <= 1.0:
        raise EmptyWindowError(f"window must lie in (0, 1], got {window}")
    v = np.asarray(values)
    keep = int(round(window * v.size))
    if keep < 1:
        raise EmptyWindowError(
            f"window {window} selects no entries out of {v.size}"
        )
    start = (v.size - keep) // 2
    return float(v[start: start + keep].mean())


@dataclass
class EigenstateDiagnostics:
    """Static per-eigenstate indicators, ordered by eigenvalue index."""

    participation: np.ndarray        # (dim,)
    site_entropy: np.ndarray         # (dim, M), nats
    entropy_mean: np.ndarray         # (dim,), site average
    imbalance: np.ndarray            # (dim,)
    page: float                      # reference entropy
    participation_goe: float         # dim / 3


def eigenstate_diagnostics(spectral: SpectralData,
                           chunk: int = 2048) -> EigenstateDiagnostics:
    """All static indicators for every eigenstate of a diagonalized point."""
    if not spectral.has_vectors:
        raise MissingEigenvectorsError("eigenvectors required for diagnostics")
    basis = spectral.basis
    dim = spectral.dim
    imb_diag = imbalance_diagonal(basis)
    pr = np.empty(dim)
    ent = np.empty((dim, basis.n_sites))
    imb = np.empty(dim)
    vecs = spectral.eigenvectors
    for a in range(0, dim, chunk):
        b = min(a + chunk, dim)
        probs = (vecs[:, a:b] ** 2).T  # rows = eigenstates
        pr[a:b] = 1.0 / (probs ** 2).sum(axis=1)
        ent[a:b] = entropy_from_distributions(
            occupation_distributions(probs, basis)
        )
        imb[a:b] = probs @ imb_diag
    return EigenstateDiagnostics(
        participation=pr,
        site_entropy=ent,
        entropy_mean=ent.mean(axis=1),
        imbalance=imb,
        page=page_value(basis.n_bosons, basis.n_sites),
        participation_goe=goe_participation_reference(dim),
    )


def write_eigenstate_csv(path, eigenvalues, diag: EigenstateDiagnostics,
                         metadata: dict | None = None) -> None:
    """Per-state CSV: index, energy, normalized energy, PR, site entropies,
    entropy average, imbalance."""
    eps = normalized_energies(eigenvalues)
    sites = [f"s_site_{i + 1}" for i in range(diag.site_entropy.shape[1])]
    columns = ["index", "energy", "normalized_energy", "pr", *sites,
               "s_avg", "imbalance"]
    rows = ((i, eigenvalues[i], eps[i], diag.participation[i],
             *diag.site_entropy[i], diag.entropy_mean[i], diag.imbalance[i])
            for i in range(len(eigenvalues)))
    write_table(path, columns, rows, metadata)
