"""Reference computations made apart from the library, used to check outputs.

The Fock basis is enumerated recursively in the documented canonical order
(lexicographically decreasing occupation vectors), the Hamiltonian is
assembled by applying the hopping operators state by state with a
dictionary lookup in place of ranking, and quench dynamics come from
``scipy.sparse.linalg.expm_multiply`` with no eigendecomposition.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply


def fock_states(n_bosons: int, n_sites: int) -> list[tuple[int, ...]]:
    """All occupation tuples, lexicographically decreasing."""
    if n_sites == 1:
        return [(n_bosons,)]
    out = []
    for k in range(n_bosons, -1, -1):
        out.extend((k,) + rest for rest in fock_states(n_bosons - k, n_sites - 1))
    return out


class Chain:
    """Tilted Bose-Hubbard chain built by brute force in the canonical basis."""

    def __init__(self, n_bosons: int, n_sites: int, u: float, d: float,
                 j: float = 1.0):
        self.n_bosons, self.n_sites = n_bosons, n_sites
        self.states = fock_states(n_bosons, n_sites)
        self.index = {s: i for i, s in enumerate(self.states)}
        self.occ = np.array(self.states, dtype=np.int64)
        self.dim = len(self.states)
        rows, cols, vals = [], [], []
        for a, s in enumerate(self.states):
            diag = sum(0.5 * u * x * (x - 1) + d * (i + 1) * x
                       for i, x in enumerate(s))
            rows.append(a)
            cols.append(a)
            vals.append(diag)
            for i in range(n_sites - 1):
                for src, dst in ((i, i + 1), (i + 1, i)):
                    if s[src] == 0:
                        continue
                    t = list(s)
                    amp = math.sqrt(t[src] * (t[dst] + 1))
                    t[src] -= 1
                    t[dst] += 1
                    rows.append(self.index[tuple(t)])
                    cols.append(a)
                    vals.append(-j * amp)
        self.h = sp.csr_matrix((vals, (rows, cols)), shape=(self.dim, self.dim))

    @property
    def diagonal(self) -> np.ndarray:
        return self.h.diagonal()

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.h.toarray())

    def energy_variance(self, idx) -> np.ndarray:
        """<k|H^2|k> - <k|H|k>^2 for basis states k: the squared row norm
        of the off-diagonal part."""
        off = self.h - sp.diags(self.diagonal)
        return np.asarray(off.multiply(off).sum(axis=0)).ravel()[idx]

    def evolve(self, idx, times):
        """Columns exp(-iHt)|k> for basis states k, shape (dim, len(idx)), at
        each of the increasing ``times``; each is propagated from the last."""
        psi = np.zeros((self.dim, len(idx)), dtype=complex)
        psi[np.asarray(idx), np.arange(len(idx))] = 1.0
        generator = -1j * self.h.astype(complex)
        last = 0.0
        for t in times:
            psi = expm_multiply((t - last) * generator, psi)
            last = t
            yield psi

    def site_entropy_mean(self, probs: np.ndarray) -> np.ndarray:
        """Site-averaged single-site entropy per column of ``probs``."""
        total = np.zeros(probs.shape[1])
        for i in range(self.n_sites):
            dist = np.zeros((self.n_bosons + 1, probs.shape[1]))
            np.add.at(dist, self.occ[:, i], probs)
            logs = np.log(np.where(dist > 0, dist, 1.0))
            total += -(dist * logs).sum(axis=0)
        return total / self.n_sites

    def imbalance_weights(self) -> np.ndarray:
        left = (self.n_sites + 1) // 2
        return (self.occ[:, :left].sum(axis=1)
                - self.occ[:, left:].sum(axis=1)) / self.n_bosons

    def observables(self, idx, psi) -> dict:
        """Ensemble means of survival, entropy and imbalance, from the
        evolved states ``psi`` whose columns started at basis states ``idx``."""
        probs = np.abs(psi) ** 2
        surv = probs[np.asarray(idx), np.arange(len(idx))]
        return {
            "survival": float(surv.mean()),
            "entropy": float(self.site_entropy_mean(probs).mean()),
            "imbalance": float((self.imbalance_weights() @ probs).mean()),
        }


def mean_gap_ratio(eigenvalues, edge_discard: float = 0.1) -> float:
    e = np.sort(np.asarray(eigenvalues))
    k = int(round(edge_discard * e.size))
    s = np.diff(e[k: e.size - k])
    return float((np.minimum(s[:-1], s[1:]) / np.maximum(s[:-1], s[1:])).mean())


def page_value(n_bosons: int, n_sites: int) -> float:
    f, n = 1.0 / n_sites, n_bosons / n_sites
    return (n_sites * f * ((n + 1) * math.log(n + 1) - n * math.log(n))
            + 0.5 * (f + math.log(1 - f)))


def energy_window_states(ref: Chain, *, count: int, seed: int,
                         halfwidth: float, cap: int) -> np.ndarray:
    """Seeded energy-window ensemble: capped states whose diagonal energy in
    the reference chain ``ref`` lies within ``halfwidth`` spectral widths of
    the spectral centre, ``count`` of them drawn without replacement with a
    Philox stream."""
    diag = ref.diagonal
    centre = diag.sum() / ref.dim
    width = math.sqrt(ref.h.multiply(ref.h).sum() / ref.dim - centre ** 2)
    capped = (ref.occ <= cap).all(axis=1)
    candidates = np.nonzero(capped & (np.abs(diag - centre) <= halfwidth * width))[0]
    if candidates.size == count:
        return candidates
    rng = np.random.Generator(np.random.Philox(int(seed)))
    pick = rng.choice(candidates.size, size=count, replace=False, shuffle=False)
    return np.sort(candidates[pick])


def imbalanced_states(n_bosons: int, n_sites: int, cap: int) -> np.ndarray:
    """Every capped state with an empty left half."""
    occ = np.array(fock_states(n_bosons, n_sites))
    left = (n_sites + 1) // 2
    return np.nonzero((occ[:, :left] == 0).all(axis=1)
                      & (occ <= cap).all(axis=1))[0]
