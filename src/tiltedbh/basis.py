"""Number-conserving bosonic Fock basis: enumeration, ranking and unranking.

The canonical order is lexicographically *decreasing* occupation vectors,
so ``(N, 0, ..., 0)`` has index 0 and ``(0, ..., 0, N)`` has index
``dim - 1``.  With this order the rank of a state is a sum of sector sizes
(states of k bosons on s sites), read in O(M) from one table, which
keeps Hamiltonian assembly linear in the number of stored matrix elements.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["dimension", "FockBasis", "DimensionTooLargeError"]

_INDEX_MAX = np.iinfo(np.int64).max


class DimensionTooLargeError(ValueError, OverflowError):
    """A size beyond the 64-bit index range or a fixed dense-solve limit.

    Memory the machine refuses is a MemoryError instead; a sweep point ends
    ``skipped_dimension`` for either.
    """


def dimension(n_bosons: int, n_sites: int) -> int:
    """Hilbert-space dimension C(M+N-1, N) for N bosons on M sites.

    Evaluated in exact integer arithmetic.  Raises DimensionTooLargeError,
    an OverflowError, if the count does not fit the 64-bit basis index type
    (it never wraps).
    """
    if n_bosons < 1 or n_sites < 1:
        raise ValueError(
            f"need n_bosons >= 1 and n_sites >= 1, got ({n_bosons}, {n_sites})"
        )
    dim = math.comb(n_sites + n_bosons - 1, n_bosons)
    if dim > _INDEX_MAX:
        raise DimensionTooLargeError(
            f"basis dimension {dim} for (N={n_bosons}, M={n_sites}) exceeds "
            f"the 64-bit index range"
        )
    return dim


class FockBasis:
    """Canonical basis of N-boson occupation vectors on M sites.

    Ranking and unranking work from a table of sector sizes alone; the full
    state table is only materialized on first access to :attr:`states`.
    """

    def __init__(self, n_bosons: int, n_sites: int):
        self.n_bosons = int(n_bosons)
        self.n_sites = int(n_sites)
        self.dim = dimension(self.n_bosons, self.n_sites)
        # sizes[k, s] = states of k bosons on s sites, at most dim, summed
        # over the first site's occupation; the zero last row is k = -1
        self._sizes = np.zeros((self.n_bosons + 2, self.n_sites + 1), np.int64)
        self._sizes[0, 0] = 1
        for s in range(1, self.n_sites + 1):
            np.cumsum(self._sizes[:-1, s - 1], out=self._sizes[:-1, s])
        self._states: np.ndarray | None = None

    def __len__(self) -> int:
        return self.dim

    def __repr__(self) -> str:
        return (
            f"FockBasis(n_bosons={self.n_bosons}, n_sites={self.n_sites}, "
            f"dim={self.dim})"
        )

    # -- enumeration ------------------------------------------------------

    @property
    def states(self) -> np.ndarray:
        """(dim, M) integer array of occupation vectors in canonical order."""
        if self._states is None:
            self._states = self._enumerate()
            self._states.setflags(write=False)
        return self._states

    def _enumerate(self) -> np.ndarray:
        # memoized bottom-up over sites: tails[r] holds the states of r
        # bosons on the last k - 1 sites, and pass k stacks, for each n, one
        # block per leading occupation n - r = n, ..., 0 over tails[r] (the
        # last pass only for n = N).  A plain loop holds no reference cycle,
        # so reference counting frees each pass's tables in the next.
        n_max, m = self.n_bosons, self.n_sites
        tails = [np.full((1, 1), n, dtype=np.int32) for n in range(n_max + 1)]
        for k in range(2, m + 1):
            tails = [np.vstack([
                np.hstack([np.full((len(rest), 1), n - r, dtype=np.int32), rest])
                for r, rest in enumerate(tails[:n + 1])
            ]) for n in (range(n_max + 1) if k < m else [n_max])]
        return tails[-1]

    # -- ranking ----------------------------------------------------------

    def rank(self, occupations) -> int:
        """Canonical index of an occupation vector, computed in O(M)."""
        occ = np.asarray(occupations, dtype=np.int64)
        if occ.ndim != 1:
            raise ValueError("expected a single occupation vector")
        return int(self.ranks(occ)[0])

    def ranks(self, states) -> np.ndarray:
        """Vectorized :meth:`rank` for a (K, M) array of valid states."""
        occ = np.asarray(states, dtype=np.int64)
        occ = np.atleast_2d(occ)
        if occ.shape[1] != self.n_sites:
            raise ValueError(f"states must have {self.n_sites} columns")
        if (occ < 0).any() or (occ.sum(axis=1) != self.n_bosons).any():
            raise ValueError("states contain invalid occupation vectors")
        m = self.n_sites
        rank = np.zeros(occ.shape[0], dtype=np.int64)
        rem = np.full(occ.shape[0], self.n_bosons, dtype=np.int64)
        for i in range(m - 1):
            # number of states with a larger occupation at site i
            rank += self._sizes[rem - occ[:, i] - 1, m - i]
            rem -= occ[:, i]
        return rank

    def _hops(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """(src, dst) of every hop of a boson from site i to i + 1: only
        site i's rank term changes, by the states of the bosons right of i
        on the M - i - 1 sites after it, so dst > src."""
        states = self.states
        src = np.nonzero(states[:, i])[0]
        right = states[src, i + 1:].sum(axis=1)
        return src, src + self._sizes[right, self.n_sites - i - 1]

    def unrank(self, index: int) -> np.ndarray:
        """Occupation vector at a canonical index (inverse of :meth:`rank`)."""
        idx = int(index)
        if not 0 <= idx < self.dim:
            raise IndexError(f"basis index {index} out of range [0, {self.dim})")
        m = self.n_sites
        occ = np.zeros(m, dtype=np.int32)
        rem = self.n_bosons
        for i in range(m - 1):
            # sizes[j - 1, m - i] states have fewer than j bosons right of i
            j = int(np.searchsorted(self._sizes[:rem + 1, m - i], idx,
                                    side="right"))
            idx -= int(self._sizes[j - 1, m - i])
            occ[i] = rem - j
            rem = j
        occ[m - 1] = rem
        return occ
