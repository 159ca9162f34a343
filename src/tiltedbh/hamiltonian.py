"""Sparse real-symmetric Hamiltonian of the tilted Bose-Hubbard chain.

    H = -sum_{i=1}^{M-1} (b_i^dag b_{i+1} + h.c.)
        + sum_{i=1}^{M} [ (U/2) n_i (n_i - 1) + D i n_i ]

in units of the hopping J, with open boundaries; the tilt index i runs
from 1 at the left edge, so diagonal energies are reproducible number for
number.  Only the upper triangle of the symmetric hopping part is stored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import FockBasis
from .tables import write_table

__all__ = [
    "ModelParams",
    "HamiltonianMatrix",
    "build",
    "diagonal_energy",
    "diagonal_energies",
]


@dataclass(frozen=True)
class ModelParams:
    """Couplings in units of the hopping: interaction u and tilt d."""

    u: float
    d: float

    def __post_init__(self):
        if self.u < 0 or self.d < 0:
            raise ValueError(
                f"interaction and tilt must be non-negative, got u={self.u}, d={self.d}"
            )


def diagonal_energies(states, params: ModelParams) -> np.ndarray:
    """Diagonal matrix elements (U/2) sum n(n-1) + D sum i*n_i for many states."""
    occ = np.atleast_2d(np.asarray(states, dtype=np.int64))
    sites = np.arange(1, occ.shape[1] + 1, dtype=np.float64)
    interaction = 0.5 * params.u * (occ * (occ - 1)).sum(axis=1)
    tilt = params.d * (occ @ sites)
    return interaction + tilt


def diagonal_energy(occupations, params: ModelParams) -> float:
    """Diagonal matrix element of a single occupation vector."""
    occ = np.asarray(occupations, dtype=np.int64)
    if occ.ndim != 1:
        raise ValueError("expected a single occupation vector")
    return float(diagonal_energies(occ[None, :], params)[0])


@dataclass(eq=False, repr=False)  # identity equality; no arrays in repr
class HamiltonianMatrix:
    """Upper-triangle sparse storage of the real-symmetric Hamiltonian."""

    basis: FockBasis
    params: ModelParams
    diagonal: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.dim

    def trace(self) -> float:
        return float(self.diagonal.sum())

    def trace_of_square(self) -> float:
        """tr(H^2) = sum diag^2 + 2 sum (upper off-diagonal)^2."""
        return float((self.diagonal ** 2).sum() + 2.0 * (self.values ** 2).sum())

    def to_dense(self) -> np.ndarray:
        h = np.zeros((self.dim, self.dim))
        h[np.arange(self.dim), np.arange(self.dim)] = self.diagonal
        h[self.rows, self.cols] = self.values
        h[self.cols, self.rows] = self.values
        return h

    def export_coo(self, path, metadata: dict | None = None) -> None:
        """Write all nonzero entries as '(row col value)' text, one per line.

        Both triangles are written so external tools need no symmetry
        convention.  Optional metadata becomes leading '#' comment lines.
        """
        entries = [(i, i, v) for i, v in enumerate(self.diagonal) if v != 0.0]
        for r, c, v in zip(self.rows, self.cols, self.values):
            entries += [(r, c, v), (c, r, v)]
        write_table(path, [], entries, metadata, sep=" ")


def build(basis: FockBasis, params: ModelParams) -> HamiltonianMatrix:
    """Assemble the Hamiltonian over the canonical Fock basis.

    Off-diagonal elements connect states differing by one boson moved
    between adjacent sites, with amplitude -sqrt(n_i (n_{i+1} + 1)); the
    sqrt argument is formed in integers before the single float sqrt.
    """
    states = basis.states
    diag = diagonal_energies(states, params)

    rows_parts = [np.empty(0, dtype=np.int64)]
    cols_parts = [np.empty(0, dtype=np.int64)]
    vals_parts = [np.empty(0, dtype=np.float64)]
    for i in range(basis.n_sites - 1):
        src, dst = basis._hops(i)
        weight = states[src, i].astype(np.int64) * (states[src, i + 1] + 1)
        rows_parts.append(src)
        cols_parts.append(dst)
        vals_parts.append(-np.sqrt(weight.astype(np.float64)))

    return HamiltonianMatrix(basis, params, diag, np.concatenate(rows_parts),
                             np.concatenate(cols_parts),
                             np.concatenate(vals_parts))
