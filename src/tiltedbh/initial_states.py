"""Ensembles of initial Fock product states for the quench protocols.

Two protocols are implemented:

* occupation-capped random states whose diagonal energies fall in a window
  around the spectral center of a fixed *reference* Hamiltonian (the same
  state set is reused while the quench parameters are swept);
* maximally imbalanced states, all bosons on the right half of the chain.

The mean energy of a Fock state equals its diagonal matrix element since
the hopping expectation vanishes in occupation eigenstates, so selection
never requires diagonalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hamiltonian
from .basis import FockBasis
from .diagnostics import left_half_site_count
from .hamiltonian import HamiltonianMatrix, ModelParams
from .tables import write_json

__all__ = [
    "make_rng",
    "StateEnsemble",
    "InsufficientCandidatesError",
    "spectral_moments",
    "sample_energy_window",
    "maximally_imbalanced_states",
    "write_state_manifest",
]


def make_rng(seed: int) -> np.random.Generator:
    """The generator of every sample.  Philox is counter based, so a fixed
    seed gives bit-identical streams on every platform and for any worker
    count; the seed is echoed into every output file that depends on it."""
    return np.random.Generator(np.random.Philox(int(seed)))


class InsufficientCandidatesError(ValueError):
    pass


@dataclass
class StateEnsemble:
    """A selected set of Fock states, with everything needed to reproduce it."""

    indices: np.ndarray        # canonical basis indices, ascending
    occupations: np.ndarray    # (n_states, M)
    diagonal_energies: np.ndarray | None
    metadata: dict

    def __len__(self) -> int:
        return self.indices.size

    def to_manifest(self) -> dict:
        out = dict(self.metadata)
        out["n_states"] = int(self.indices.size)
        out["basis_indices"] = [int(i) for i in self.indices]
        out["occupations"] = [list(map(int, row)) for row in self.occupations]
        if self.diagonal_energies is not None:
            out["diagonal_energies"] = [float(e) for e in self.diagonal_energies]
        return out


def spectral_moments(h: HamiltonianMatrix) -> tuple[float, float]:
    """Spectral mean and standard deviation from traces, no diagonalization.

    E_c = tr(H)/dim and dE = sqrt(tr(H^2)/dim - E_c^2).
    """
    dim = h.dim
    center = h.trace() / dim
    second = h.trace_of_square() / dim
    return center, float(np.sqrt(second - center ** 2))


def sample_energy_window(basis: FockBasis, *, sample_count: int,
                         reference: ModelParams, window_halfwidth: float,
                         occupation_cap: int, seed: int) -> StateEnsemble:
    """Seeded sample, without replacement, of ``sample_count`` capped states
    inside the central energy window of the ``reference`` Hamiltonian.

    The window is [E_c - w * dE, E_c + w * dE] with (E_c, dE) the mean and
    standard deviation of the reference spectrum and w the halfwidth.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    if window_halfwidth <= 0:
        raise ValueError("window_halfwidth must be positive")
    if occupation_cap < 1:
        raise ValueError("occupation_cap must be at least 1")
    h_ref = hamiltonian.build(basis, reference)
    e_center, e_sd = spectral_moments(h_ref)
    half = window_halfwidth * e_sd
    capped = (basis.states <= occupation_cap).all(axis=1)
    inside = np.abs(h_ref.diagonal - e_center) <= half
    candidates = np.nonzero(capped & inside)[0]
    if candidates.size < sample_count:
        raise InsufficientCandidatesError(
            f"window holds {candidates.size} candidate states, "
            f"need {sample_count}"
        )
    pick = make_rng(seed).choice(candidates.size, size=sample_count,
                                 replace=False, shuffle=False)
    chosen = np.sort(candidates[pick])
    occ = basis.states[chosen]
    energies = h_ref.diagonal[chosen]
    meta = {
        "protocol": "energy_window",
        "sampling": "uniform_without_replacement",
        "rng": "philox",
        "rng_seed": int(seed),
        "n_bosons": basis.n_bosons,
        "n_sites": basis.n_sites,
        "occupation_cap": int(occupation_cap),
        "window_halfwidth": float(window_halfwidth),
        "window_bounds": [float(e_center - half), float(e_center + half)],
        "spectral_center": float(e_center),
        "spectral_sd": float(e_sd),
        "reference_u": reference.u,
        "reference_d": reference.d,
        "reference_j": 1.0,  # energies are in units of the hopping
        "n_candidates": int(candidates.size),
    }
    return StateEnsemble(chosen, occ, energies, meta)


def maximally_imbalanced_states(basis: FockBasis, *, occupation_cap: int,
                                max_states: int | None,
                                seed: int) -> StateEnsemble:
    """All capped states with every boson on the right half (imbalance -1);
    a seeded subsample of ``max_states`` of them when there are more."""
    if occupation_cap < 1:
        raise ValueError("occupation_cap must be at least 1")
    if max_states is not None and max_states < 1:
        raise ValueError("max_states must be at least 1 when set")
    left = left_half_site_count(basis.n_sites)
    ok = (basis.states[:, :left] == 0).all(axis=1)
    ok &= (basis.states <= occupation_cap).all(axis=1)
    chosen = np.nonzero(ok)[0]
    n_qualifying = int(chosen.size)
    if not n_qualifying:
        capacity = (basis.n_sites - left) * occupation_cap
        raise InsufficientCandidatesError(
            f"no state holds all {basis.n_bosons} bosons on the right half: "
            f"its {basis.n_sites - left} sites take at most {capacity} "
            f"under occupation_cap {occupation_cap}"
        )
    if max_states is not None and chosen.size > max_states:
        rng = make_rng(seed)
        pick = rng.choice(chosen.size, size=max_states,
                          replace=False, shuffle=False)
        chosen = np.sort(chosen[pick])
    meta = {
        "protocol": "maximal_imbalance",
        "target_imbalance": -1.0,
        "rng": "philox",
        "rng_seed": int(seed),
        "n_bosons": basis.n_bosons,
        "n_sites": basis.n_sites,
        "occupation_cap": int(occupation_cap),
        "left_sites": left,
        "n_qualifying": n_qualifying,
        "max_states": max_states,
    }
    return StateEnsemble(chosen, basis.states[chosen], None, meta)


def write_state_manifest(path, ensemble: StateEnsemble,
                         extra: dict | None = None) -> None:
    write_json(path, ensemble.to_manifest(), extra)
