"""Shared test oracles, all independent of the library implementation paths
they are used to check, and a runner for code that needs a fresh process."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import xlogy

import tiltedbh
from tiltedbh.diagnostics import NORM_ATOL, NotNormalizedError
from tiltedbh.dynamics import AnalyticCurveInputs, TimeGrid, b2_form_factor
from tiltedbh.spectrum import MissingEigenvectorsError

# Gap-ratio references besides the library's R_GOE: the 3x3 surmise value
# and the other large-size value in circulation.
R_GOE_SURMISE = 0.5307
R_GOE_LARGE = 0.536


def fresh_python_env() -> dict:
    """The environment under which a new interpreter imports the package
    from where the tests import it."""
    src = str(Path(tiltedbh.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_in_fresh_python(code: str, returncode: int = 0) -> str:
    """Standard output of ``code`` run by a new interpreter, which imports
    the package from where the tests import it, and must exit with
    ``returncode``."""
    run = subprocess.run([sys.executable, "-c", code], env=fresh_python_env(),
                         capture_output=True, text=True)
    assert run.returncode == returncode, run.stderr
    return run.stdout


def fake_lapack(monkeypatch, routine, lwork=1, **outputs):
    """Replace the LAPACK ``routine`` that ``spectrum.diagonalize`` calls
    ("syevr" without vectors; "sytrd", "stedc" or "ormtr", the steps of
    the solve with them) by one that answers a workspace query with
    ``lwork`` and, when asked to solve, only sets its integer ``outputs``
    (such as ``info``) and leaves the arrays as they are."""
    from tiltedbh import spectrum

    names = list(spectrum._LAPACK_ARGUMENTS[routine])

    def fake(*values):
        args = dict(zip(names, values))
        if args["lwork"].value == -1:
            args["work"][0] = lwork
            if "iwork" in args:
                args["iwork"][0] = 1
            return
        for name, value in outputs.items():
            args[name].value = value

    monkeypatch.setattr(spectrum, "_LAPACK",
                        {**(spectrum._LAPACK or {}), routine: fake})


def compositions(n, m):
    """Recursive generator of all occupation tuples of n bosons on m sites."""
    if m == 1:
        yield (n,)
        return
    for k in range(n, -1, -1):
        for rest in compositions(n - k, m - 1):
            yield (k,) + rest


def brute_force_dense(states, u, d, j=1.0):
    """Dense Hamiltonian built by applying the operators state by state,
    with a dictionary lookup instead of combinatorial ranking."""
    states = [tuple(int(x) for x in row) for row in states]
    index = {s: i for i, s in enumerate(states)}
    dim = len(states)
    m = len(states[0])
    h = np.zeros((dim, dim))
    for i, s in enumerate(states):
        for site in range(m):
            n = s[site]
            h[i, i] += 0.5 * u * n * (n - 1) + d * (site + 1) * n
        for site in range(m - 1):
            if s[site] > 0:
                # b_{site+1}^dag b_site |s>
                t = list(s)
                amp = np.sqrt(t[site] * (t[site + 1] + 1))
                t[site] -= 1
                t[site + 1] += 1
                jdx = index[tuple(t)]
                h[jdx, i] += -j * amp
                h[i, jdx] += -j * amp
    return h


def dense_partial_trace_entropy(state, states, site, n_bosons):
    """Entropy of the one-site reduced density matrix built explicitly.

    Groups basis states by the occupations of all *other* sites, assembles
    the full (N+1) x (N+1) matrix and diagonalizes it.
    """
    state = np.asarray(state)
    groups = {}
    for k, occ in enumerate(states):
        rest = tuple(int(x) for i, x in enumerate(occ) if i != site)
        groups.setdefault(rest, []).append((int(occ[site]), k))
    rho = np.zeros((n_bosons + 1, n_bosons + 1), dtype=complex)
    for members in groups.values():
        for n_a, k_a in members:
            for n_b, k_b in members:
                rho[n_a, n_b] += state[k_a] * np.conj(state[k_b])
    evals = np.linalg.eigvalsh(rho)
    evals = evals[evals > 1e-14]
    return float(-(evals * np.log(evals)).sum())


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


# -- random-matrix references ------------------------------------------------


def goe_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Real symmetric GOE sample: off-diagonal variance 1/2, diagonal variance 1."""
    a = rng.standard_normal((dim, dim))
    return (a + a.T) / 2.0


def goe_spectrum(dim: int, rng: np.random.Generator) -> np.ndarray:
    return np.linalg.eigvalsh(goe_matrix(dim, rng))


def poisson_spectrum(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Sorted iid uniform levels on [0, dim), i.e. unit mean spacing."""
    return np.sort(rng.uniform(0.0, float(dim), size=dim))


# -- per-state indicators -----------------------------------------------------


def _probabilities(state) -> np.ndarray:
    c = np.asarray(state)
    p = np.abs(c) ** 2 if np.iscomplexobj(c) else c.astype(np.float64) ** 2
    total = p.sum()
    if abs(total - 1.0) > NORM_ATOL:
        raise NotNormalizedError(f"state norm^2 = {total!r}, expected 1")
    return p


def participation_ratio(amplitudes) -> float:
    """PR = 1 / sum_k |c_k|^4 of a normalized state; 1 (localized) to dim."""
    p = _probabilities(amplitudes)
    return float(1.0 / (p ** 2).sum())


def single_site_entropy(state, basis, site: int) -> float:
    """Entanglement entropy (nats) between site ``site`` (0-based) and the rest."""
    if not 0 <= site < basis.n_sites:
        raise IndexError(f"site {site} out of range [0, {basis.n_sites})")
    p = _probabilities(state)
    occ_probs = np.bincount(
        basis.states[:, site], weights=p, minlength=basis.n_bosons + 1
    )
    return float(-xlogy(occ_probs, occ_probs).sum())


def half_chain_imbalance(state, basis) -> float:
    """Expectation of (n_left - n_right)/N, in [-1, 1]; for odd chains the
    left half holds the extra site."""
    p = _probabilities(state)
    left = (basis.n_sites + 1) // 2
    n_l = basis.states[:, :left].sum(axis=1)
    n_r = basis.states[:, left:].sum(axis=1)
    return float(p @ ((n_l - n_r) / basis.n_bosons))


# -- per-state evolution --------------------------------------------------------


def linear_time_grid(t_min: float, t_max: float, n_points: int) -> TimeGrid:
    return TimeGrid(np.linspace(t_min, t_max, n_points))


def evolve_amplitudes(initial, spectral) -> np.ndarray:
    """Eigenbasis coefficients c_m of a Fock initial state."""
    if not spectral.has_vectors:
        raise MissingEigenvectorsError("evolution requires eigenvectors")
    k = spectral.basis.rank(initial)
    return spectral.eigenvectors[k, :].copy()


def fock_amplitudes_at(coefficients, spectral, time: float) -> np.ndarray:
    """Complex Fock-basis amplitudes of evolved states at one time (rows)."""
    if not spectral.has_vectors:
        raise MissingEigenvectorsError("evolution requires eigenvectors")
    c = np.atleast_2d(np.asarray(coefficients, dtype=np.float64))
    phase = spectral.eigenvalues * time
    a_re = c * np.cos(phase)
    a_im = c * (-np.sin(phase))
    vt = spectral.eigenvectors.T
    return (a_re @ vt) + 1j * (a_im @ vt)


# -- survival probability and analytic curve, as plain expressions ------------
# The library evaluates these with in-place buffers; the tests require
# bit-identical results from the expressions below.


def survival_probability_reference(coefficients, eigenvalues, times):
    """(n_states, n_times) survival probabilities, w @ cos and w @ sin."""
    w = np.abs(np.atleast_2d(coefficients)) ** 2
    phase = np.asarray(eigenvalues)[:, None] * np.asarray(times)[None, :]
    re = w @ np.cos(phase)
    im = w @ np.sin(phase)
    return re ** 2 + im ** 2


def _gaussian_kde_reference(grid, centers, weights, bandwidth, chunk=512):
    out = np.zeros_like(grid)
    norm = 1.0 / (np.sqrt(2.0 * np.pi) * bandwidth)
    for a in range(0, centers.size, chunk):
        b = min(a + chunk, centers.size)
        z = (grid[:, None] - centers[None, a:b]) / bandwidth
        out += (np.exp(-0.5 * z ** 2) @ weights[a:b])
    return out * norm


def curve_inputs_reference(coefficients, eigenvalues) -> AnalyticCurveInputs:
    """The library's estimate_curve_inputs, with the weights and the plateau
    computed apart and every kernel as one expression."""
    w = np.abs(np.atleast_2d(coefficients)) ** 2
    weights = w.mean(axis=0)
    ipr = float((w ** 2).sum(axis=1).mean())
    energies = np.asarray(eigenvalues, dtype=np.float64)
    span = energies.max() - energies.min()

    w_mean = float(weights @ energies)
    w_sd = float(np.sqrt(max(weights @ energies ** 2 - w_mean ** 2, 0.0)))
    central = energies[np.abs(energies - w_mean) <= 2.0 * max(w_sd, 1e-12 * span)]
    if central.size < 2:
        central = energies
    floor = 2.0 * (central.max() - central.min()) / max(central.size - 1, 1)
    floor = max(floor, 1e-12 * span)

    n_eff = 1.0 / (weights ** 2).sum()
    ldos_bandwidth = max(0.9 * w_sd * n_eff ** (-0.2), floor)
    dos_bandwidth = max(0.9 * energies.std() * energies.size ** (-0.2), floor)

    pad = 4.0 * max(ldos_bandwidth, dos_bandwidth)
    grid = np.linspace(energies.min() - pad, energies.max() + pad, 2048)
    rho = _gaussian_kde_reference(grid, energies, weights, ldos_bandwidth)
    dos = _gaussian_kde_reference(grid, energies, np.full(energies.size, 1.0),
                                  dos_bandwidth)
    dos = np.maximum(dos, 1e-300)

    rho = rho / np.trapezoid(rho, grid)
    eta = float(1.0 / np.trapezoid(rho ** 2 / dos, grid))
    mean_dos = float(np.trapezoid(rho * dos, grid))
    return AnalyticCurveInputs(grid, rho, mean_dos, eta, ipr)


def analytic_curve_reference(inputs: AnalyticCurveInputs, times) -> np.ndarray:
    """Dip-ramp-plateau curve with |sum rho_w exp(-i t E)|^2 as one expression."""
    t = np.asarray(times)
    grid = inputs.energy_grid
    quad = np.empty_like(grid)
    quad[1:-1] = 0.5 * (grid[2:] - grid[:-2])
    quad[0] = 0.5 * (grid[1] - grid[0])
    quad[-1] = 0.5 * (grid[-1] - grid[-2])
    rho_w = inputs.ldos * quad
    rho_w = rho_w / rho_w.sum()
    spbc = np.abs(np.exp(-1j * t[:, None] * grid[None, :]) @ rho_w) ** 2
    tau = t / (2.0 * np.pi * inputs.mean_dos)
    prefactor = (1.0 - inputs.ipr) / (inputs.eta - 1.0)
    return prefactor * (inputs.eta * spbc - b2_form_factor(tau)) + inputs.ipr
