"""Quench dynamics by spectral decomposition: survival probability with its
correlation hole, time-dependent entanglement entropy and imbalance, and
the analytic dip-ramp-plateau curve with its GOE two-level form factor.

Time evolution is exact up to eigensolve accuracy: an initial Fock state
|k> has eigenbasis coefficients c_m = V[k, m], and

    S_P(t) = |sum_m |c_m|^2 exp(-i E_m t)|^2 .

The long-time average of S_P equals the inverse participation ratio
IPR = sum_m |c_m|^4; the correlation hole is the dip below that plateau at
intermediate times, with depth |1/S_Pmin - 1/IPR|.

Observable traces need the Fock-basis probabilities of the evolved states,
|sum_m V[j, m] c_m exp(-i E_m t)|^2.  They are evaluated in blocks of grid
times: the rows c cos(E t) and c sin(E t) of every ensemble state at every
time of a block are stacked into one matrix and multiplied by V^T in a
single GEMM, so the eigenvector matrix is streamed once per block rather
than twice per time.  The block length is set by a fixed budget of 16 MiB
for each of the two work buffers (the stacked rows and their product),
which are allocated once per trace and reused by every block.  Beyond the
eigenvectors and the ensemble coefficients a trace therefore holds two
16 MiB buffers; only an ensemble whose rows for a single time exceed the
budget makes them larger, one time point each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import (
    NORM_ATOL,
    EmptyWindowError,
    NotNormalizedError,
    entropy_from_distributions,
    imbalance_diagonal,
    occupation_onehot,
)
from .spectrum import (
    DegenerateSpectrumError,
    MissingEigenvectorsError,
    SpectralData,
)
from .tables import write_table

__all__ = [
    "TimeGrid",
    "log_time_grid",
    "QuenchTrace",
    "SurvivalAnalysis",
    "AnalyticCurveInputs",
    "DEFAULT_SMOOTHING_WINDOW",
    "DEFAULT_HOLE_WINDOW",
    "ensemble_amplitudes",
    "ensemble_ipr",
    "survival_probability",
    "moving_average",
    "survival_trace",
    "ensemble_survival",
    "observable_trace",
    "correlation_hole_depth",
    "estimate_curve_inputs",
    "ldos_fourier_survival",
    "b2_form_factor",
    "analytic_survival_curve",
    "write_trace_csv",
]

DEFAULT_SMOOTHING_WINDOW = 9
DEFAULT_HOLE_WINDOW = (20.0, 1.0e3)
RELAXATION_TAIL_POINTS = 10

# Size of each of the two work buffers of observable_trace; it fixes how
# many grid times share one pass over the eigenvector matrix.
_TRACE_BUFFER_BYTES = 16 * 2 ** 20

# kernel centers per (grid x centers) block of the analytic curve's densities
_KDE_CHUNK = 512


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing times, in units of the inverse hopping."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("time grid needs at least two points")
        if pts[0] < 0 or (np.diff(pts) <= 0).any():
            raise ValueError("times must be non-negative and strictly increasing")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.size


def log_time_grid(t_min: float = 0.1, t_max: float = 1.0e4,
                  n_points: int = 400) -> TimeGrid:
    if t_min <= 0:
        raise ValueError("logarithmic grids need t_min > 0")
    return TimeGrid(np.geomspace(t_min, t_max, n_points))


# -- amplitudes ------------------------------------------------------------


def ensemble_amplitudes(indices, spectral: SpectralData) -> np.ndarray:
    """Coefficient rows, one per ensemble state (shape n_states x dim)."""
    if not spectral.has_vectors:
        raise MissingEigenvectorsError("evolution requires eigenvectors")
    # fancy indexing already returns a new C-order array
    return spectral.eigenvectors[np.asarray(indices, dtype=np.int64), :]


def _weights(coefficients) -> np.ndarray:
    c = np.atleast_2d(np.asarray(coefficients))
    w = np.abs(c)
    np.square(w, out=w)
    if (np.abs(w.sum(axis=1) - 1.0) > NORM_ATOL).any():
        raise NotNormalizedError("coefficient rows must be normalized")
    return w


def _ipr(weights) -> float:
    """Ensemble mean of sum_m w_m^2; squares ``weights`` in place."""
    return float(np.square(weights, out=weights).sum(axis=1).mean())


def ensemble_ipr(coefficients) -> float:
    """Ensemble mean of sum_m |c_m|^4, the survival-probability plateau."""
    return _ipr(_weights(coefficients))


def survival_probability(coefficients, eigenvalues, times) -> np.ndarray:
    """S_P on a time grid; rows of ``coefficients`` are initial states.

    Returns shape (n_times,) for a single coefficient vector, otherwise
    (n_states, n_times).
    """
    sp = _survival(_weights(coefficients), eigenvalues, times)
    if np.ndim(coefficients) == 1:
        return sp[0]
    return sp


def _survival(weights, eigenvalues, times) -> np.ndarray:
    """S_P of each row of squared amplitudes ``weights`` (shape
    n_states x n_times); ``weights`` is only read."""
    t = times.points if isinstance(times, TimeGrid) else np.asarray(times)
    energies = np.asarray(eigenvalues, dtype=np.float64)
    # one (dim, n_times) buffer holds the phases, then their cosines, then
    # the phases again and their sines
    phase = np.multiply.outer(energies, t)
    re = weights @ np.cos(phase, out=phase)
    im = weights @ np.sin(np.multiply.outer(energies, t, out=phase), out=phase)
    return np.add(np.square(re, out=re), np.square(im, out=im), out=re)


def moving_average(series, window_points: int) -> np.ndarray:
    """Centered moving mean; windows shrink at the boundaries (no padding)."""
    if window_points < 1 or window_points % 2 == 0:
        raise ValueError("window_points must be odd and >= 1")
    x = np.asarray(series, dtype=np.float64)
    # "full" convolution sliced to the series: mode="same" would return
    # window_points values for a series shorter than the window
    kernel = np.ones(window_points)
    center = slice(window_points // 2, window_points // 2 + x.size)
    sums = np.convolve(x, kernel, mode="full")[center]
    counts = np.convolve(np.ones_like(x), kernel, mode="full")[center]
    return sums / counts


@dataclass
class QuenchTrace:
    """Sampled observable values for an ensemble of initial states.

    ``relaxation_value`` is the mean of the last 10 smoothed grid points.
    """

    time_grid: TimeGrid
    values: np.ndarray          # (n_states, n_times)
    ensemble_mean: np.ndarray
    smoothed_mean: np.ndarray
    relaxation_value: float
    observable: str
    smoothing_window: int

    @classmethod
    def from_values(cls, time_grid: TimeGrid, values: np.ndarray,
                    observable: str,
                    smoothing_window: int = DEFAULT_SMOOTHING_WINDOW
                    ) -> "QuenchTrace":
        values = np.atleast_2d(values)
        mean = values.mean(axis=0)
        smooth = moving_average(mean, smoothing_window)
        tail = min(RELAXATION_TAIL_POINTS, smooth.size)
        return cls(
            time_grid=time_grid,
            values=values,
            ensemble_mean=mean,
            smoothed_mean=smooth,
            relaxation_value=float(smooth[-tail:].mean()),
            observable=observable,
            smoothing_window=smoothing_window,
        )


def survival_trace(coefficients, eigenvalues, time_grid: TimeGrid,
                   smoothing_window: int = DEFAULT_SMOOTHING_WINDOW
                   ) -> QuenchTrace:
    sp = survival_probability(np.atleast_2d(coefficients), eigenvalues, time_grid)
    return QuenchTrace.from_values(time_grid, sp, "survival", smoothing_window)


def ensemble_survival(ensemble_indices, spectral: SpectralData,
                      time_grid: TimeGrid,
                      smoothing_window: int = DEFAULT_SMOOTHING_WINDOW
                      ) -> tuple[QuenchTrace, float]:
    """``survival_trace`` and ``ensemble_ipr`` of an ensemble's states,
    taken from one array of squared amplitudes: the coefficient rows are
    freed once squared, before the trace's (dim x n_times) phase buffer."""
    weights = _weights(ensemble_amplitudes(ensemble_indices, spectral))
    sp = _survival(weights, spectral.eigenvalues, time_grid)
    trace = QuenchTrace.from_values(time_grid, sp, "survival", smoothing_window)
    return trace, _ipr(weights)


def observable_trace(ensemble_indices, spectral: SpectralData,
                     time_grid: TimeGrid, observable: str,
                     smoothing_window: int = DEFAULT_SMOOTHING_WINDOW
                     ) -> QuenchTrace:
    """Site-averaged entanglement entropy or half-chain imbalance in time.

    Both observables are diagonal in the occupation basis, so only the
    Fock-basis probabilities |<k|Psi(t)>|^2 of the evolved states enter.
    Grid times are evaluated in blocks: the real and imaginary coefficient
    rows of every state at every time of a block are stacked into one input
    and multiplied against the eigenvector matrix in a single GEMM.
    """
    if observable not in ("entropy", "imbalance"):
        raise ValueError(f"unknown observable {observable!r}")
    basis = spectral.basis
    coeff = ensemble_amplitudes(ensemble_indices, spectral)
    n_states, dim = coeff.shape
    energies = spectral.eigenvalues
    vt = spectral.eigenvectors.T
    if observable == "imbalance":
        reducer = imbalance_diagonal(basis)
    else:
        reducer = occupation_onehot(basis).T
    times = time_grid.points
    bytes_per_time = 2 * max(n_states, 1) * dim * coeff.itemsize
    block = min(times.size, max(1, _TRACE_BUFFER_BYTES // bytes_per_time))
    stacked = np.empty((2 * block * n_states, dim))
    evolved = np.empty_like(stacked)
    values = np.empty((n_states, times.size))
    for start in range(0, times.size, block):
        t = times[start:start + block]
        half = t.size * n_states
        rows = stacked[:2 * half]
        phase = np.multiply.outer(t, energies)
        np.multiply(coeff, np.cos(phase)[:, None, :],
                    out=rows[:half].reshape(t.size, n_states, dim))
        np.multiply(coeff, np.sin(phase)[:, None, :],
                    out=rows[half:].reshape(t.size, n_states, dim))
        psi = np.matmul(rows, vt, out=evolved[:2 * half])
        np.square(psi, out=psi)
        probs = np.add(psi[:half], psi[half:], out=psi[:half])
        reduced = probs @ reducer
        if observable == "imbalance":
            block_values = reduced.reshape(t.size, n_states)
        else:
            dist = reduced.reshape(t.size, n_states, basis.n_sites,
                                   basis.n_bosons + 1)
            block_values = entropy_from_distributions(dist).mean(axis=-1)
        values[:, start:start + t.size] = block_values.T
    return QuenchTrace.from_values(time_grid, values, observable, smoothing_window)


# -- correlation hole ------------------------------------------------------


@dataclass(frozen=True)
class SurvivalAnalysis:
    """Correlation-hole summary of an ensemble survival-probability trace."""

    ipr: float
    sp_min: float            # minimum of the smoothed ensemble mean in the window
    sp_min_raw: float        # same from the unsmoothed mean, for reference
    hole_depth: float        # |1/sp_min - 1/ipr|
    hole_window: tuple[float, float]


def correlation_hole_depth(trace: QuenchTrace, ipr: float,
                           search_window: tuple[float, float] = DEFAULT_HOLE_WINDOW
                           ) -> SurvivalAnalysis:
    """Depth of the dip below the plateau, measured on inverse quantities."""
    lo, hi = search_window
    mask = (trace.time_grid.points >= lo) & (trace.time_grid.points <= hi)
    if not mask.any():
        raise EmptyWindowError(
            f"no grid times inside the hole search window [{lo}, {hi}]"
        )
    sp_min = float(trace.smoothed_mean[mask].min())
    sp_min_raw = float(trace.ensemble_mean[mask].min())
    depth = abs(1.0 / sp_min - 1.0 / ipr)
    return SurvivalAnalysis(
        ipr=float(ipr),
        sp_min=sp_min,
        sp_min_raw=sp_min_raw,
        hole_depth=depth,
        hole_window=(float(lo), float(hi)),
    )


# -- analytic dip-ramp-plateau curve ----------------------------------------


@dataclass
class AnalyticCurveInputs:
    """Smoothed densities and scalars entering the analytic survival curve.

    ``ldos`` is the smoothed local density of states on ``energy_grid``
    (normalized to unit integral), ``mean_dos`` the mean density of states
    where the state weight lives, ``eta`` the effective number of levels
    and ``ipr`` the ensemble plateau.
    """

    energy_grid: np.ndarray
    ldos: np.ndarray
    mean_dos: float
    eta: float
    ipr: float

    def __post_init__(self):
        grid = np.asarray(self.energy_grid, dtype=np.float64)
        rho = np.asarray(self.ldos, dtype=np.float64)
        if grid.shape != rho.shape or grid.ndim != 1:
            raise ValueError("energy_grid and ldos must be matching 1-D arrays")
        norm = np.trapezoid(rho, grid)
        if norm <= 0:
            raise ValueError("ldos must have positive integral")
        self.ldos = rho / norm
        self.energy_grid = grid
        if self.mean_dos <= 0:
            raise ValueError("mean_dos must be positive")
        if self.eta <= 1.0:
            raise ValueError(f"eta must exceed 1, got {self.eta}")
        if not 0.0 < self.ipr <= 1.0:
            raise ValueError(f"ipr must lie in (0, 1], got {self.ipr}")


def _gaussian_kde(grid: np.ndarray, centers: np.ndarray,
                  weights: np.ndarray, bandwidth: float) -> np.ndarray:
    out = np.zeros_like(grid)
    norm = 1.0 / (np.sqrt(2.0 * np.pi) * bandwidth)
    for a in range(0, centers.size, _KDE_CHUNK):
        b = min(a + _KDE_CHUNK, centers.size)
        z = np.subtract.outer(grid, centers[a:b])
        z /= bandwidth
        np.square(z, out=z)
        z *= -0.5
        out += np.exp(z, out=z) @ weights[a:b]
    return out * norm


def estimate_curve_inputs(coefficients, eigenvalues) -> AnalyticCurveInputs:
    """Kernel-smoothed densities and scalars from ensemble coefficients.

    The densities are sampled on 2048 energies.  Their bandwidths follow a
    Silverman-style rule on the (weighted) sample, floored at twice the
    mean level spacing around the weight center so the smoothed densities
    do not resolve individual levels.
    """
    w = _weights(coefficients)
    weights = w.mean(axis=0)
    ipr = _ipr(w)
    del w  # freed before the kernel blocks
    energies = np.asarray(eigenvalues, dtype=np.float64)
    span = energies.max() - energies.min()
    if span <= 0:
        raise DegenerateSpectrumError("spectrum has zero width")

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
    rho = _gaussian_kde(grid, energies, weights, ldos_bandwidth)
    level_weights = np.full(energies.size, 1.0)
    dos = _gaussian_kde(grid, energies, level_weights, dos_bandwidth)
    dos = np.maximum(dos, 1e-300)

    rho_norm = np.trapezoid(rho, grid)
    rho = rho / rho_norm
    eta = float(1.0 / np.trapezoid(rho ** 2 / dos, grid))
    mean_dos = float(np.trapezoid(rho * dos, grid))
    return AnalyticCurveInputs(grid, rho, mean_dos, eta, ipr)


def ldos_fourier_survival(inputs: AnalyticCurveInputs, times) -> np.ndarray:
    """|integral rho(E) exp(-i E t) dE|^2 by trapezoid quadrature."""
    t = times.points if isinstance(times, TimeGrid) else np.asarray(times)
    grid = inputs.energy_grid
    quad = np.empty_like(grid)
    quad[1:-1] = 0.5 * (grid[2:] - grid[:-2])
    quad[0] = 0.5 * (grid[1] - grid[0])
    quad[-1] = 0.5 * (grid[-1] - grid[-2])
    rho_w = inputs.ldos * quad
    rho_w = rho_w / rho_w.sum()  # exact unit mass so the curve starts at 1
    phase = -1j * t[:, None] * grid[None, :]
    amp = np.exp(phase, out=phase) @ rho_w
    return np.abs(amp) ** 2


def b2_form_factor(tau):
    """GOE two-level form factor b2(tau).

    b2(0) = 1, decays monotonically to 0, continuous at tau = 1:

        b2(tau) = 1 - 2 tau + tau ln(1 + 2 tau),            0 <= tau <= 1
        b2(tau) = -1 + tau ln((2 tau + 1) / (2 tau - 1)),   tau > 1
    """
    t = np.asarray(tau, dtype=np.float64)
    if (t < 0).any():
        raise ValueError("form factor argument must be non-negative")
    out = np.empty_like(t)
    lo = t <= 1.0
    tl = t[lo]
    out[lo] = 1.0 - 2.0 * tl + tl * np.log1p(2.0 * tl)
    th = t[~lo]
    out[~lo] = -1.0 + th * np.log((2.0 * th + 1.0) / (2.0 * th - 1.0))
    if np.ndim(tau) == 0:
        return float(out)
    return out


def analytic_survival_curve(inputs: AnalyticCurveInputs, times) -> np.ndarray:
    """Dip-ramp-plateau prediction for the ensemble survival probability:

        (1 - IPR)/(eta - 1) [eta S_bc(t) - b2(t / (2 pi nu))] + IPR

    with S_bc the squared Fourier transform of the smoothed LDOS and b2 the
    GOE two-level form factor.  Equals 1 at t = 0 and IPR as t -> infinity.
    """
    t = times.points if isinstance(times, TimeGrid) else np.asarray(times)
    spbc = ldos_fourier_survival(inputs, t)
    tau = t / (2.0 * np.pi * inputs.mean_dos)
    prefactor = (1.0 - inputs.ipr) / (inputs.eta - 1.0)
    return prefactor * (inputs.eta * spbc - b2_form_factor(tau)) + inputs.ipr


def write_trace_csv(path, trace: QuenchTrace,
                    metadata: dict | None = None) -> None:
    """CSV with columns (time, raw_mean, smoothed_mean)."""
    write_table(path, ["time", "raw_mean", "smoothed_mean"],
                zip(trace.time_grid.points, trace.ensemble_mean,
                    trace.smoothed_mean), metadata)
