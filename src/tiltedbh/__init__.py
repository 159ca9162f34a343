"""Exact diagonalization of the one-dimensional tilted Bose-Hubbard chain
with static and dynamical chaos-to-regularity diagnostics: gap-ratio maps,
eigenstate participation / entanglement / imbalance profiles, and quench
dynamics of the survival probability (with its correlation hole and the
analytic dip-ramp-plateau curve), entanglement entropy and half-chain
imbalance.
"""

from ._version import __version__
from .basis import FockBasis, dimension
from .diagnostics import (
    EigenstateDiagnostics,
    central_window_average,
    eigenstate_diagnostics,
    goe_participation_reference,
    half_chain_imbalance,
    page_value,
    participation_ratio,
    single_site_entropy,
)
from .dynamics import (
    AnalyticCurveInputs,
    QuenchTrace,
    SurvivalAnalysis,
    TimeGrid,
    analytic_survival_curve,
    correlation_hole_depth,
    ensemble_amplitudes,
    ensemble_ipr,
    estimate_curve_inputs,
    evolve_amplitudes,
    log_time_grid,
    moving_average,
    observable_trace,
    survival_probability,
    survival_trace,
)
from .hamiltonian import HamiltonianMatrix, ModelParams, build, diagonal_energy
from .initial_states import (
    StateEnsemble,
    maximally_imbalanced_states,
    sample_energy_window,
    spectral_moments,
)
from .rmt import b2_form_factor, goe_matrix, goe_spectrum, poisson_spectrum
from .rng import make_rng
from .spectrum import (
    GapRatioStats,
    R_GOE,
    R_POISSON,
    SpectralData,
    chaos_distance,
    diagonalize,
    mean_gap_ratio,
    normalized_energies,
)
from .sweep import SweepConfig, run_chaos_map, run_cut, validate_and_echo_config

__all__ = [
    "__version__",
    "FockBasis", "dimension",
    "ModelParams", "HamiltonianMatrix", "build", "diagonal_energy",
    "SpectralData", "GapRatioStats", "diagonalize", "mean_gap_ratio",
    "normalized_energies", "chaos_distance", "R_GOE", "R_POISSON",
    "EigenstateDiagnostics", "eigenstate_diagnostics", "participation_ratio",
    "single_site_entropy", "page_value", "half_chain_imbalance",
    "central_window_average", "goe_participation_reference",
    "StateEnsemble", "spectral_moments", "sample_energy_window", "maximally_imbalanced_states",
    "TimeGrid", "log_time_grid", "QuenchTrace", "SurvivalAnalysis",
    "AnalyticCurveInputs", "evolve_amplitudes", "ensemble_amplitudes",
    "ensemble_ipr", "survival_probability", "survival_trace",
    "observable_trace", "moving_average", "correlation_hole_depth",
    "estimate_curve_inputs", "analytic_survival_curve",
    "goe_matrix", "goe_spectrum", "poisson_spectrum", "b2_form_factor",
    "make_rng",
    "SweepConfig", "run_chaos_map", "run_cut", "validate_and_echo_config",
]
