"""Exact diagonalization of the one-dimensional tilted Bose-Hubbard chain
with static and dynamical chaos-to-regularity diagnostics: gap-ratio maps,
eigenstate participation / entanglement / imbalance profiles, and quench
dynamics of the survival probability (with its correlation hole and the
analytic dip-ramp-plateau curve), entanglement entropy and half-chain
imbalance.
"""

from ._version import __version__
from .basis import FockBasis, dimension
from .config import SweepConfig
from .diagnostics import (
    EigenstateDiagnostics,
    central_window_average,
    eigenstate_diagnostics,
    goe_participation_reference,
    page_value,
)
from .dynamics import (
    AnalyticCurveInputs,
    QuenchTrace,
    SurvivalAnalysis,
    TimeGrid,
    analytic_survival_curve,
    b2_form_factor,
    correlation_hole_depth,
    ensemble_amplitudes,
    ensemble_ipr,
    estimate_curve_inputs,
    log_time_grid,
    moving_average,
    observable_trace,
    survival_probability,
    survival_trace,
)
from .hamiltonian import HamiltonianMatrix, ModelParams, build, diagonal_energy
from .initial_states import (
    StateEnsemble,
    make_rng,
    maximally_imbalanced_states,
    sample_energy_window,
    spectral_moments,
)
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
from .sweep import run_chaos_map, run_cut

__all__ = [
    "__version__",
    "FockBasis", "dimension",
    "ModelParams", "HamiltonianMatrix", "build", "diagonal_energy",
    "SpectralData", "GapRatioStats", "diagonalize", "mean_gap_ratio",
    "normalized_energies", "chaos_distance", "R_GOE", "R_POISSON",
    "EigenstateDiagnostics", "eigenstate_diagnostics", "page_value",
    "central_window_average", "goe_participation_reference",
    "StateEnsemble", "spectral_moments", "sample_energy_window", "maximally_imbalanced_states",
    "TimeGrid", "log_time_grid", "QuenchTrace", "SurvivalAnalysis",
    "AnalyticCurveInputs", "ensemble_amplitudes",
    "ensemble_ipr", "survival_probability", "survival_trace",
    "observable_trace", "moving_average", "correlation_hole_depth",
    "estimate_curve_inputs", "analytic_survival_curve", "b2_form_factor",
    "make_rng",
    "SweepConfig", "run_chaos_map", "run_cut",
]
