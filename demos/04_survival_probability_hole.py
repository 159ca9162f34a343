"""The survival probability and its correlation hole, with the analytic
dip-ramp-plateau curve.

An ensemble of capped Fock states from the central energy window is
evolved exactly; the ensemble-averaged return probability decays, dips
below its infinite-time plateau (the inverse participation ratio) while
long-range spectral correlations act, and ramps back up.  The analytic
curve combines the Fourier transform of the smoothed local density of
states with the GOE two-level form factor.

Run:  python demos/04_survival_probability_hole.py   (about half a minute)
"""

import numpy as np

from tiltedbh import (
    FockBasis,
    ModelParams,
    analytic_survival_curve,
    build,
    correlation_hole_depth,
    diagonalize,
    ensemble_amplitudes,
    ensemble_ipr,
    estimate_curve_inputs,
    log_time_grid,
    sample_energy_window,
    survival_trace,
)

nm = 7
basis = FockBasis(nm, nm)
spec = diagonalize(build(basis, ModelParams(u=0.5, d=0.5)))

ensemble = sample_energy_window(
    basis, sample_count=200, reference=ModelParams(u=0.5, d=0.8),
    window_halfwidth=0.4, occupation_cap=3, seed=7)
coeff = ensemble_amplitudes(ensemble.indices, spec)
grid = log_time_grid(0.1, 1.0e4, 400)
trace = survival_trace(coeff, spec.eigenvalues, grid)
ipr = ensemble_ipr(coeff)
hole = correlation_hole_depth(trace, ipr)

inputs = estimate_curve_inputs(coeff, spec.eigenvalues)
curve = analytic_survival_curve(inputs, grid)

print(f"N = M = {nm}, dim = {basis.dim}, u = d = 0.5, "
      f"{len(ensemble)} initial states\n")
print(f"  plateau (IPR)            = {ipr:.5f}")
print(f"  smoothed minimum         = {hole.sp_min:.5f} "
      f"in t within {hole.hole_window}")
print(f"  hole depth |1/min - PR|  = {hole.hole_depth:.1f}")
print(f"  normalized by dim/3      = {hole.hole_depth / (basis.dim / 3):.3f} "
      "(about 0.5 for GOE-like dynamics)")
print(f"  effective level count    = {inputs.eta:.0f}, "
      f"mean density of states = {inputs.mean_dos:.1f}\n")

print("   t        <S_P>     analytic")
for target in (0.3, 1, 3, 10, 30, 100, 300, 1000, 10000):
    i = int(np.argmin(np.abs(grid.points - target)))
    print(f"  {grid.points[i]:8.1f}  {trace.smoothed_mean[i]:.2e}  "
          f"{curve[i]:.2e}")

print("\nThe same analysis per parameter point: tiltedbh quench "
      "--config configs/quench_chaotic_8x8.json --out out/quench")
