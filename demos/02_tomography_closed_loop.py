"""Closed-loop detector tomography on simulated data.

Simulate a calibrated click detector against a grid of coherent probes,
reconstruct its POVM from the click frequencies alone, and compare with
the POVM the simulation started from. The only inputs to the
reconstruction are probe intensities and click counts, exactly what a
real experiment records.
"""

import numpy as np

from nlspd import (
    ExperimentConfig,
    fidelity,
    geometric_probe_grid,
    nonlinear_povm,
    reconstruct_povm,
    simulate,
    truncation_for,
)
from nlspd.numerics import poisson_log_weights
from nlspd.reference import SCALED_PARAMS

truth = SCALED_PARAMS[25]
print("Ground truth (25 uA bias, rescaled units):", truth.p)

probes = geometric_probe_grid(truth)
print(f"Probe grid: {len(probes)} intensities from 0 to "
      f"{probes.intensities.max():.1f}, {probes.trials} trials each")

record = simulate(ExperimentConfig(
    truth=truth, probes=probes, seed=7, trials=probes.trials,
))
print("Example frequencies:",
      np.array2string(record.frequencies[::12], precision=4))

truncation = truncation_for(float(probes.intensities.max()))
print(f"Reconstruction truncation: {truncation} photon-number elements")

recon = reconstruct_povm(probes, record, truncation)
ideal = nonlinear_povm(truth, truncation)

print()
print(" m   reconstructed   ground truth")
for m in (0, 1, 2, 5, 10, 20, 40):
    print(f"{m:3d}   {recon.click[m]:.6f}      {ideal.click[m]:.6f}")

f = fidelity(recon, ideal)
print()
print(f"Fidelity between reconstruction and truth: {f:.6f}")

# The probe rows explain why this works: each row is a Poisson
# distribution, so neighboring photon numbers are blurred, and the
# smoothing penalty picks the physical (slowly varying) solution.
row_sums = np.exp(poisson_log_weights(probes.intensities, truncation)).sum(axis=1)
print(f"Probe rows up to the truncation capture {row_sums.min():.12f} of the "
      "Poisson mass at worst")
