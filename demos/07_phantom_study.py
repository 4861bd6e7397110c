"""The full Monte Carlo verification studies.

Reproduces the structure of a phantom accuracy study (three registration
methods, balanced factor cells, 150 samples each) and a placement-grading
study with radiation accounting. Noise magnitudes are calibrated so the
point-based pre-op CT method pools to 0.99 mm.
"""

import numpy as np

from spinenav import PhantomSpec, StudyConfig, calibrate_tracker_sigma0, generate_phantom, run_placement_study, run_study
from spinenav.simharness import study_csv, study_report

phantom = generate_phantom(PhantomSpec(), seed=42)
print(f"phantom: {len(phantom.fiducials)} fiducials over "
      f"{np.max(np.ptp(phantom.fiducials.points, axis=0)):.0f} mm, "
      f"{len(phantom.pedicles)} pedicles, {len(phantom.targets)} held-out targets")

config = calibrate_tracker_sigma0(phantom, StudyConfig(), target_mean_mm=0.99)
print(f"tracker sigma0 calibrated to {config.noise.tracker_sigma0:.4f} mm\n")

result = run_study(config, phantom)
print("accuracy study (RMSE at held-out targets, mm):")
for m in result.methods:
    p = m.pooled
    print(f"  {m.method.label:34s} mean {p.mean:.2f}  sd {p.sd:.2f}  "
          f"mu+1.96sd {p.ci95:.2f}  n {p.n}")

print("\nCSV report:")
print(study_csv(study_report(result)))

# placement study: grade distributions degrade as the noise scale rises
ph5 = generate_phantom(PhantomSpec(levels=5), seed=42)
print("placement study, 10 screws per arm:")
print("noise   navigation A%   robot A%   radiation/screw")
for mult in (1.0, 2.0, 4.0):
    placement = run_placement_study(config, ph5, 10, noise_multiplier=mult)
    nav = placement.arm("navigation")
    rob = placement.arm("robot")
    print(f"  {mult:.0f}x        {nav.grade_percent['A']:5.1f}       "
          f"{rob.grade_percent['A']:5.1f}          {nav.radiation_mean:.1f}")
