"""Monte-Carlo look at robustness against one outlying cell.

One cell of the design is generated under a reduced baseline rate while
the fitted model assumes a single clean parameter pair.  Sweeping the
reduction strength shows the maximum likelihood fit (tuning parameter 0)
losing accuracy faster than the robust members, and the same pattern
appears in the empirical level of the Z-type test.  Writes plot-ready CSV
files next to this script.
"""

from pathlib import Path

import numpy as np

import oneshotdpd as od

plan = od.TestPlan(temps=[35.0, 45.0, 55.0], times=[10.0, 20.0, 30.0],
                   devices=np.full((3, 3), 20))
truth = od.ModelParams(0.004, 0.05)
here = Path(__file__).parent
strengths = [0.0, 0.2, 0.4, 0.6, 0.8]

rmse_spec = od.SimulationSpec(
    plan=plan, true_params=truth,
    contamination=od.ContaminationScheme(mode="alpha0_shift",
                                         value=truth.alpha0),
    betas=(0.0, 0.2, 0.6, 1.0), replications=500, seed=2024,
)
reports, xs = od.contamination_sweep(rmse_spec, strengths)
od.write_report_csv(here / "contamination_rmse.csv", reports, xs)
print("estimation error vs contamination strength (combined rmse):")
print("strength " + "".join(f"  beta={b:<4}" for b in rmse_spec.betas))
for x, report in zip(xs, reports):
    cells = "".join(f"  {v:8.5f}" for v in report.rmse_combined)
    print(f"{x:8.1f}{cells}")

level_spec = od.SimulationSpec(
    plan=od.TestPlan(plan.temps, plan.times, np.full((3, 3), 100)),
    true_params=truth,
    contamination=od.ContaminationScheme(mode="alpha0_shift",
                                         value=truth.alpha0),
    betas=(0.0, 0.2, 0.6, 1.0), replications=500, seed=2025,
    hypothesis=od.LinearHypothesis(m=np.array([0.0, 1.0]), d=0.05),
)
reports, xs = od.contamination_sweep(level_spec, strengths)
od.write_report_csv(here / "contamination_level.csv", reports, xs)
print("\nempirical level of the Z-type test (nominal 0.05):")
print("strength " + "".join(f"  beta={b:<4}" for b in level_spec.betas))
for x, report in zip(xs, reports):
    cells = "".join(f"  {v:8.4f}" for v in report.rejection_rate)
    print(f"{x:8.1f}{cells}")

print("\nwrote", here / "contamination_rmse.csv")
print("wrote", here / "contamination_level.csv")
