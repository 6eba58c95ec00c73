"""Two-cause analyses of the bundled tumorigenicity studies.

Both studies inspect mice at a few fixed months and record, per dose
group, how many were sacrificed, died without tumour, or died with
tumour.  Each death cause is fitted marginally as an exponential model in
the dose; the combined expected lifetime under both risks is the harmonic
sum of the per-cause means.  Both causes of a study are fitted along the
tuning-parameter path in one warm-started call.
"""

import oneshotdpd as od
from oneshotdpd.datasets import load_benzidine, load_ed01

for label, data in (("ED01 (2-AAF)", load_ed01()),
                    ("benzidine dihydrochloride", load_benzidine())):
    print(f"=== {label} ===")
    print("cell totals:")
    print(data.plan.devices)
    betas = (0.0, 0.1, 0.5, 1.0)
    for beta, (natural, tumour) in zip(betas, od.fit_causes(data, betas)):
        line = f"  beta={beta:3.1f}:"
        for cf, tag in ((natural, "nat"), (tumour, "tum")):
            p = cf.fit.params
            line += f"  {tag} ({p.alpha0:.5f}, {p.alpha1:+.5f})"
        print(line)
        combined = [
            od.combined_mean_lifetime([natural, tumour], float(w))
            for w in data.plan.temps
        ]
        doses = ", ".join(
            f"E[T | w={w:g}] = {m:8.3f}"
            for w, m in zip(data.plan.temps, combined)
        )
        print(f"            combined: {doses}")
    print()
