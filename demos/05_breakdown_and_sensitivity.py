"""Breakdown and sensitivity: how much contamination each estimator tolerates.

Two classic robustness diagnostics.  The breakdown sweep grows the number
of outliers and tracks the total relative bias of each estimator; the
sensitivity sweep injects a single outlier of varying value and tracks the
N-scaled estimate shift (MASC).  Both write the plotting CSVs used by the
command-line tools into ``demos/out/``.
"""

from pathlib import Path

from rayreg.simulation import ScenarioConfig, breakdown_curve, sensitivity_curve

OUT = Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)

cfg = ScenarioConfig(
    beta_true=(0.5, 0.15),
    n_obs=200,
    epsilon=0.0,
    outlier_value=10.0,
    replications=150,
    delta=0.001,
    master_seed=77,
)

print("breakdown sweep (outlier count -> total |RB%|):")
curve = breakdown_curve(cfg, [0, 2, 4, 8, 16, 24])
print(f"{'outliers':>9s}{'plain':>10s}{'robust':>10s}")
for c, m, w in zip(curve.counts, curve.mle_total_rb, curve.wmle_total_rb):
    print(f"{c:>9d}{m:>10.2f}{w:>10.2f}")
(OUT / "breakdown.csv").write_text(curve.to_csv())
print("-> demos/out/breakdown.csv written")

print("\nsensitivity sweep (single outlier value -> MASC):")
sens = sensitivity_curve(cfg, [1, 2, 5, 10, 15, 20])
print(f"{'value':>9s}{'plain':>10s}{'robust':>10s}")
for v, m, w in zip(sens.values, sens.mle_masc, sens.wmle_masc):
    print(f"{v:>9.0f}{m:>10.2f}{w:>10.2f}")
(OUT / "sensitivity.csv").write_text(sens.to_csv())
print("-> demos/out/sensitivity.csv written")

print("\nNotes: the dip near value 2 is the score-neutral point 2*mu/sqrt(pi),")
print("where an extra observation does not move the fit at all.  Beyond the")
print("weighting threshold (~3x the local mean) the outlier itself receives")
print("weight ~0, yet the robust curve still rises slowly with the value: the")
print("other observations' weights come from the plain pass, which the outlier")
print("has dragged, so the weighted fit keeps a small share of its shift.")
