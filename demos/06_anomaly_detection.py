"""End-to-end anomaly detection on a synthetic amplitude scene.

The generated scene has a smooth background tied to one covariate image,
25 bright 3x3 targets, and a training strip whose left half is salted
with isolated bright pixels (5% of the strip).  The robust pipeline
shrugs the salt off; the plain pipeline tilts its covariate coefficient
and floods the far side of the scene with false detections.  The masks
are written into ``demos/out/``.
"""

from pathlib import Path

import numpy as np

from rayreg import RobustConfig
from rayreg.detection import DetectorConfig, detect
from rayreg.image_io import write_mask_pgm
from rayreg.scenes import make_scene

OUT = Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)

scene = make_scene(rows=200, cols=200, seed=20250808)
print(f"scene: {scene.interest.shape}, {len(scene.truth)} targets, "
      f"training region {scene.training_region}, "
      f"{scene.params['n_salt']} salted training pixels")

cfg = DetectorConfig(control_limit=3.0, opening_size=3, dilation_size=7,
                     merge_distance=10.0)

for method in ("wmle", "mle"):
    result = detect(
        scene.interest,
        [scene.covariate],
        scene.training_region,
        cfg=cfg,
        robust=RobustConfig(delta=0.001),
        method=method,
        truth=scene.truth,
    )
    tag = "robust" if method == "wmle" else "plain "
    print(f"\n{tag} ({method}):")
    print(f"  fitted coefficients: {np.round(result.fit.beta_hat, 3)}")
    print(f"  raw flagged pixels : {result.n_flagged}")
    print(f"  clusters           : {len(result.clusters)}")
    print(f"  hits / false alarms / missed: "
          f"{result.hits} / {result.false_alarms} / {result.missed}")
    write_mask_pgm(result.mask, OUT / f"detections_{method}.pgm")
    print(f"  -> demos/out/detections_{method}.pgm written")

print("\nThe same pipeline is available from the command line:")
print("  rayreg synth-scene --seed 20250808 --out-dir scene")
print("  rayreg detect --interest scene/interest.rrm "
      "--covariates scene/covariate.rrm \\")
print("      --training 150,0,200,200 --truth scene/truth.json --out-dir out")
