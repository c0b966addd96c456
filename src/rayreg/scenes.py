"""Seeded synthetic amplitude scenes with ground truth.

The generated scene mimics the structure of the measured-image study: a
smooth background whose mean follows one covariate image, a grid of
small bright square targets, and a training strip whose left half is
salted with isolated bright pixels.  Because the salt correlates with
low covariate values, a non-robust fit tilts its covariate coefficient
badly and brings false detections and misses with it.  The robust fit
does not recover the truth either: with the default one reweighting
round its weights come from that contaminated plain pass, and on
``make_scene(seed=0)`` its coefficients are about (0.98, -2.48) against
a true (-1.61, 0.69) (plain fit: (1.78, -3.03)).  Detection with it
still scores 25 of 25 targets without false alarms, because targets are
3x3 blocks that survive the 3x3 opening, whereas the isolated salt
pixels it flags do not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import distribution
from .detection import _BLOCK
from .simulation import rng_for

__all__ = ["SyntheticScene", "make_scene"]

_SCENE_STREAM = 0x73636E  # "scn"


@dataclass(frozen=True)
class SyntheticScene:
    interest: np.ndarray
    covariate: np.ndarray
    truth: tuple
    training_region: tuple
    seed: int
    params: dict = field(repr=False, default_factory=dict)

    @property
    def truth_list(self) -> list:
        return [[int(r), int(c)] for r, c in self.truth]


def make_scene(
    rows: int = 200,
    cols: int = 200,
    seed: int = 0,
    mu_low: float = 0.2,
    mu_high: float = 0.4,
    blob_amplitude: float = 10.0,
    blob_grid: int = 5,
    training_rows: int = 50,
    training_contamination: float = 0.05,
) -> SyntheticScene:
    """Build one deterministic scene.

    Parameters
    ----------
    rows, cols : scene size in pixels (one meter per pixel).
    seed : master seed; the same seed always reproduces the same scene.
    mu_low, mu_high : background mean at the left and right edges; the
        covariate image is a horizontal ramp on [0, 1] and the true model
        is log-linear in it.
    blob_amplitude : amplitude written into target pixels and salt pixels.
    blob_grid : targets form a blob_grid x blob_grid grid of 3x3 squares;
        0 draws none, and a grid whose centres fall under 3 px apart on
        either axis, where the squares would overlap, is refused.
    training_rows : height of the training strip at the bottom edge.
    training_contamination : fraction of training pixels salted with
        isolated outliers (all placed in the left half of the strip).
    """
    if rows < 100 or cols < 100:
        raise ValueError("scene must be at least 100 x 100 pixels")
    if not 0.0 <= training_contamination < 0.5:
        raise ValueError("training_contamination must lie in [0, 0.5)")
    if training_rows < 20 or training_rows >= rows // 2:
        raise ValueError("training_rows must lie in [20, rows/2)")
    for name, value in (("mu_low", mu_low), ("mu_high", mu_high), ("blob_amplitude", blob_amplitude)):
        if not 0 < value < np.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    if blob_grid < 0:
        raise ValueError(f"blob_grid must be nonnegative, got {blob_grid}")
    # Targets live strictly above the training strip, away from borders.
    train_r0 = rows - training_rows
    row_centers = np.linspace(15, train_r0 - 15, blob_grid).round().astype(int)
    col_centers = np.linspace(20, cols - 20, blob_grid).round().astype(int)
    gap = min(np.diff(row_centers).min(initial=3), np.diff(col_centers).min(initial=3))
    if gap < 3:
        raise ValueError(f"blob_grid {blob_grid} puts target centres {gap} px apart; 3x3 targets need 3")

    ramp = np.linspace(0.0, 1.0, cols)
    covariate = np.tile(ramp, (rows, 1))
    beta = (np.log(mu_low), np.log(mu_high / mu_low))
    mu = mu_low * np.exp(beta[1] * ramp)  # every covariate row is the ramp

    # Drawn and inverted a block of rows at a time.  Consecutive draws
    # continue one stream, so the pixels, and the salt drawn after them,
    # are those of one whole-image draw.
    rng = rng_for(seed, _SCENE_STREAM)
    interest = np.empty((rows, cols))
    step = max(1, _BLOCK // cols)
    for r in range(0, rows, step):
        block = interest[r : r + step]
        block[...] = distribution.quantile(rng.random(block.shape), mu)

    training_region = (train_r0, 0, rows, cols)
    truth = []
    for r in row_centers:
        for c in col_centers:
            interest[r - 1 : r + 2, c - 1 : c + 2] = blob_amplitude
            truth.append((int(r), int(c)))

    # Salt the left half of the training strip with isolated bright pixels.
    # Correlating contamination with low covariate values is what breaks
    # the non-robust fit's covariate coefficient.
    n_salt = int(round(training_contamination * training_rows * cols))
    half_cols = cols // 2
    cells = training_rows * half_cols
    chosen = rng.choice(cells, size=min(n_salt, cells), replace=False)
    salt_rows = train_r0 + chosen // half_cols
    salt_cols = chosen % half_cols
    interest[salt_rows, salt_cols] = blob_amplitude

    return SyntheticScene(
        interest=interest,
        covariate=covariate,
        truth=tuple(truth),
        training_region=training_region,
        seed=seed,
        params={
            "rows": rows,
            "cols": cols,
            "mu_low": mu_low,
            "mu_high": mu_high,
            "beta_true": [float(beta[0]), float(beta[1])],
            "blob_grid": blob_grid,
            "training_rows": training_rows,
            "training_contamination": training_contamination,
            "n_salt": int(min(n_salt, cells)),
        },
    )
