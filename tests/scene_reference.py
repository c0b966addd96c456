"""The synthetic scene drawn over the whole image at once, the reference for
``rayreg.scenes.make_scene``, which draws and inverts it a block of rows at a
time.

The covariate and mean images are formed in full, one uniform draw covers
every pixel, and the Rayleigh quantile ``2 mu sqrt(-log(1 - u) / pi)`` is
written out here rather than called.  Only the generator comes from rayreg,
so that both draw from the same stream.
"""

import math

import numpy as np

from rayreg.scenes import _SCENE_STREAM
from rayreg.simulation import rng_for


def make_scene(rows=200, cols=200, seed=0, mu_low=0.2, mu_high=0.4, blob_amplitude=10.0,
               blob_grid=5, training_rows=50, training_contamination=0.05):
    """``(interest, covariate, truth)`` of the scene ``make_scene`` builds
    from the same arguments, which must be valid."""
    ramp = np.linspace(0.0, 1.0, cols)
    covariate = np.tile(ramp, (rows, 1))
    beta1 = np.log(mu_high / mu_low)
    mu = mu_low * np.exp(beta1 * covariate)

    rng = rng_for(seed, _SCENE_STREAM)
    interest = 2.0 * mu * np.sqrt(-np.log1p(-rng.random((rows, cols))) / math.pi)

    train_r0 = rows - training_rows
    free_rows = train_r0 - 10
    row_centers = np.linspace(15, free_rows - 5, blob_grid).round().astype(int)
    col_centers = np.linspace(20, cols - 20, blob_grid).round().astype(int)
    truth = []
    for r in row_centers:
        for c in col_centers:
            interest[r - 1 : r + 2, c - 1 : c + 2] = blob_amplitude
            truth.append((int(r), int(c)))

    n_salt = int(round(training_contamination * training_rows * cols))
    half_cols = cols // 2
    cells = training_rows * half_cols
    chosen = rng.choice(cells, size=min(n_salt, cells), replace=False)
    interest[train_r0 + chosen // half_cols, chosen % half_cols] = blob_amplitude
    return interest, covariate, tuple(truth)
