"""The synthetic scene: drawn a block of rows at a time, it equals the
whole-image draw byte for byte, and it holds little beyond its two images."""

import tracemalloc

import numpy as np
import pytest

import rayreg.scenes
import scene_reference
from rayreg.detection import _BLOCK
from rayreg.scenes import make_scene


@pytest.mark.parametrize("block", [_BLOCK, 4096, 64])
@pytest.mark.parametrize("rows, cols, kwargs", [
    (1000, 200, {"seed": 3}),
    (700, 300, {"seed": 11, "blob_grid": 4, "training_contamination": 0.2}),
    (200, 1000, {"seed": 0, "training_rows": 60, "mu_low": 0.5, "mu_high": 3.0}),
    (100, 100, {"seed": 5, "blob_grid": 2, "training_rows": 25}),
])
def test_blocked_draw_matches_the_whole_image_draw(monkeypatch, block, rows, cols, kwargs):
    # At the real block size the first three scenes span four row blocks,
    # the last one partial; the smaller sizes take more blocks, down to one
    # row each.
    monkeypatch.setattr(rayreg.scenes, "_BLOCK", block)
    scene = make_scene(rows, cols, **kwargs)
    interest, covariate, truth = scene_reference.make_scene(rows, cols, **kwargs)
    assert scene.interest.tobytes() == interest.tobytes()
    assert scene.covariate.tobytes() == covariate.tobytes()
    assert scene.truth == truth


def test_peak_memory_is_the_two_images():
    # The interest and covariate images, 16 bytes a pixel, and a few row
    # blocks of float64 working memory; the whole-image draw took three more
    # full-size images.
    rows = cols = 1000
    make_scene()
    tracemalloc.start()
    try:
        scene = make_scene(rows, cols)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert scene.interest.nbytes + scene.covariate.nbytes == 16 * rows * cols
    assert peak < 16 * rows * cols + 8 * 8 * _BLOCK


@pytest.mark.parametrize("rows, cols, training_rows", [(200, 200, 50), (100, 100, 25), (300, 120, 60)])
def test_refuses_exactly_the_grids_it_cannot_draw(rows, cols, training_rows):
    # Grids from negative up: make_scene refuses a grid where the whole-image
    # reference does, and every grid it draws puts each 3x3 target on nine
    # pixels of its own.
    drawn = refused = 0
    for grid in range(-2, 50):
        kwargs = dict(blob_grid=grid, training_rows=training_rows, training_contamination=0.0)
        try:
            _, _, truth = scene_reference.make_scene(rows, cols, **kwargs)
        except ValueError:
            refused += 1
            with pytest.raises(ValueError, match=rf"^blob_grid (must be nonnegative, got {grid}$"
                                                 rf"|{grid} puts target centres [0-2] px apart)"):
                make_scene(rows, cols, **kwargs)
            continue
        drawn += 1
        scene = make_scene(rows, cols, **kwargs)
        assert scene.truth == truth and len(set(truth)) == grid * grid
        assert np.count_nonzero(scene.interest == 10.0) == 9 * grid * grid  # the amplitude
    assert drawn > 2 and refused > 4
