"""Control chart, binary morphology vs brute-force oracle, clusters, scoring."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import detect_reference
import rayreg.detection
from rayreg import inference
from rayreg.detection import (
    _BLOCK,
    Cluster,
    DetectorConfig,
    _GUARD,
    _guard_band,
    _ratio_cuts,
    detect,
    dilate,
    erode,
    extract_clusters,
    flag_out_of_control,
    postprocess,
    score_detections,
    threshold_residuals,
)
from rayreg.optim import InfeasibleStartError
from rayreg.scenes import make_scene

from morph_oracle import brute_dilate, brute_erode, brute_opening


class TestThreshold:
    def test_all_zero_residuals(self):
        assert not threshold_residuals(np.zeros((5, 5)), 3.0).any()

    def test_boundary_stays_in_control(self):
        r = np.array([[3.0, -3.0, 3.0000001, -3.1]])
        assert threshold_residuals(r, 3.0).tolist() == [[False, False, True, True]]

    def test_upper_tail_only(self):
        r = np.array([[-5.0, 5.0]])
        assert threshold_residuals(r, 3.0, two_sided=False).tolist() == [[False, True]]

    def test_normal_field_fraction(self):
        rng = np.random.default_rng(1)
        field = rng.standard_normal((400, 400))
        frac = threshold_residuals(field, 3.0).mean()
        assert frac == pytest.approx(0.0027, abs=0.001)

    def test_transposition_invariance(self):
        rng = np.random.default_rng(2)
        field = rng.standard_normal((60, 40))
        a = threshold_residuals(field, 2.5)
        b = threshold_residuals(field.T, 2.5)
        assert a.sum() == b.sum()

    def test_monotone_in_limit(self):
        rng = np.random.default_rng(3)
        field = rng.standard_normal((100, 100))
        counts = [threshold_residuals(field, L).sum() for L in (1.0, 2.0, 3.0, 4.0)]
        assert counts == sorted(counts, reverse=True)

    @pytest.mark.parametrize("limit", [0.0, -1.0, math.nan, math.inf])
    def test_limit_must_be_positive_and_finite(self, limit):
        # One pixel far out: a NaN or infinite limit used to flag nothing.
        interest = np.ones((4, 4))
        interest[1, 2] = 50.0
        assert flag_out_of_control(interest, [np.zeros((4, 4))], [0.0, 0.0], 3.0).sum() == 1
        with pytest.raises(ValueError, match="positive and finite"):
            flag_out_of_control(interest, [np.zeros((4, 4))], [0.0, 0.0], limit)
        with pytest.raises(ValueError, match="positive and finite"):
            threshold_residuals(np.zeros((2, 2)), limit)


def _opening(mask, size):
    """The opening as ``detect`` runs it: ``postprocess`` with a 1x1 dilation."""
    return postprocess(mask, DetectorConfig(opening_size=size, dilation_size=1))


class TestMorphology:
    @pytest.mark.parametrize("size", [1, 3, 5])
    def test_matches_brute_force(self, size):
        rng = np.random.default_rng(4)
        for _ in range(30):
            mask = rng.random((16, 16)) < 0.35
            assert np.array_equal(erode(mask, size), brute_erode(mask, size))
            assert np.array_equal(dilate(mask, size), brute_dilate(mask, size))
            assert np.array_equal(_opening(mask, size), brute_opening(mask, size))

    @given(
        mask=arrays(bool, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6)),
        extra=st.integers(-1, 4),
    )
    @settings(deadline=None, max_examples=60)
    def test_squares_beyond_the_image_match_brute_force(self, mask, extra):
        # Half-widths from one below the longer side to past it, where the
        # frame stops growing: a frame for a square 10^9 + 1 pixels a side
        # would take an exabyte.
        size = 2 * (max(mask.shape) + extra) + 1
        assert np.array_equal(erode(mask, size), brute_erode(mask, size))
        assert np.array_equal(dilate(mask, size), brute_dilate(mask, size))
        capped = 2 * max(mask.shape) + 1
        assert np.array_equal(erode(mask, 10**9 + 1), brute_erode(mask, capped))
        assert np.array_equal(dilate(mask, 10**9 + 1), brute_dilate(mask, capped))

    def test_dilate_empty_stays_empty(self):
        assert not dilate(np.zeros((8, 8), bool), 3).any()

    def test_erode_full_zeroes_border(self):
        out = erode(np.ones((8, 8), bool), 3)
        assert out[1:-1, 1:-1].all()
        assert not out[0].any() and not out[-1].any()
        assert not out[:, 0].any() and not out[:, -1].any()

    def test_opening_removes_isolated_pixel(self):
        mask = np.zeros((9, 9), bool)
        mask[4, 4] = True
        assert not _opening(mask, 3).any()

    def test_opening_closing_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            mask = rng.random((16, 16)) < 0.4
            once = _opening(mask, 3)
            assert np.array_equal(_opening(once, 3), once)
            shut = erode(dilate(mask, 3), 3)
            assert np.array_equal(erode(dilate(shut, 3), 3), shut)

    def test_duality_away_from_borders(self):
        rng = np.random.default_rng(6)
        mask = rng.random((20, 20)) < 0.5
        ero = erode(mask, 3)
        dual = ~dilate(~mask, 3)
        assert np.array_equal(ero[2:-2, 2:-2], dual[2:-2, 2:-2])

    def test_even_size_rejected(self):
        with pytest.raises(ValueError):
            erode(np.zeros((4, 4), bool), 2)

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2)])
    @pytest.mark.parametrize("op", [lambda m: erode(m, 3), lambda m: dilate(m, 3), extract_clusters],
                             ids=["erode", "dilate", "extract_clusters"])
    def test_mask_of_other_than_two_dimensions_refused(self, op, shape):
        with pytest.raises(ValueError, match="mask must be 2-D"):
            op(np.ones(shape, bool))

    @given(
        mask=arrays(bool, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12)),
        size=st.sampled_from([1, 3, 5, 7]),
    )
    @settings(deadline=None, max_examples=60)
    def test_any_shape_matches_brute_force(self, mask, size):
        assert np.array_equal(erode(mask, size), brute_erode(mask, size))
        assert np.array_equal(dilate(mask, size), brute_dilate(mask, size))

    @pytest.mark.parametrize(
        "convert",
        [
            lambda m: m.astype(np.uint8) * 255,
            lambda m: m.astype(np.int64) * -3,
            lambda m: np.where(m, 0.25, 0.0),
            lambda m: np.repeat(np.repeat(m, 2, axis=0), 3, axis=1)[::2, ::3],
            lambda m: m.T.copy().T,
            lambda m: np.asfortranarray(m.astype(np.uint8) * 255),
        ],
        ids=["uint8-255", "int", "float", "strided-view", "fortran-view", "fortran-uint8"],
    )
    def test_any_dtype_and_layout_matches_brute_force(self, convert):
        rng = np.random.default_rng(9)
        for shape in [(1, 1), (3, 11), (12, 7), (16, 16)]:
            mask = rng.random(shape) < 0.6
            for size in (1, 3, 5, 9):
                assert np.array_equal(erode(convert(mask), size), brute_erode(mask, size))
                assert np.array_equal(dilate(convert(mask), size), brute_dilate(mask, size))


class TestPostprocess:
    @pytest.mark.parametrize("opening_size", [1, 3, 5])
    @pytest.mark.parametrize("dilation_size", [1, 3, 7, 9])
    def test_matches_brute_opening_then_dilation(self, opening_size, dilation_size):
        # Shapes from 1 to 13 a side: the squares of the fused dilation are
        # often larger than the image.
        cfg = DetectorConfig(opening_size=opening_size, dilation_size=dilation_size)
        rng = np.random.default_rng(opening_size * 10 + dilation_size)
        for _ in range(12):
            mask = rng.random(tuple(rng.integers(1, 14, size=2))) < rng.uniform(0.2, 0.9)
            expected = brute_dilate(brute_opening(mask, opening_size), dilation_size)
            assert np.array_equal(postprocess(mask, cfg), expected)

    def test_solid_blob_survives_and_grows(self):
        mask = np.zeros((30, 30), bool)
        mask[10:15, 10:15] = True  # 5x5 blob
        out = postprocess(mask, DetectorConfig())
        # Opening with 3x3 keeps the 5x5 block; 7x7 dilation adds 3 per side.
        expected = np.zeros((30, 30), bool)
        expected[7:18, 7:18] = True
        assert np.array_equal(out, expected)

    def test_isolated_pixels_vanish(self):
        rng = np.random.default_rng(7)
        mask = np.zeros((40, 40), bool)
        pts = rng.choice(1600, size=25, replace=False)
        mask[pts // 40, pts % 40] = True
        # Knock out adjacent picks so every set pixel is isolated.
        clean = np.zeros_like(mask)
        for i, j in zip(*np.nonzero(mask)):
            if not mask[max(0, i - 1) : i + 2, max(0, j - 1) : j + 2].sum() > 1:
                clean[i, j] = True
        assert not postprocess(clean, DetectorConfig()).any()

    def test_no_single_pixel_components_after_postprocess(self):
        rng = np.random.default_rng(8)
        mask = rng.random((50, 50)) < 0.2
        out = postprocess(mask, DetectorConfig())
        clusters = extract_clusters(out)
        assert all(c.n_pixels > 1 for c in clusters)

    def test_blobs_eight_apart_merge_after_dilation(self):
        mask = np.zeros((40, 40), bool)
        mask[10:13, 10:13] = True
        mask[10:13, 18:21] = True  # centroids 8 px apart
        out = postprocess(mask, DetectorConfig())
        assert len(extract_clusters(out, merge_distance=0.0)) == 1


class TestClusters:
    def test_eight_connectivity(self):
        mask = np.zeros((5, 5), bool)
        mask[1, 1] = mask[2, 2] = True  # diagonal touch
        assert len(extract_clusters(mask)) == 1

    def test_merge_by_centroid_distance(self):
        mask = np.zeros((10, 30), bool)
        mask[4, 2] = True
        mask[4, 10] = True  # 8 px apart
        mask[4, 25] = True  # 15 px from the second
        clusters = extract_clusters(mask, merge_distance=10.0)
        assert len(clusters) == 2
        merged = max(clusters, key=lambda c: c.n_components)
        assert merged.n_components == 2
        assert merged.centroid_col == pytest.approx(6.0)

    def test_disjoint_components(self):
        rng = np.random.default_rng(9)
        mask = rng.random((30, 30)) < 0.3
        clusters = extract_clusters(mask)
        from scipy import ndimage

        _, n = ndimage.label(mask, structure=np.ones((3, 3)))
        assert sum(c.n_components for c in clusters) == n
        assert sum(c.n_pixels for c in clusters) == int(mask.sum())


def _as_tuples(clusters):
    return tuple((c.centroid_row, c.centroid_col, c.n_pixels, c.n_components) for c in clusters)


class TestClustersMatchReference:
    """The k-d tree merge equals the all-pairs union-find, float for float."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(1, 60), st.integers(1, 60)),
        density=st.sampled_from([0.005, 0.02, 0.1, 0.4]),
        merge_distance=st.one_of(
            st.sampled_from([0.0, 1.0, 2.0, 5.0, 10.0, 13.0, 2.0**0.5]),
            st.floats(0.0, 20.0),
        ),
        block=st.sampled_from([_BLOCK, 1, 7, 64, 200]),
    )
    @settings(deadline=None, max_examples=150)
    def test_random_masks(self, seed, shape, density, merge_distance, block):
        # Below the real block size the sums run over blocks of a few rows,
        # or of one row narrower than the mask, so that components span
        # several blocks.
        mask = np.random.default_rng(seed).random(shape) < density
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rayreg.detection, "_BLOCK", block)
            clusters = _as_tuples(extract_clusters(mask, merge_distance))
        assert clusters == detect_reference.extract_clusters(mask, merge_distance)

    def test_components_across_row_block_edges(self):
        # 218 rows a block at this width, so four blocks: bars, crosses and
        # squares straddle each edge, among sparse single pixels.
        rows, cols = 700, 300
        step = _BLOCK // cols
        assert rows > 3 * step
        mask = np.random.default_rng(9).random((rows, cols)) < 0.0005
        for k, edge in enumerate(range(step, rows, step)):
            mask[edge - 30 : edge + 40, 10 + 40 * k] = True  # a vertical bar
            mask[edge - 3 : edge + 3, 150 + 30 * k : 160 + 30 * k] = True  # a block
            mask[edge - 5 : edge + 6, 250 - 5 * k] = True
            mask[edge - 1 : edge + 1, 240 - 5 * k : 262 - 5 * k] = True  # a cross
        mask[:, 290] = True  # one column through every block
        for merge_distance in (0.0, 10.0, 40.0):
            assert _as_tuples(extract_clusters(mask, merge_distance)) == (
                detect_reference.extract_clusters(mask, merge_distance)
            )

    @pytest.mark.parametrize("pixel_size_m", [1.0, 0.1, 0.3, 2.5])
    @pytest.mark.parametrize("scale", [1, 2, 3])
    def test_centroids_exactly_at_merge_distance(self, pixel_size_m, scale):
        # Single pixels on 3-4-5 and 5-12-13 triangles: distances are exact.
        # The merge distance is in pixels; in meters, at the pixel size, it is
        # the default match radius, scored here against truths exactly 5
        # scaled pixels from the pixels.
        pixels = [(1, 1), (1 + 3 * scale, 1 + 4 * scale), (1, 1 + 13 * scale),
                  (1 + 5 * scale, 1 + 12 * scale + 13 * scale)]
        mask = np.zeros((80, 80), bool)
        for r, c in pixels:
            mask[r, c] = True
        truths = [(r + 3 * scale, c - 4 * scale) for r, c in pixels]
        singles = extract_clusters(mask)
        for md in (5.0 * scale, 13.0 * scale, 4.0 * scale):
            assert _as_tuples(extract_clusters(mask, md)) == (
                detect_reference.extract_clusters(mask, md)
            )
            radius_m = md * pixel_size_m
            assert score_detections(singles, truths, radius_m, pixel_size_m) == (
                detect_reference.score_detections(singles, truths, radius_m, pixel_size_m)
            )
        assert len(extract_clusters(mask, 5.0 * scale)) == 3
        for md, hits in ((5.0 * scale, 4), (4.0 * scale, 0)):
            assert score_detections(singles, truths, md * pixel_size_m, pixel_size_m)[0] == hits

    def test_coincident_centroids_merge_at_zero_distance(self):
        # A hollow 5x5 ring and its center pixel: two components, one centroid.
        mask = np.zeros((9, 9), bool)
        mask[2:7, 2:7] = True
        mask[3:6, 3:6] = False
        mask[4, 4] = True
        clusters = extract_clusters(mask, merge_distance=0.0)
        assert _as_tuples(clusters) == detect_reference.extract_clusters(mask, 0.0)
        assert len(clusters) == 1 and clusters[0].n_components == 2

    def test_equal_centroids_kept_apart_keep_reference_order(self):
        # A ring of eight pixels 8 apart merges into one cluster centred on
        # a pixel 10 away from it: two clusters with the same centroid.
        mask = np.zeros((41, 41), bool)
        for dr, dc in [(10, 0), (-10, 0), (0, 10), (0, -10), (7, 7), (7, -7), (-7, 7), (-7, -7)]:
            mask[20 + dr, 20 + dc] = True
        mask[20, 20] = True
        clusters = _as_tuples(extract_clusters(mask, merge_distance=8.0))
        assert clusters == detect_reference.extract_clusters(mask, 8.0)
        assert [c[3] for c in clusters] == [8, 1] and clusters[0][:2] == clusters[1][:2]

    @pytest.mark.parametrize("members", [2, 7, 8, 9, 17])
    def test_lone_components_among_merged_groups(self, members):
        # Rows of blobs 3 apart merge into groups of ``members`` components
        # (numpy sums 8 or more pairwise), with lone blobs of unequal sizes
        # between and around them.
        rng = np.random.default_rng(members)
        mask = np.zeros((60, 3 * members + 40), bool)
        for r in (5, 30, 55):
            for k in range(members):
                mask[r, 3 * k + 1 : 3 * k + 1 + rng.integers(1, 3)] = True
        for r, c in rng.integers(0, mask.shape, size=(25, 2)):
            if not mask[max(r - 9, 0) : r + 10, max(c - 9, 0) : c + 10].any():
                mask[r : r + rng.integers(1, 3), c : c + rng.integers(1, 4)] = True
        clusters = _as_tuples(extract_clusters(mask, merge_distance=3.5))
        assert clusters == detect_reference.extract_clusters(mask, 3.5)
        counts = sorted(c[3] for c in clusters)
        assert counts.count(members) >= 3 and counts[0] == 1

    @pytest.mark.parametrize("members", [9, 12, 17, 40])
    def test_one_merged_cluster_of_many_components(self, members):
        # Two-row components of 2 to 12 pixels, 8 columns apart on three
        # rows, merge into one cluster beside a lone pixel: segments of 9 or
        # more terms, which numpy sums pairwise.  The centroids lie off the
        # grid, and for some components of 7 or 11 pixels size * centroid
        # misses the whole pixel sum it came from by an ulp.
        mask = np.zeros((24, 8 * members + 2), bool)
        for k in range(members):
            r, c = 3 + k % 3, 8 * k
            mask[r, c : c + 1 + k % 7] = True
            mask[r + 1, c + k % 2 : c + 1 + (3 * k) % 7] = True
        mask[-1, -1] = True
        clusters = _as_tuples(extract_clusters(mask, merge_distance=12.0))
        assert clusters == detect_reference.extract_clusters(mask, 12.0)
        assert sorted(c[3] for c in clusters) == [1, members]


class TestThresholdMatchesReference:
    """Ratio-space flagging equals thresholding the residual field."""

    @given(limit=st.floats(0.5, 9.0), two_sided=st.booleans())
    @settings(deadline=None, max_examples=60)
    def test_cuts_are_the_reference_flip_points(self, limit, two_sided):
        def flagged(z):
            res = detect_reference.residuals_from_mean(np.array([z]), 1.0)
            return bool(threshold_residuals(res, limit, two_sided)[0])

        upper, lower = _ratio_cuts(limit, two_sided)
        for cut in (upper, lower):
            if np.isnan(cut):
                continue
            assert flagged(cut) != flagged(np.nextafter(cut, -1.0)) or cut == 0.0
        if np.isnan(upper):
            assert not flagged(1e150)
        if two_sided and np.isnan(lower):
            assert not flagged(0.0)

    @given(
        cut=st.one_of(
            st.floats(0.0, 1e6),
            st.builds(lambda limit, side: _ratio_cuts(limit, True)[side],
                      st.floats(0.5, 9.0), st.sampled_from([0, 1])),
        )
    )
    @settings(deadline=None, max_examples=100)
    def test_guard_band_is_the_near_test(self, cut):
        # The band's ends and the ratios a few ulps either side of them, of
        # the cut and of the nominal ends cut * (1 -+ 1e-9) are decided as
        # abs(z - cut) <= _GUARD * cut decides them over float64 arrays.
        start, stop = _guard_band(cut)
        if np.isnan(cut):
            assert np.isnan(start) and np.isnan(stop)
            return
        assert start <= cut < stop
        z = np.array([start, stop, cut, cut * (1 - _GUARD), cut * (1 + _GUARD)])
        for _ in range(3):
            z = np.concatenate([z, np.nextafter(z, -np.inf), np.nextafter(z, np.inf)])
        z = np.unique(z[z >= 0.0])
        near = np.abs(z - cut) <= _GUARD * cut
        assert np.array_equal((z >= start) & (z < stop), near)
        assert near.any()

    def test_guard_band_of_nan_cut(self):
        assert all(np.isnan(_guard_band(float("nan"))))

    @pytest.mark.parametrize("two_sided", [True, False])
    def test_cached_cuts_are_the_computed_ones(self, two_sided):
        for limit in (3.0, 2.0, 7.9, 8.5, 3.0):
            cuts = _ratio_cuts(limit, two_sided)
            assert cuts is _ratio_cuts(limit, two_sided)
            np.testing.assert_array_equal(cuts, _ratio_cuts.__wrapped__(limit, two_sided))
            for cut in cuts:
                np.testing.assert_array_equal(_guard_band(cut), _guard_band.__wrapped__(cut))

    def test_limits_in_turn_each_flag_their_own_set(self):
        rng = np.random.default_rng(8)
        covariates = [rng.random((80, 80))]
        beta = [0.2, 0.5]
        interest = rng.rayleigh(1.0, (80, 80)) * np.exp(0.2 + 0.5 * covariates[0])
        for limit, two_sided in [(3.0, True), (1.5, True), (1.5, False), (3.0, True)]:
            got = flag_out_of_control(interest, covariates, beta, limit, two_sided)
            want = detect_reference.flag_out_of_control(interest, covariates, beta, limit, two_sided)
            assert np.array_equal(got, want) and got.any()

    @given(
        seed=st.integers(0, 2**32 - 1),
        link=st.sampled_from(["log", "identity"]),
        two_sided=st.booleans(),
        limit=st.one_of(st.floats(0.5, 9.0), st.sampled_from([3.0, 7.0, 7.9, 7.94, 8.0])),
        n_covariates=st.sampled_from([1, 2]),
        unit_intercept=st.booleans(),
    )
    @settings(deadline=None, max_examples=40)
    def test_flagged_set(self, seed, link, two_sided, limit, n_covariates, unit_intercept):
        rng = np.random.default_rng(seed)
        shape = (260, 260)  # more than one block of the blocked evaluation
        covariates = [rng.random(shape) for _ in range(n_covariates)]
        for cov in covariates:
            cov[rng.random(shape) < 0.3] = 0.0
        if link == "log":
            beta = rng.normal(0.0, 1.0, 1 + n_covariates)
            if unit_intercept:
                beta[0] = 0.0
        else:
            beta = np.concatenate([[rng.uniform(0.05, 5.0)], rng.uniform(0.0, 3.0, n_covariates)])
            if unit_intercept:
                beta[0] = 1.0
        eta = beta[0] + sum(b * c for b, c in zip(beta[1:], covariates))
        mu = np.exp(eta) if link == "log" else eta

        # Ratios on and one ulp around each cut (exactly so where mu == 1),
        # within 1e-3 of it, zeros, and the bulk of the distribution.
        cuts = [c for c in _ratio_cuts(limit, two_sided) if np.isfinite(c) and c > 0]
        targets = [0.0] + [
            v for c in cuts for v in (c, np.nextafter(c, 0.0), np.nextafter(c, np.inf))
        ]
        z = rng.rayleigh(np.sqrt(2.0 / np.pi), shape)
        pick = rng.random(shape)
        z[pick < 0.4] = rng.choice(targets, size=int((pick < 0.4).sum()))
        if cuts:
            near = (pick >= 0.4) & (pick < 0.6)
            z[near] = rng.choice(cuts, size=int(near.sum())) * (
                1.0 + rng.uniform(-1e-3, 1e-3, int(near.sum()))
            )
        interest = z * mu

        got = flag_out_of_control(interest, covariates, beta, limit, two_sided, link)
        want = detect_reference.flag_out_of_control(
            interest, covariates, beta, limit, two_sided, link
        )
        assert np.array_equal(got, want)

    def test_clamp_matches_inference(self):
        assert detect_reference.CLAMP_EPS == inference.RESIDUAL_CLAMP_EPS

    def test_nonpositive_mean_rejected(self):
        with pytest.raises(ValueError, match="strictly positive"):
            flag_out_of_control(np.ones((4, 4)), [np.ones((4, 4))], [1.0, -2.0], 3.0,
                                link="identity")


class TestScoring:
    def test_exact_hit(self):
        clusters = (Cluster(5.0, 5.0, 9),)
        assert score_detections(clusters, [(5, 5)], radius_m=10.0) == (1, 0, 0)

    def test_all_missed(self):
        assert score_detections((), [(1, 1)] * 25, radius_m=10.0) == (0, 0, 25)

    def test_two_clusters_one_truth(self):
        clusters = (Cluster(5.0, 5.0, 4), Cluster(5.0, 8.0, 4))
        assert score_detections(clusters, [(5, 6)], radius_m=10.0) == (1, 1, 0)

    def test_nearest_first_assignment(self):
        clusters = (Cluster(0.0, 0.0, 1), Cluster(0.0, 4.0, 1))
        truths = [(0, 3), (0, 1)]
        hits, fa, missed = score_detections(clusters, truths, radius_m=10.0)
        assert (hits, fa, missed) == (2, 0, 0)

    def test_counting_identities_random(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            clusters = tuple(
                Cluster(float(r), float(c), 1)
                for r, c in rng.integers(0, 20, size=(rng.integers(0, 5), 2))
            )
            truths = [tuple(t) for t in rng.integers(0, 20, size=(rng.integers(0, 5), 2))]
            hits, fa, missed = score_detections(clusters, truths, radius_m=5.0)
            assert hits + fa == len(clusters)
            assert hits + missed == len(truths)
            assert hits <= min(len(clusters), len(truths))

    def test_equal_distances_taken_in_cluster_then_truth_order(self):
        # The first cluster is 1 from both truths, the second 1 from one of
        # them: which truth the first cluster takes decides the score.
        clusters = (Cluster(0.0, 0.0, 1), Cluster(0.0, 2.0, 1))
        for truths, expected in [([(0, -1), (0, 1)], (2, 0, 0)), ([(0, 1), (0, -1)], (1, 1, 1))]:
            assert score_detections(clusters, truths, radius_m=1.5) == expected
            assert detect_reference.score_detections(clusters, truths, 1.5) == expected

    @given(
        clusters=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=8),
        truths=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=8),
        radius_m=st.sampled_from([0.0, 1.0, 1.5, 2.0, 5.0, 20.0]),
        pixel_size_m=st.sampled_from([1.0, 0.5, 2.5, 0.3]),
    )
    @settings(deadline=None, max_examples=200)
    def test_matches_reference(self, clusters, truths, radius_m, pixel_size_m):
        # Integer grid positions: many candidate pairs lie at equal distances.
        clusters = tuple(Cluster(float(r), float(c), 1) for r, c in clusters)
        assert score_detections(clusters, truths, radius_m, pixel_size_m) == (
            detect_reference.score_detections(clusters, truths, radius_m, pixel_size_m)
        )

    @pytest.mark.parametrize("radius_m", [-1.0, math.inf, math.nan])
    def test_radius_must_be_nonnegative_and_finite(self, radius_m):
        with pytest.raises(ValueError, match="radius must be nonnegative and finite"):
            score_detections((Cluster(0.0, 0.0, 1),), [(0, 0)], radius_m)

    def test_pixel_size_scales_distances(self):
        clusters = (Cluster(0.0, 6.0, 1),)
        assert score_detections(clusters, [(0, 0)], radius_m=10.0, pixel_size_m=1.0)[0] == 1
        assert score_detections(clusters, [(0, 0)], radius_m=10.0, pixel_size_m=2.0)[0] == 0


class TestDetect:
    def test_fitted_mean_field_yields_no_clusters(self):
        # Constant image: residuals share one in-control value everywhere.
        img = np.full((40, 40), 2.5)
        res = detect(img, [], (0, 0, 20, 40))
        assert len(res.clusters) == 0
        assert res.n_flagged == 0

    def test_training_region_validation(self):
        img = np.full((40, 40), 2.5)
        with pytest.raises(ValueError, match="does not fit"):
            detect(img, [], (0, 0, 50, 40))
        with pytest.raises(ValueError, match="at least"):
            detect(img, [], (0, 0, 1, 5))

    @pytest.mark.parametrize("region", [(0, 0, 20), (0, 0, 20, 40, 1), ()])
    def test_training_region_of_other_than_four_values_refused(self, region):
        img = np.full((40, 40), 2.5)
        message = f"training region must be four values (row0, col0, row1, col1), got {region}"
        with pytest.raises(ValueError) as exc:
            detect(img, [], region)
        assert str(exc.value) == message

    def test_zero_training_pixel_reported_with_position(self):
        img = np.full((40, 40), 2.5)
        img[3, 7] = 0.0
        with pytest.raises(ValueError, match=r"\(3, 7\)"):
            detect(img, [], (0, 0, 20, 40))

    def test_overflowing_training_pixel_reported_with_position(self):
        # No mean near the others' makes pi/4 (y / mu)^2 finite at 1e200.
        img = np.random.default_rng(3).uniform(1.0, 3.0, (40, 40))
        img[13, 27] = 1e200
        with pytest.raises(ValueError, match=r"^training pixel at \(row, col\) \(13, 27\) has "
                                             r"amplitude 1e\+200, which overflows"):
            detect(img, [], (10, 0, 30, 40))

    def test_infeasible_start_without_a_row_passes_through(self, monkeypatch):
        # Only an error that names a training pixel is restated with its position.
        def infeasible(spec, robust):
            raise InfeasibleStartError("objective is not finite at the start")

        monkeypatch.setattr(rayreg.detection, "fit_both", infeasible)
        img = np.random.default_rng(3).uniform(1.0, 3.0, (40, 40))
        with pytest.raises(InfeasibleStartError, match="^objective is not finite at the start$"):
            detect(img, [], (10, 0, 30, 40))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["interest image", "covariate 1"])
    def test_non_finite_pixels_refused(self, value, where):
        img, cov = np.full((40, 40), 2.5), np.ones((40, 40))
        (img if where == "interest image" else cov)[27, 13] = value
        cov[0, 0] = -1.0  # a covariate may be negative
        if where == "interest image":
            img[0, 0] = -1.0  # the finiteness check comes first
        with pytest.raises(ValueError, match=f"^{where} contains non-finite pixels$"):
            detect(img, [cov], (0, 0, 20, 40))

    def test_peak_memory_per_pixel(self):
        # Above its inputs, detection holds the mask and the label image, one
        # byte and four a pixel; the fit on a 20000-pixel window stays below
        # that.  Holding the raw flags, the training design, or pixel
        # coordinates as int64 would each add a byte or more a pixel.
        scene = make_scene(1000, 1000, seed=0, training_rows=20)
        args = (scene.interest, [scene.covariate], scene.training_region)
        for method in ("wmle", "mle"):
            detect(*args, method=method)  # imports and cached cuts
            tracemalloc.start()
            try:
                detect(*args, method=method)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            assert peak < 6 * scene.interest.size, method

    @pytest.mark.parametrize("interest, kwargs, message", [
        (np.full(1600, 2.5), {}, r"interest image must be a 2-D array, got shape \(1600,\)"),
        (np.full((40, 40, 1), 2.5), {}, "interest image must be a 2-D array"),
        (np.full((40, 40), 2.5), {"method": "bfgs"}, "method must be 'wmle' or 'mle'"),
        (np.full((40, 40), -2.5), {}, "interest image must be nonnegative"),
    ], ids=["1-d", "3-d", "unknown-method", "negative-pixels"])
    def test_malformed_arguments_refused(self, interest, kwargs, message):
        with pytest.raises(ValueError, match=message):
            detect(interest, [], (0, 0, 20, 40), **kwargs)

    def test_shape_mismatch(self):
        img = np.full((40, 40), 2.5)
        with pytest.raises(ValueError, match="does not match"):
            detect(img, [np.ones((40, 39))], (0, 0, 20, 40))

    def test_synthetic_scene_end_to_end(self):
        scene = make_scene(rows=100, cols=100, seed=5, blob_grid=2, training_rows=25)
        res = detect(scene.interest, [scene.covariate], scene.training_region, method="wmle")
        hits, false_alarms, missed = score_detections(res.clusters, scene.truth, 10.0)
        assert hits == 4 and missed == 0
        assert false_alarms <= 1

    def test_method_comparison_directional(self):
        scene = make_scene(rows=100, cols=100, seed=6, blob_grid=2, training_rows=25)
        false_alarms = {}
        for method in ("wmle", "mle"):
            res = detect(scene.interest, [scene.covariate], scene.training_region, method=method)
            false_alarms[method] = score_detections(res.clusters, scene.truth, 10.0)[1]
        assert false_alarms["mle"] >= false_alarms["wmle"]

    def test_deterministic(self):
        scene = make_scene(rows=100, cols=100, seed=7, blob_grid=2, training_rows=25)
        a = detect(scene.interest, [scene.covariate], scene.training_region)
        b = detect(scene.interest, [scene.covariate], scene.training_region)
        assert np.array_equal(a.mask, b.mask)
        assert a.clusters == b.clusters

    def test_upper_tail_only_flag(self):
        scene = make_scene(rows=100, cols=100, seed=8, blob_grid=2, training_rows=25)
        two = detect(scene.interest, [scene.covariate], scene.training_region,
                     cfg=DetectorConfig(two_sided=True))
        one = detect(scene.interest, [scene.covariate], scene.training_region,
                     cfg=DetectorConfig(two_sided=False))
        assert one.n_flagged <= two.n_flagged


class TestDetectorConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"control_limit": 0.0},
            {"opening_size": 2},
            {"dilation_size": 0},
            {"merge_distance": -1.0},
            {"pixel_size_m": 0.0},
            {"control_limit": math.nan},
            {"control_limit": math.inf},
            {"opening_size": math.nan},
            {"dilation_size": math.inf},
            {"merge_distance": math.nan},
            {"merge_distance": math.inf},
            {"pixel_size_m": math.nan},
            {"pixel_size_m": math.inf},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DetectorConfig(**kwargs)
