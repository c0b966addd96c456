"""Residual control-chart anomaly detection for amplitude images.

Pipeline: fit the regression on a training window, push the whole image
through the fitted model, flag every pixel whose normal-quantile residual
lies outside the control limits, then clean the binary mask with an
opening (speckle removal) followed by a dilation (object consolidation).
Detections whose centroids sit closer than the merge distance count as
one object.

Morphology uses filled squares and counts pixels outside the image as
background.  Erosion and dilation are separable running ANDs and ORs,
computed in place on one zero-framed bool buffer by passes over shifted
slices, each pass at most doubling the window: a side of ``s`` takes
about ``log2(s)`` passes per axis.  The opening's dilation and the final
one are done as a single dilation.

Thresholding works on cuts on ``y / mu`` that depend only on the control
limit and the sidedness; each process finds them once and keeps them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .estimation import FitResult, RobustConfig, fit_both
from .inference import quantile_residuals_from_mean
from .optim import InfeasibleStartError
from .regression import DesignMatrix, ModelSpec, get_link

__all__ = [
    "DetectorConfig",
    "Cluster",
    "DetectionResult",
    "threshold_residuals",
    "flag_out_of_control",
    "erode",
    "dilate",
    "opening",
    "closing",
    "postprocess",
    "extract_clusters",
    "score_detections",
    "detect",
]

_EIGHT_CONNECTED = np.ones((3, 3), dtype=bool)

# Pixels per block when the fitted mean is evaluated over the image: the
# design of one block stays in cache, and every block of BLAS's product
# matches the full product bit for bit.
_BLOCK = 1 << 16

# Ratios this close (relative) to a cut are decided by the residual itself.
_GUARD = 1e-9

# The residual is constant in the ratio beyond this point: F(z) rounds to 1
# for z above about 7, and z * z stays finite here.
_Z_MAX = 1e150


@dataclass(frozen=True)
class DetectorConfig:
    """Control limit, structuring-element sizes, and merge geometry.

    The defaults follow the usual three-sigma chart (limit 3), a 3x3
    opening, a 7x7 dilation, and a 10-pixel merge distance at one meter
    per pixel.
    """

    control_limit: float = 3.0
    opening_size: int = 3
    dilation_size: int = 7
    merge_distance: float = 10.0
    pixel_size_m: float = 1.0
    two_sided: bool = True

    def __post_init__(self):
        if not 0.0 < self.control_limit < math.inf:
            raise ValueError(f"control_limit must be positive and finite, got {self.control_limit}")
        for name in ("opening_size", "dilation_size"):
            size = getattr(self, name)
            if not (1 <= size < math.inf and size % 2 == 1):
                raise ValueError(f"{name} must be an odd positive integer, got {size}")
        if not 0.0 <= self.merge_distance < math.inf:
            raise ValueError(f"merge_distance must be nonnegative and finite, got {self.merge_distance}")
        if not 0.0 < self.pixel_size_m < math.inf:
            raise ValueError(f"pixel_size_m must be positive and finite, got {self.pixel_size_m}")


def _as_mask(mask) -> np.ndarray:
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise ValueError("mask must be 2-D")
    return mask.astype(bool, copy=False)


def _check_size(size: int) -> int:
    if size < 1 or size % 2 == 0:
        raise ValueError(f"structuring element size must be odd and >= 1, got {size}")
    return size


def threshold_residuals(residuals, limit: float, two_sided: bool = True) -> np.ndarray:
    """Binary anomaly mask: pixels strictly outside the control band.

    A residual exactly at the limit stays in control (the in-control band
    is the closed interval).
    """
    if not 0.0 < limit < math.inf:
        raise ValueError(f"control limit must be positive and finite, got {limit}")
    residuals = np.asarray(residuals, dtype=np.float64)
    if two_sided:
        return np.abs(residuals) > limit
    return residuals > limit


def _first_ratio(pred) -> float:
    """Smallest float64 ratio ``z >= 0`` at which ``pred`` turns true.

    ``pred`` must be false-then-true in ``z``; NaN when it never turns
    true, so that every comparison against the result is false.
    Bisection over the bit patterns, which order nonnegative floats.
    """
    if not pred(_Z_MAX):
        return float("nan")
    lo, hi = -1, int(np.float64(_Z_MAX).view(np.int64))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(float(np.int64(mid).view(np.float64))):
            hi = mid
        else:
            lo = mid
    return float(np.int64(hi).view(np.float64))


@functools.lru_cache(maxsize=32)
def _ratio_cuts(limit: float, two_sided: bool) -> tuple:
    """Cuts on ``z = y / mu`` equivalent to thresholding the residual.

    The residual ``ndtri(clip(F(z)))`` is nondecreasing in ``z``, so a pixel
    is flagged high iff ``z >= upper`` and low iff ``z < lower``.  The cuts
    are the reference expression's own flip points, so they carry its
    rounding (which near ``F = 1`` moves the cut by up to 1e-4 relative
    against the closed form) and the clamp at ``RESIDUAL_CLAMP_EPS``
    (beyond a limit of about 7.94 a side flags nothing, and its cut is NaN).
    """
    one = np.ones(1)

    def residual(z):
        return quantile_residuals_from_mean(np.array([z]), one)[0]

    upper = _first_ratio(lambda z: residual(z) > limit)
    lower = _first_ratio(lambda z: residual(z) >= -limit) if two_sided else float("nan")
    return upper, lower


@functools.lru_cache(maxsize=32)
def _guard_band(cut: float) -> tuple:
    """Half-open ``[start, stop)`` of the float ratios ``z`` with
    ``abs(z - cut) <= _GUARD * cut`` as float64 evaluates it: the ratios
    the residual decides.  The subtraction rounds monotonically, so that
    test is false, true, then false in ``z``.  A NaN cut gives NaN ends,
    which no comparison passes."""
    g = _GUARD * cut
    return _first_ratio(lambda z: z - cut >= -g), _first_ratio(lambda z: z - cut > g)


def flag_out_of_control(
    interest, covariates, beta, limit: float, two_sided: bool = True, link: str = "log"
) -> np.ndarray:
    """Mask of pixels whose quantile residual lies outside the control band.

    Equal to ``threshold_residuals(quantile_residuals_from_mean(y, mu),
    limit, two_sided)`` with ``mu`` the inverse link of ``X @ beta`` and
    ``X`` the intercept plus the covariate images, but built block by block
    without the full-image design or the residual field: the residual
    depends on a pixel only through ``y / mu``, and each side of the band
    is one cut on that ratio.  Ratios within a relative 1e-9 of a cut are
    decided by the residual itself.  The cuts and bands (some 70 bisection
    steps) are cached per process for each ``(limit, two_sided)``.

    Each of these guard bands is a float interval (:func:`_guard_band`), so
    a block takes two masks: ``wide``, the ratios past a band's inner end,
    and ``narrow``, those past its outer end.  ``narrow`` lies within the
    cuts' decision and that within ``wide``, so where their counts agree
    no pixel is in a band and ``wide`` is the answer; otherwise the
    ``wide & ~narrow`` pixels go through the residual.

    Raises ``ValueError`` unless the limit is positive and finite and the
    fitted mean is strictly positive and finite over the whole image.
    """
    if not 0.0 < limit < math.inf:
        raise ValueError(f"control limit must be positive and finite, got {limit}")
    upper, lower = _ratio_cuts(float(limit), bool(two_sided))
    (upper_in, upper_out), (lower_out, lower_in) = _guard_band(upper), _guard_band(lower)
    inverse = get_link(link).inverse
    beta = np.asarray(beta, dtype=np.float64)
    y = np.asarray(interest, dtype=np.float64)
    columns = [np.asarray(c, dtype=np.float64).ravel() for c in covariates]
    flat = y.ravel()
    flags = np.empty(flat.size, dtype=bool)
    size = min(_BLOCK, flat.size)
    design = np.empty((size, 1 + len(columns)))
    design[:, 0] = 1.0
    ratio = np.empty(size)
    narrow, spare = np.empty(size, dtype=bool), np.empty(size, dtype=bool)
    for start in range(0, flat.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        yb = flat[block]
        n = yb.size
        X = design[:n]
        for j, c in enumerate(columns, 1):
            X[:, j] = c[block]
        mu = inverse(X @ beta)
        if not (mu.min() > 0.0 and mu.max() < math.inf):
            raise ValueError("fitted mean field is not strictly positive over the image")
        # A pixel near the largest double over a mean below one overflows
        # to an infinite ratio, which lies past the upper cut as it should.
        with np.errstate(over="ignore"):
            z = np.divide(yb, mu, out=ratio[:n])
        wide, nb, tmp = flags[block], narrow[:n], spare[:n]
        np.greater_equal(z, upper_in, out=wide)
        wide |= np.less(z, lower_in, out=tmp)
        np.greater_equal(z, upper_out, out=nb)
        nb |= np.less(z, lower_out, out=tmp)
        if np.count_nonzero(wide) != np.count_nonzero(nb):
            near = np.flatnonzero(wide > nb)
            res = quantile_residuals_from_mean(yb[near], mu[near])
            wide[:] = nb
            wide[near] = threshold_residuals(res, limit, two_sided=two_sided)
    return flags.reshape(y.shape)


def _square_filter(mask, size: int, op) -> np.ndarray:
    """``op`` (``np.logical_and`` or ``np.logical_or``) over the ``size`` x
    ``size`` square centred on each pixel; outside the image counts as 0.

    The mask sits in a zero frame ``r = size // 2`` wide, so the square
    centred on pixel (i, j) is the buffer's window of ``size`` rows and
    columns starting at (i, j).  The windows grow in place over the flat
    buffer, along a row by shifts of one element and down a column by
    shifts of one buffer row: the window of length ``n`` combined with the
    one ``k <= n`` further on is the window of length ``n + k``.  Each
    shift is at most ``r`` elements or rows, so the entries it leaves
    alone lie in the frame's last row or rows and stay 0, as windows
    reaching past the buffer should.  Only windows starting in the
    frame's right-hand columns run on into the next buffer row, and no
    pixel of the result reads them.
    """
    mask = _as_mask(mask)
    r = _check_size(size) // 2
    rows, cols = mask.shape
    buf = np.zeros((rows + 2 * r, cols + 2 * r), dtype=bool)
    buf[r : r + rows, r : r + cols] = mask
    flat = buf.ravel()
    for stride in (1, buf.shape[1]):
        length = 1
        while length < size:
            step = min(length, size - length)
            shift = step * stride
            op(flat[:-shift], flat[shift:], out=flat[:-shift])
            length += step
    return buf[:rows, :cols].copy()


def erode(mask, size: int) -> np.ndarray:
    """Binary erosion with a filled square; outside the image counts as 0."""
    return _square_filter(mask, size, np.logical_and)


def dilate(mask, size: int) -> np.ndarray:
    """Binary dilation with a filled square; outside the image counts as 0."""
    return _square_filter(mask, size, np.logical_or)


def opening(mask, size: int) -> np.ndarray:
    return dilate(erode(mask, size), size)


def closing(mask, size: int) -> np.ndarray:
    return erode(dilate(mask, size), size)


def postprocess(mask, cfg: DetectorConfig) -> np.ndarray:
    """Opening (speckle removal) then dilation (object consolidation).

    Equal to ``dilate(opening(mask, o), d)`` with ``o = cfg.opening_size``
    and ``d = cfg.dilation_size``, computed as ``dilate(erode(mask, o),
    o + d - 1)``: dilating by an o-square and then a d-square is one
    dilation by their sum.  That holds with the zero background as well,
    because a path from a set pixel to an image pixel through the two
    squares can always pass through an intermediate pixel inside the image.
    """
    o = cfg.opening_size
    return dilate(erode(mask, o), o + cfg.dilation_size - 1)


@dataclass(frozen=True)
class Cluster:
    """One detection: merged connected components with a shared centroid."""

    centroid_row: float
    centroid_col: float
    n_pixels: int
    n_components: int = 1


def extract_clusters(mask, merge_distance: float = 0.0, pixel_size_m: float = 1.0) -> tuple:
    """8-connected components of a mask, merged by centroid proximity.

    Components whose centroids lie within ``merge_distance * pixel_size_m``
    meters of each other collapse (transitively) into a single cluster
    whose centroid is the pixel-count weighted mean.
    """
    from scipy import ndimage
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    from scipy.spatial import cKDTree
    mask = _as_mask(mask)
    labels, n_comp = ndimage.label(mask, structure=_EIGHT_CONNECTED)
    if n_comp == 0:
        return ()
    # Per-label pixel counts and coordinate sums, a block of rows at a time,
    # each block over the span of labels it holds.  The sums are of integers
    # below 2**53, exact in any order, so the centroids match
    # ndimage.center_of_mass's bit for bit.
    width = mask.shape[1]
    step = max(1, _BLOCK // width)
    sizes, row_sums, col_sums = np.zeros((3, n_comp + 1))
    for r0 in range(0, mask.shape[0], step):
        at = np.flatnonzero(mask[r0 : r0 + step])  # the labels are nonzero exactly there
        if at.size == 0:
            continue
        lab = labels[r0 : r0 + step].ravel()[at]
        lo = lab.min()
        lab -= lo
        rows, cols = np.divmod(at, width)
        counts = np.bincount(lab)
        span = slice(lo, lo + counts.size)
        sizes[span] += counts
        row_sums[span] += np.bincount(lab, weights=rows + r0)
        col_sums[span] += np.bincount(lab, weights=cols)
    sizes = sizes[1:]
    centroids = np.column_stack([row_sums[1:] / sizes, col_sums[1:] / sizes])

    # Single-linkage merge on centroid distance: the k-d tree proposes pairs
    # within a slightly larger radius, the exact predicate decides.
    limit_m = merge_distance * pixel_size_m
    pairs = cKDTree(centroids).query_pairs(merge_distance * (1.0 + 1e-9), output_type="ndarray")
    diff = centroids[pairs[:, 0]] - centroids[pairs[:, 1]]
    pairs = pairs[np.hypot(diff[:, 0], diff[:, 1]) * pixel_size_m <= limit_m]
    graph = coo_matrix(
        (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n_comp, n_comp)
    )
    n_groups, group = connected_components(graph, directed=False)
    # One segment per cluster, its components ascending, each summed as
    # np.sum sums it: a lone component's centroid comes out as (w * c) / w.
    order = np.argsort(group, kind="stable")
    counts = np.bincount(group, minlength=n_groups)
    starts = np.cumsum(counts) - counts
    w = sizes[order]
    total = np.add.reduceat(w, starts)
    row, col = (np.add.reduceat(w * centroids[order, j], starts) / total for j in (0, 1))
    # By centroid, exact ties in the order of their lowest component.
    rank = np.lexsort((order[starts], col, row))
    return tuple(Cluster(r, c, int(n), k) for r, c, n, k in zip(
        row[rank].tolist(), col[rank].tolist(), total[rank].tolist(), counts[rank].tolist()))


def score_detections(clusters, truth, radius_m: float, pixel_size_m: float = 1.0) -> tuple:
    """Greedy one-to-one matching of clusters to ground-truth points.

    Candidate pairs within ``radius_m`` meters are taken nearest first;
    every unmatched cluster is a false alarm and every unmatched truth a
    miss.  Returns ``(hits, false_alarms, missed)``.
    """
    if not 0.0 <= radius_m < math.inf:
        raise ValueError(f"radius must be nonnegative and finite, got {radius_m}")
    truth = np.array([(float(r), float(c)) for r, c in truth], dtype=np.float64).reshape(-1, 2)
    centroids = np.array([(cl.centroid_row, cl.centroid_col) for cl in clusters]).reshape(-1, 2)
    diff = centroids[:, None, :] - truth[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1]) * pixel_size_m
    ci, ti = np.nonzero(dist <= radius_m)
    # Nearest first; the stable sort keeps ties in (cluster, truth) order.
    order = np.argsort(dist[ci, ti], kind="stable")
    used_c: set = set()
    used_t: set = set()
    hits = 0
    for c, t in zip(ci[order].tolist(), ti[order].tolist()):
        if c in used_c or t in used_t:
            continue
        used_c.add(c)
        used_t.add(t)
        hits += 1
    return hits, len(clusters) - hits, len(truth) - hits


@dataclass(frozen=True)
class DetectionResult:
    """Mask, clusters, and (when truth is known) the detection score."""

    mask: np.ndarray
    clusters: tuple
    fit: FitResult
    n_flagged: int
    hits: int | None = None
    false_alarms: int | None = None
    missed: int | None = None


def _check_image(arr, name: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D array, got shape {arr.shape}")
    # Reductions, not a bool image: min and max propagate NaN, and
    # ``initial`` lets an empty image pass.
    if not (arr.min(initial=math.inf) > -math.inf and arr.max(initial=-math.inf) < math.inf):
        raise ValueError(f"{name} contains non-finite pixels")
    return arr


def _check_region(region, shape) -> tuple:
    bounds = tuple(int(v) for v in region)
    if len(bounds) != 4:
        raise ValueError(f"training region must be four values (row0, col0, row1, col1), got {region}")
    r0, c0, r1, c1 = bounds
    rows, cols = shape
    if not (0 <= r0 < r1 <= rows and 0 <= c0 < c1 <= cols):
        raise ValueError(f"training region {region} does not fit image shape {shape}")
    return r0, c0, r1, c1


def _fit_training(interest, covariates, region, robust, method, link) -> FitResult:
    """The ``method`` fit on the training window ``region``.  Only that fit
    leaves: the design, with its kept factorizations, and the other fit are
    freed before the whole image is flagged."""
    r0, c0, r1, c1 = region
    k = 1 + len(covariates)
    window = np.s_[r0:r1, c0:c1]
    y_train = interest[window].ravel()
    if y_train.size < 10 * k:
        raise ValueError(
            f"training region holds {y_train.size} pixels; need at least {10 * k} for {k} parameters"
        )
    nonpos = np.flatnonzero(y_train <= 0.0)
    if nonpos.size:
        width = c1 - c0
        coords = [(r0 + int(i) // width, c0 + int(i) % width) for i in nonpos[:10]]
        raise ValueError(
            f"training region contains {nonpos.size} nonpositive pixel(s), "
            f"first at (row, col): {coords}"
        )

    names = ("intercept",) + tuple(f"cov{i + 1}" for i in range(len(covariates)))
    X_train = np.column_stack([np.ones(y_train.size)] + [c[window].ravel() for c in covariates])
    spec = ModelSpec(design=DesignMatrix(X_train, names), link=link, response=y_train)
    try:
        mle, wmle = fit_both(spec, robust)
    except InfeasibleStartError as exc:
        if exc.row is None:
            raise
        r, c = divmod(exc.row, c1 - c0)
        raise ValueError(f"training pixel at (row, col) {(r0 + r, c0 + c)} has amplitude "
                         f"{float(y_train[exc.row])!r}, which overflows the log-likelihood") from None
    return wmle if method == "wmle" else mle


def detect(
    interest,
    covariates,
    training_region,
    cfg: DetectorConfig | None = None,
    robust: RobustConfig | None = None,
    method: str = "wmle",
    truth=None,
    truth_radius_m: float | None = None,
    link: str = "log",
) -> DetectionResult:
    """Run the full control-chart detector on one amplitude image.

    Parameters
    ----------
    interest : 2-D array
        Amplitude image to screen (nonnegative pixels).
    covariates : sequence of 2-D arrays
        Reference images of the same shape; an intercept is always added.
    training_region : (row0, col0, row1, col1)
        Half-open window whose pixels train the regression.  Every
        training pixel of ``interest`` must be strictly positive.
    cfg, robust : configuration for the chart and the fit.
    method : 'wmle' (robust, default) or 'mle'.
    truth : optional sequence of (row, col) target positions; scored with
        ``truth_radius_m`` (defaults to the merge distance in meters).

    Returns a :class:`DetectionResult`; deterministic for fixed inputs.
    """
    cfg = cfg or DetectorConfig()
    robust = robust or RobustConfig()
    if method not in ("wmle", "mle"):
        raise ValueError("method must be 'wmle' or 'mle'")
    interest = _check_image(interest, "interest image")
    if interest.min(initial=0.0) < 0.0:
        raise ValueError("interest image must be nonnegative")
    covariates = [_check_image(c, f"covariate {i + 1}") for i, c in enumerate(covariates)]
    for i, cov in enumerate(covariates):
        if cov.shape != interest.shape:
            raise ValueError(
                f"covariate {i + 1} shape {cov.shape} does not match interest {interest.shape}"
            )
    region = _check_region(training_region, interest.shape)
    fit = _fit_training(interest, covariates, region, robust, method, link)

    raw = flag_out_of_control(
        interest, covariates, fit.beta_hat, cfg.control_limit, cfg.two_sided, link
    )
    n_flagged = int(np.count_nonzero(raw))
    mask = postprocess(raw, cfg)
    del raw
    clusters = extract_clusters(mask, cfg.merge_distance, cfg.pixel_size_m)

    hits = false_alarms = missed = None
    if truth is not None:
        radius = cfg.merge_distance * cfg.pixel_size_m if truth_radius_m is None else truth_radius_m
        hits, false_alarms, missed = score_detections(
            clusters, truth, radius, cfg.pixel_size_m
        )
    return DetectionResult(
        mask=mask,
        clusters=clusters,
        fit=fit,
        n_flagged=n_flagged,
        hits=hits,
        false_alarms=false_alarms,
        missed=missed,
    )
