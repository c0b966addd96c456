"""Straightforward detection stages, used as references for the fast ones.

Each function here is the plain form of a stage in ``rayreg.detection`` or
``rayreg.image_io``: the Python-level mask CSV writer, the ``np.where``
PGM writer, the all-pairs
union-find cluster merge, thresholding through the full-image design
and the residual field, and detection scoring over a double loop of
candidate pairs.  numpy and scipy only, so the production code is
compared against arithmetic written out independently of it.
"""

import math

import numpy as np
from scipy import ndimage
from scipy.special import ndtri

#: Same value as ``rayreg.inference.RESIDUAL_CLAMP_EPS``.
CLAMP_EPS = 1e-15


def write_mask_csv(mask, path):
    mask = np.asarray(mask).astype(int)
    with open(path, "w", encoding="ascii") as fh:
        for row in mask:
            fh.write(",".join(str(int(v)) for v in row))
            fh.write("\n")


def write_mask_pgm(mask, path):
    mask = np.asarray(mask)
    payload = np.where(mask.astype(bool), np.uint8(255), np.uint8(0))
    with open(path, "wb") as fh:
        fh.write(f"P5\n{mask.shape[1]} {mask.shape[0]}\n255\n".encode("ascii"))
        fh.write(payload.tobytes())


def extract_clusters(mask, merge_distance=0.0, pixel_size_m=1.0):
    """Clusters as ``(centroid_row, centroid_col, n_pixels, n_components)``."""
    mask = np.asarray(mask).astype(bool)
    labels, n_comp = ndimage.label(mask, structure=np.ones((3, 3), dtype=bool))
    if n_comp == 0:
        return ()
    idx = np.arange(1, n_comp + 1)
    sizes = ndimage.sum_labels(mask, labels, idx)
    centroids = np.asarray(ndimage.center_of_mass(mask, labels, idx), dtype=np.float64)

    parent = list(range(n_comp))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    limit_m = merge_distance * pixel_size_m
    for i in range(n_comp):
        for j in range(i + 1, n_comp):
            d = np.hypot(*(centroids[i] - centroids[j])) * pixel_size_m
            if d <= limit_m:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri

    groups = {}
    for i in range(n_comp):
        groups.setdefault(find(i), []).append(i)
    clusters = []
    for members in groups.values():
        w = sizes[members]
        c = centroids[members]
        total = float(np.sum(w))
        clusters.append(
            (
                float(np.sum(w * c[:, 0]) / total),
                float(np.sum(w * c[:, 1]) / total),
                int(total),
                len(members),
            )
        )
    clusters.sort(key=lambda cl: (cl[0], cl[1]))
    return tuple(clusters)


def residuals_from_mean(y, mu):
    """``ndtri(F(y; mu))`` with F clamped to [eps, 1 - eps]."""
    z = np.asarray(y, dtype=np.float64) / mu
    prob = -np.expm1(-(math.pi / 4.0) * z * z)
    return ndtri(np.clip(prob, CLAMP_EPS, 1.0 - CLAMP_EPS))


def flag_out_of_control(interest, covariates, beta, limit, two_sided=True, link="log"):
    interest = np.asarray(interest, dtype=np.float64)
    X_full = np.column_stack([np.ones(interest.size)] + [np.ravel(c) for c in covariates])
    eta = X_full @ np.asarray(beta, dtype=np.float64)
    mu = np.exp(eta) if link == "log" else eta
    if np.any(mu <= 0.0) or not np.all(np.isfinite(mu)):
        raise ValueError("fitted mean field is not strictly positive over the image")
    res = residuals_from_mean(interest.ravel(), mu).reshape(interest.shape)
    return np.abs(res) > limit if two_sided else res > limit


def score_detections(clusters, truth, radius_m, pixel_size_m=1.0):
    """``(hits, false_alarms, missed)`` of the greedy nearest-first matching."""
    truth = [(float(r), float(c)) for r, c in truth]
    pairs = []
    for ci, cl in enumerate(clusters):
        for ti, (tr, tc) in enumerate(truth):
            d = np.hypot(cl.centroid_row - tr, cl.centroid_col - tc) * pixel_size_m
            if d <= radius_m:
                pairs.append((d, ci, ti))
    pairs.sort()
    used_c = set()
    used_t = set()
    hits = 0
    for _, ci, ti in pairs:
        if ci in used_c or ti in used_t:
            continue
        used_c.add(ci)
        used_t.add(ti)
        hits += 1
    return hits, len(clusters) - hits, len(truth) - hits
