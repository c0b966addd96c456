"""Brute-force set-definition binary morphology, used as an independent
oracle against the production implementation.  Out-of-bounds neighborhoods
count as background."""

import numpy as np


def brute_erode(mask, size):
    mask = np.asarray(mask, dtype=bool)
    r = size // 2
    rows, cols = mask.shape
    out = np.zeros_like(mask)
    for i in range(rows):
        for j in range(cols):
            ok = True
            for di in range(-r, r + 1):
                for dj in range(-r, r + 1):
                    ii, jj = i + di, j + dj
                    if not (0 <= ii < rows and 0 <= jj < cols) or not mask[ii, jj]:
                        ok = False
                        break
                if not ok:
                    break
            out[i, j] = ok
    return out


def brute_dilate(mask, size):
    mask = np.asarray(mask, dtype=bool)
    r = size // 2
    rows, cols = mask.shape
    out = np.zeros_like(mask)
    for i in range(rows):
        for j in range(cols):
            hit = False
            for di in range(-r, r + 1):
                for dj in range(-r, r + 1):
                    ii, jj = i + di, j + dj
                    if 0 <= ii < rows and 0 <= jj < cols and mask[ii, jj]:
                        hit = True
                        break
                if hit:
                    break
            out[i, j] = hit
    return out


def brute_opening(mask, size):
    return brute_dilate(brute_erode(mask, size), size)
