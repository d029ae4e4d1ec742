"""Center detection: heatmap targets and peak decoding.

Heatmaps and feature grids live on a stride-4 grid; cell (row, col) covers
the 4x4 pixel block starting at (4*col, 4*row). Decoded peak positions are
reported at cell centers in full resolution, i.e. ((col + 0.5) * 4,
(row + 0.5) * 4). The initial contours around those positions are composed
by :func:`pipeline.initial_contours`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

STRIDE = 4


@dataclass(frozen=True)
class CenterDetection:
    position: np.ndarray  # (2,) full-resolution pixels
    score: float


def grid_shape(image_dims) -> tuple[int, int]:
    """(rows, cols) of the stride-4 grid for an image of (width, height)."""
    width, height = image_dims
    return int(np.ceil(height / STRIDE)), int(np.ceil(width / STRIDE))


def build_heatmap_target(centers, bbox_sizes, image_dims) -> np.ndarray:
    """Gaussian keypoint target on the stride-4 grid.

    Each center contributes a bump with value exactly 1 at the cell that
    contains it and sigma = max(1, min(w, h) / 24) grid cells; overlapping
    bumps combine by per-pixel maximum.
    """
    width, height = image_dims
    rows, cols = grid_shape(image_dims)
    heat = np.zeros((rows, cols))
    vv, uu = np.mgrid[0:rows, 0:cols]
    for center, (w, h) in zip(np.atleast_2d(np.asarray(centers, dtype=float)), bbox_sizes):
        x, y = center
        if not (0 <= x < width and 0 <= y < height):
            raise ValueError(f"center {center} outside the image")
        u0, v0 = int(x // STRIDE), int(y // STRIDE)
        sigma = max(1.0, min(w, h) / (6.0 * STRIDE))
        bump = np.exp(-((uu - u0) ** 2 + (vv - v0) ** 2) / (2.0 * sigma**2))
        np.maximum(heat, bump, out=heat)
    return heat


def decode_peaks(heatmap, threshold: float, top_k: int) -> list[CenterDetection]:
    """Extract center detections from a heatmap.

    Cells equal to their 3x3 neighborhood maximum are peak candidates (ties
    kept); the top_k highest survive, then values must exceed ``threshold``.
    The result is sorted by descending score with row-major order on ties.
    """
    heat = np.asarray(heatmap, dtype=float)
    neighborhood = ndimage.maximum_filter(heat, size=3, mode="constant", cval=-np.inf)
    peaks = np.nonzero(heat >= neighborhood)
    values = heat[peaks]
    flat = peaks[0] * heat.shape[1] + peaks[1]
    order = np.lexsort((flat, -values))[:top_k]
    order = order[values[order] > threshold]
    out = []
    for idx in order.tolist():
        row, col = int(peaks[0][idx]), int(peaks[1][idx])
        position = np.array([(col + 0.5) * STRIDE, (row + 0.5) * STRIDE])
        out.append(CenterDetection(position, float(values[idx])))
    return out

