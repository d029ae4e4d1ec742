"""Center detection: the stride-4 grid, heatmap targets and peak decoding.

Heatmaps and feature grids live on a stride-4 grid; cell (row, col) covers
the 4x4 pixel block starting at (4*col, 4*row). The grid's only rules are
:func:`grid_shape`, the block partition :func:`synth.feature_provider`
reads; :func:`center_cells` (point -> cell) and :func:`cell_centers` (cell
-> its center, ((col + 0.5) * 4, (row + 0.5) * 4)), the cells of the heads
and the heatmap target; and :func:`grid_coords`, the sampling map
:func:`evolution.sample_features` reads. :func:`decode_peaks` returns the
(K, 2) (row, col) cells of a heatmap's peaks, as
``skimage.feature.peak_local_max`` does; callers read their scores from the
heatmap and compose the initial contours at their cell centers
(:func:`pipeline.initial_contours`).
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

STRIDE = 4


def grid_shape(image_dims) -> tuple[int, int]:
    """(rows, cols) of the stride-4 grid for an image of (width, height)."""
    width, height = image_dims
    return int(np.ceil(height / STRIDE)), int(np.ceil(width / STRIDE))


def center_cells(centers) -> tuple:
    """(rows, cols) of the stride-4 cells containing (B, 2) full-resolution
    points: the cells at which the heatmap target peaks and the offset head
    composes the initial contours."""
    c = np.asarray(centers, dtype=float).reshape(-1, 2)
    return (c[:, 1] // STRIDE).astype(int), (c[:, 0] // STRIDE).astype(int)


def cell_centers(cells) -> np.ndarray:
    """(K, 2) full-resolution (x, y) centers of (K, 2) (row, col) cells."""
    return (np.asarray(cells).reshape(-1, 2)[:, ::-1] + 0.5) * STRIDE


def grid_coords(points) -> np.ndarray:
    """(..., 2) continuous (x, y) grid coordinates of (..., 2) full-resolution
    points: cell c's value sits at pixel 4c, half a cell off
    :func:`cell_centers`. :func:`center_cells`, the cell that contains a
    point, is a separate rule and must not follow this one."""
    return np.asarray(points, dtype=float) / STRIDE


def build_heatmap_target(centers, bbox_sizes, image_dims) -> np.ndarray:
    """Gaussian keypoint target on the stride-4 grid.

    Each center contributes a bump with value exactly 1 at its
    :func:`center_cells` cell and sigma = max(1, min(w, h) / 24) grid cells;
    overlapping bumps combine by per-pixel maximum.
    """
    width, height = image_dims
    rows, cols = grid_shape(image_dims)
    heat = np.zeros((rows, cols))
    vv, uu = np.mgrid[0:rows, 0:cols]
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    for center, v0, u0, (w, h) in zip(centers, *center_cells(centers), bbox_sizes):
        x, y = center
        if not (0 <= x < width and 0 <= y < height):
            raise ValueError(f"center {center} outside the image")
        sigma = max(1.0, min(w, h) / (6.0 * STRIDE))
        bump = np.exp(-((uu - u0) ** 2 + (vv - v0) ** 2) / (2.0 * sigma**2))
        np.maximum(heat, bump, out=heat)
    return heat


def decode_peaks(heatmap, threshold: float, top_k: int) -> np.ndarray:
    """(K, 2) int (row, col) cells of a heatmap's peaks.

    Cells equal to their 3x3 neighborhood maximum are peak candidates (ties
    kept); the top_k highest survive, then values must exceed ``threshold``.
    The cells are sorted by descending value with row-major order on ties.
    """
    heat = np.asarray(heatmap, dtype=float)
    neighborhood = ndimage.maximum_filter(heat, size=3, mode="constant", cval=-np.inf)
    peaks = np.argwhere(heat >= neighborhood)  # row-major: the stable sort keeps ties in this order
    values = heat[peaks[:, 0], peaks[:, 1]]
    order = np.argsort(-values, kind="stable")[:top_k]
    return peaks[order[values[order] > threshold]]
