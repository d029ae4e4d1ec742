"""Optimal bipartite matching between ground-truth corners and predicted
vertices, plus the nearest-point queries used by the matching losses.

Cost matrices are (M, N) with M ground-truth corners in rows and N predicted
vertices in columns, M <= N. :func:`hungarian` returns the matched columns
as an (M,) int array: row i is matched to column ``matched[i]``, and the
columns are distinct. All tie-breaking is by lowest index so results are
reproducible.
"""

from __future__ import annotations

import numpy as np

from .geometry import pairwise_distances

# weight of the normalized distance against the valid-class probability
MATCH_DISTANCE_WEIGHT = 5.0


def match_cost(gt_corners, pred_points, valid_probs, *, diagonal: float) -> np.ndarray:
    """Pairwise matching cost between corners and predicted vertices.

    Entry (i, j) is ``-c_j + MATCH_DISTANCE_WEIGHT * d(i, j)`` where c_j is
    the valid-class probability of vertex j and d is the Euclidean distance
    in pixels divided by ``diagonal`` (the image diagonal), so both terms
    live on comparable scales.
    """
    corners = np.asarray(gt_corners, dtype=float)
    preds = np.asarray(pred_points, dtype=float)
    probs = np.asarray(valid_probs, dtype=float)
    if probs.ndim != 1 or probs.shape[0] != preds.shape[0]:
        raise ValueError("one probability per predicted vertex required")
    if np.any(probs < 0) or np.any(probs > 1):
        raise ValueError("probabilities must lie in [0, 1]")
    if corners.shape[0] > preds.shape[0]:
        raise ValueError("more corners than predicted vertices")
    if diagonal <= 0:
        raise ValueError("diagonal must be positive")
    return -probs[None, :] + MATCH_DISTANCE_WEIGHT * pairwise_distances(corners, preds) / diagonal


def hungarian(cost) -> np.ndarray:
    """Minimum-cost injective assignment of every row to a distinct column;
    returns the (M,) int array of each row's column.

    Exact O(n^3) shortest-augmenting-path algorithm with dual potentials.
    Requires a finite (M, N) matrix with M <= N.
    """
    a = np.asarray(cost, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("cost matrix must be a non-empty 2-D array")
    m, n = a.shape
    if m > n:
        raise ValueError(f"cost matrix needs rows <= columns, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("cost matrix entries must be finite")

    INF = np.inf
    u = np.zeros(m + 1)
    v = np.zeros(n + 1)
    col_row = np.zeros(n + 1, dtype=int)  # row matched to column j (0 = free)
    for i in range(1, m + 1):
        col_row[0] = i
        j0 = 0
        minv = np.full(n + 1, INF)
        way = np.zeros(n + 1, dtype=int)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = col_row[j0]
            free = ~used[1:]
            cur = a[i0 - 1, :] - u[i0] - v[1:]
            improve = free & (cur < minv[1:])
            minv[1:][improve] = cur[improve]
            way[1:][improve] = j0
            # lowest index among the free columns attaining the minimum
            masked = np.where(free, minv[1:], INF)
            j1 = int(np.argmin(masked)) + 1
            delta = masked[j1 - 1]
            u[col_row[used]] += delta
            v[used] -= delta
            minv[1:][free] -= delta
            j0 = j1
            if col_row[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            col_row[j0] = col_row[j1]
            j0 = j1
    matched = np.zeros(m, dtype=int)
    for j in range(1, n + 1):
        if col_row[j] != 0:
            matched[col_row[j] - 1] = j - 1
    return matched


def nearest_point_indices(query_points, points) -> np.ndarray:
    """Index of the closest point (Euclidean, lowest index on ties) for
    every query point."""
    q = np.asarray(query_points, dtype=float)
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise ValueError("nearest-point query against an empty list")
    return np.argmin(pairwise_distances(q, pts), axis=1)
