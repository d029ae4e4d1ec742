"""Contour vertex reduction: confidence thresholding, vertex non-maximum
suppression and near-straight-angle pruning.

The stages only ever remove vertices; surviving vertices keep their
coordinates and their cyclic order. When a stage would leave fewer than
three survivors the top-3 scored vertices are restored instead, since the
final output must be a polygon.

Cost model for an n-vertex ring: thresholding, vertex NMS and the top-3
fallback return index arrays into the ring, and :func:`reduce` gathers
points and scores by them, so no stage validates or builds a contour.
Vertex NMS builds one n x n distance matrix, and its greedy walk runs only
over the vertices that have another vertex closer than the radius, one row
per keeper; every other vertex survives any walk. Angle pruning computes
every interior angle in one stacked :func:`vertex_angle` call, then keeps
the ring links and angles in Python lists, and each removal updates its
two neighbors' angles with one 2x2 Gram matmul each, with the same bits as
the stacked call. A three-vertex ring computes no angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import _EPS, pairwise_distances, vertex_angle

ANGLE_THRESHOLD = 8.0 * np.pi / 9.0


@dataclass(frozen=True)
class ScoredContour:
    points: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        sc = np.asarray(self.scores, dtype=float)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "scores", sc)
        if pts.ndim != 2 or pts.shape[1] != 2 or sc.shape != (pts.shape[0],):
            raise ValueError("need (N, 2) points with one score per vertex")
        if not np.all(np.isfinite(pts)):
            raise ValueError("contour points must be finite")
        if not np.all((sc >= 0) & (sc <= 1)):
            raise ValueError("scores must lie in [0, 1]")

    def __len__(self):
        return self.points.shape[0]


def threshold_vertices(scores, t: float) -> np.ndarray:
    """Indices of the vertices scoring at least t, in their cyclic order."""
    return np.flatnonzero(scores >= t)


def mean_segment_length(points) -> float:
    """Mean edge length of the closed ring."""
    pts = np.asarray(points, dtype=float)
    d = np.diff(pts, axis=0, append=pts[:1])
    return float(np.sqrt((d * d).sum(axis=1)).mean())


def vertex_nms(points, scores, radius: float) -> np.ndarray:
    """Indices of the survivors, in order, of greedy suppression over (n, 2)
    points and their (n,) scores: highest score first (ties by lower
    index), each keeper removes every not-yet-kept vertex strictly nearer
    than radius.

    A vertex with no other vertex that near is kept by any walk, so the walk
    runs over the others only. A NaN distance counts as near."""
    if radius < 0:
        raise ValueError("suppression radius must be non-negative")
    # close[i, j]: keeper i suppresses vertex j
    close = ~(pairwise_distances(points, points) >= radius)
    np.fill_diagonal(close, False)
    crowded = np.flatnonzero(close.any(axis=1))
    keep = np.ones(len(close), dtype=bool)
    for idx in crowded[np.lexsort((crowded, -scores[crowded]))].tolist():
        if keep[idx]:
            keep[close[idx]] = False
    return np.flatnonzero(keep)


def prune_collinear(poly) -> np.ndarray:
    """Drop near-straight vertices one at a time.

    Each pass removes the single vertex with the largest interior angle above
    ``ANGLE_THRESHOLD`` (the first in ring order on ties), because removing a
    vertex changes its neighbors' angles. A vertex with a coincident neighbor
    counts as flat (pi). Stops when no angle exceeds the threshold or only
    three vertices remain.
    """
    pts = np.asarray(poly, dtype=float)
    n = pts.shape[0]
    if n < 3:
        raise ValueError("polygon needs at least 3 vertices")
    if n == 3:
        return pts.copy()
    ring = np.concatenate((pts[-1:], pts, pts[:1]))  # one neighbor wrapped on each side
    angles = vertex_angle(ring[:-2], pts, ring[2:]).tolist()
    # ring neighbors by input index; a removed vertex reads -inf so that the
    # first maximum in input order is the first maximum of the surviving ring
    prev = [n - 1, *range(n - 1)]
    nxt = [*range(1, n), 0]
    xs, ys = pts[:, 0].tolist(), pts[:, 1].tolist()
    for _ in range(n - 3):
        top = max(angles)
        if top <= ANGLE_THRESHOLD:
            break
        worst = angles.index(top)
        angles[worst] = -math.inf
        p, q = prev[worst], nxt[worst]
        nxt[p], prev[q] = q, p
        angles[p] = _angle(xs, ys, prev[p], p, q)
        angles[q] = _angle(xs, ys, p, q, nxt[q])
    return pts[np.isfinite(angles)]


def _angle(xs, ys, prev, cur, nxt) -> float:
    """:func:`vertex_angle` at one ring position of coordinate lists, bit
    for bit, pi where a neighbor coincides or the cosine is NaN after an
    overflow, without the cost of a stacked call: the 2x2 Gram matmul of the
    two difference vectors rounds as the stacked Gram of
    :func:`vertex_angle` does, and ``np.arccos`` as its stacked call. A
    plain ``ax * bx + ay * by`` or ``math.acos`` would differ in the last
    bit for some triples."""
    x, y = xs[cur], ys[cur]
    d = np.array(((xs[prev] - x, ys[prev] - y), (xs[nxt] - x, ys[nxt] - y)))
    (aa, ab), (_, bb) = (d @ d.T).tolist()
    na, nb = math.sqrt(aa), math.sqrt(bb)
    if na < _EPS or nb < _EPS:
        return math.pi
    angle = float(np.arccos(min(max(ab / (na * nb), -1.0), 1.0)))
    return math.pi if math.isnan(angle) else angle


def reduce(sc: ScoredContour, t: float) -> np.ndarray:
    """Full reduction pipeline: threshold, vertex NMS, angle pruning.

    The NMS radius is half the mean segment length of the input contour,
    frozen before any vertex is removed. Returns the corner polygon as an
    (M, 2) array with at least three vertices.
    """
    if len(sc) < 3:
        raise ValueError("contour needs at least 3 scored vertices")
    radius = mean_segment_length(sc.points) / 2.0
    kept = threshold_vertices(sc.scores, t)
    if len(kept) < 3:
        kept = _top3(sc.scores)
    kept = kept[vertex_nms(sc.points[kept], sc.scores[kept], radius)]
    if len(kept) < 3:
        kept = _top3(sc.scores)
    return prune_collinear(sc.points[kept])


def _top3(scores) -> np.ndarray:
    """Indices of the three highest scores (ties by lower index), in order."""
    return np.sort(np.lexsort((np.arange(len(scores)), -scores))[:3])
