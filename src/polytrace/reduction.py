"""Contour vertex reduction: confidence thresholding, vertex non-maximum
suppression and near-straight-angle pruning.

The stages only ever remove vertices; surviving vertices keep their
coordinates and their cyclic order. When a stage would leave fewer than
three survivors the top-3 scored vertices are restored instead, since the
final output must be a polygon.

Cost model for an n-vertex ring: vertex NMS builds one n x n distance
matrix and its greedy walk reads one row per keeper; angle pruning computes
every interior angle in one stacked :func:`vertex_angle` call, then the two
neighbor angles of each removal as scalars, with the same bits. A
three-vertex ring computes no angles.
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
        if np.any(sc < 0) or np.any(sc > 1):
            raise ValueError("scores must lie in [0, 1]")

    def __len__(self):
        return self.points.shape[0]

    def take(self, indices) -> "ScoredContour":
        idx = np.asarray(indices, dtype=int)
        return ScoredContour(self.points[idx], self.scores[idx])


def threshold_vertices(sc: ScoredContour, t: float) -> ScoredContour:
    """Keep vertices scoring at least t, in their original cyclic order."""
    return sc.take(np.nonzero(sc.scores >= t)[0])


def mean_segment_length(points) -> float:
    """Mean edge length of the closed ring."""
    pts = np.asarray(points, dtype=float)
    return float(np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1).mean())


def vertex_nms(sc: ScoredContour, radius: float) -> ScoredContour:
    """Greedy suppression: highest score first (ties by lower index), each
    keeper removes every not-yet-kept vertex strictly nearer than radius."""
    if radius < 0:
        raise ValueError("suppression radius must be non-negative")
    n = len(sc)
    # far[i, j]: vertex j survives keeper i
    far = pairwise_distances(sc.points, sc.points) >= radius
    alive = np.ones(n, dtype=bool)
    keep = np.zeros(n, dtype=bool)
    for idx in np.lexsort((np.arange(n), -sc.scores)).tolist():
        if alive[idx]:
            keep[idx] = True
            alive &= far[idx]
    return sc.take(np.nonzero(keep)[0])


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
    # ring neighbors by input index; a removed vertex reads -inf so that
    # argmax over input order is argmax over the surviving ring
    prev = np.roll(np.arange(n), 1)
    nxt = np.roll(np.arange(n), -1)
    angles = vertex_angle(pts[prev], pts, pts[nxt])
    for _ in range(n - 3):
        worst = int(np.argmax(angles))
        if angles[worst] <= ANGLE_THRESHOLD:
            break
        angles[worst] = -np.inf
        p, q = prev[worst], nxt[worst]
        nxt[p], prev[q] = q, p
        angles[p] = _angle_or_pi(pts, prev[p], p, q)
        angles[q] = _angle_or_pi(pts, p, q, nxt[q])
    return pts[np.isfinite(angles)]


def _angle_or_pi(pts, prev, cur, nxt) -> float:
    """:func:`vertex_angle` at one ring position, bit for bit, pi where a
    neighbor coincides or the cosine is NaN after an overflow, without the
    cost of a stacked call: ``np.dot`` of two 2-vectors rounds as the Gram
    matmul of :func:`vertex_angle` does, and ``np.arccos`` as its stacked
    call. A plain ``ax * bx + ay * by`` or ``math.acos`` would differ in the
    last bit for some triples."""
    a = pts[prev] - pts[cur]
    b = pts[nxt] - pts[cur]
    na, nb = math.sqrt(np.dot(a, a)), math.sqrt(np.dot(b, b))
    if na < _EPS or nb < _EPS:
        return np.pi
    angle = float(np.arccos(min(max(np.dot(a, b) / (na * nb), -1.0), 1.0)))
    return np.pi if math.isnan(angle) else angle


def reduce(sc: ScoredContour, t: float) -> np.ndarray:
    """Full reduction pipeline: threshold, vertex NMS, angle pruning.

    The NMS radius is half the mean segment length of the input contour,
    frozen before any vertex is removed. Returns the corner polygon as an
    (M, 2) array with at least three vertices.
    """
    if len(sc) < 3:
        raise ValueError("contour needs at least 3 scored vertices")
    radius = mean_segment_length(sc.points) / 2.0
    kept = threshold_vertices(sc, t)
    if len(kept) < 3:
        kept = _top3(sc)
    kept = vertex_nms(kept, radius)
    if len(kept) < 3:
        kept = vertex_nms(_top3(sc), 0.0)
    return prune_collinear(kept.points)


def _top3(sc: ScoredContour) -> ScoredContour:
    order = np.lexsort((np.arange(len(sc)), -sc.scores))[:3]
    return sc.take(np.sort(order))
