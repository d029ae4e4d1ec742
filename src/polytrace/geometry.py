"""Polygon primitives and raster support for contour extraction.

Coordinates are image pixels, x to the right and y growing downward.
Polygons are (M, 2) float arrays of ring-ordered vertices with an implicit
closing edge. Under the y-down convention a ring traversed clockwise on
screen has positive signed area; ``normalize_orientation`` makes that the
canonical order.

A ``DensifiedContour`` is a fixed-size resampling of a polygon: four
control vertices sit at the ring positions, an edge and a parameter along
it, where the rays from the bounding-box center in the top/right/bottom/left
directions meet the boundary, and each of the four arcs between them is
resampled to the same number of points. Index 0 is always the
top-direction control vertex and the ring runs clockwise, so the control
vertices of an N-point ring are points 0, N/4, N/2 and 3N/4.

Cost model for one :func:`densify` of an M-vertex polygon to N points: one
validation and one orientation pass over the ring; one (4, M) pass that
solves all four rays against every edge, plus a Python loop over only the
endpoints of edges collinear with a ray; one (4, M) pass that projects the
four hits onto every edge; one gather, one ``diff`` and one row-wise
``cumsum`` of the four arcs, padded to the longest; then per arc one length
sum and two ``np.interp`` calls of N/4 points. That is about a hundred
numpy calls whatever M and N, so at the benchmark's sizes their fixed cost
dominates, not the vertex count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Control-vertex ray directions in the clockwise order the densified ring
# follows: top, right, bottom, left.
ANCHOR_DIRECTIONS = np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])

_EPS = 1e-9


def as_polygon(vertices, strict: bool = False) -> np.ndarray:
    """Coerce ``vertices`` to an (M, 2) float64 array and validate it.

    With ``strict`` the ring must also be free of consecutive duplicate
    vertices (the implicit closing edge included).
    """
    poly = np.asarray(vertices, dtype=float)
    if poly.ndim != 2 or poly.shape[1] != 2:
        raise ValueError(f"polygon must have shape (M, 2), got {poly.shape}")
    if poly.shape[0] < 3:
        raise ValueError(f"polygon needs at least 3 vertices, got {poly.shape[0]}")
    if not np.all(np.isfinite(poly)):
        raise ValueError("polygon has non-finite coordinates")
    if strict:
        gaps = np.linalg.norm(_next(poly) - poly, axis=1)
        if np.any(gaps < _EPS):
            raise ValueError("polygon has consecutive duplicate vertices")
    return poly


def _next(p: np.ndarray) -> np.ndarray:
    """``np.roll(p, -1, axis=0)``, each vertex's successor, with less overhead."""
    return np.concatenate((p[1:], p[:1]))


def bounding_box(points) -> np.ndarray:
    """Return [xmin, ymin, xmax, ymax] of a point set."""
    pts = np.asarray(points, dtype=float)
    return np.array([pts[:, 0].min(), pts[:, 1].min(), pts[:, 0].max(), pts[:, 1].max()])


def bbox_center(points) -> np.ndarray:
    box = bounding_box(points)
    return np.array([(box[0] + box[2]) / 2.0, (box[1] + box[3]) / 2.0])


def _shoelace(p: np.ndarray) -> float:
    """Signed area of an (n, 2) ring: positive for clockwise traversal on
    screen (y down), negative for counterclockwise."""
    (x, y), (xn, yn) = p.T, _next(p).T
    return float(np.sum(x * yn - xn * y) / 2.0)


def normalize_orientation(poly) -> np.ndarray:
    """Return the ring reordered clockwise (positive signed area).

    Raises ValueError for zero-area input.
    """
    return _clockwise(as_polygon(poly))


def _clockwise(p: np.ndarray) -> np.ndarray:
    area = _shoelace(p)
    if abs(area) < _EPS:
        raise ValueError("cannot orient a zero-area polygon")
    if area < 0:
        return p[::-1].copy()
    return p.copy()


def pairwise_distances(a, b) -> np.ndarray:
    """(M, P) Euclidean distances between (M, 2) and (P, 2) points, equal bit
    for bit to ``np.linalg.norm(a[:, None] - b[None], axis=2)`` without its
    (M, P, 2) temporary."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    dx = a[:, None, 0] - b[None, :, 0]
    dy = a[:, None, 1] - b[None, :, 1]
    dist = dx * dx
    dist += dy * dy
    return np.sqrt(dist, out=dist)


def vertex_angle(prev, cur, nxt) -> np.ndarray:
    """Interior angles at ``cur`` in [0, pi]; pi means collinear.

    ``prev`` and ``nxt`` are (..., 2) arrays of one shape, against which
    ``cur`` broadcasts; the result has their shape without the last axis, a
    0-d array for one triple. An angle is pi, flat, where a neighbour
    coincides with ``cur`` or the cosine is NaN. The norms and the dot
    product come from one stacked 2x2 Gram matmul, which gives the same bits
    as ``np.linalg.norm`` and ``np.dot`` of one triple.
    """
    cur = np.asarray(cur, dtype=float)
    d = np.stack([np.asarray(prev, dtype=float) - cur, np.asarray(nxt, dtype=float) - cur], axis=-2)
    gram = d @ d.swapaxes(-1, -2)
    na, nb = np.sqrt(gram[..., 0, 0]), np.sqrt(gram[..., 1, 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        angle = np.arccos(np.clip(gram[..., 0, 1] / (na * nb), -1.0, 1.0))
    return np.where((na < _EPS) | (nb < _EPS) | np.isnan(angle), np.pi, angle)


def _ray_hits(p, c, d, e) -> np.ndarray:
    """(K, 2) outermost hits of the K unit rays ``d`` from ``c`` on the ring
    ``p`` with edge vectors ``e``, all edges of all rays in one (K, M) pass;
    only the endpoints of edges collinear with a ray are visited in a loop.
    """
    r = p - c
    denom = d[:, :1] * e[:, 1] - d[:, 1:] * e[:, 0]
    cross = r[:, 0] * d[:, 1:] - r[:, 1] * d[:, :1]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (r[:, 0] * e[:, 1] - r[:, 1] * e[:, 0]) / denom
        u = cross / denom
    par = np.abs(denom) <= _EPS
    ok = ~par & (u >= -_EPS) & (u <= 1.0 + _EPS) & (t >= -_EPS)
    best = np.where(ok, t, -np.inf).max(axis=1)
    # edges collinear with a ray contribute their endpoints
    m = p.shape[0]
    for k, i in zip(*np.nonzero(par & (np.abs(cross) <= 1e-7))):
        for q in (p[i], p[(i + 1) % m]):
            tq = float(np.dot(q - c, d[k]))
            if tq >= -_EPS and tq > best[k]:
                best[k] = tq
    if not np.all(np.isfinite(best)):
        raise ValueError("ray does not intersect the polygon boundary")
    return c + np.maximum(best, 0.0)[:, None] * d


@dataclass(frozen=True)
class DensifiedContour:
    """Fixed-size clockwise vertex ring with directional anchors.

    ``points`` is (N, 2) with N divisible by 4; the top/right/bottom/left
    control vertices are points 0, N/4, N/2 and 3N/4.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("contour points must have shape (N, 2)")
        if not np.all(np.isfinite(pts)):
            raise ValueError("contour has non-finite coordinates")
        if pts.shape[0] % 4 != 0:
            raise ValueError(f"vertex count {pts.shape[0]} not divisible by 4")


def densify(poly, n_vertices: int) -> DensifiedContour:
    """Resample a polygon to ``n_vertices`` points anchored at the four
    directional control vertices.

    A control vertex sits at ring position ``(idx, u)``, ``u`` in [0, 1)
    along the edge from vertex ``idx``; one within 1e-9 of an edge end is
    that end vertex, ``u`` = 0. Each arc, from a control vertex through the
    ring vertices after it to the next one, is resampled uniformly by arc
    length to n_vertices/4 points; point 0 is the top control vertex and the
    ring is clockwise. Raises ValueError where a ray misses the boundary,
    the positions do not run clockwise from the top one, or an arc has zero
    length. Known rejection: a polygon whose bbox center lies on its
    boundary is rejected wherever two rays stop at the center, since their
    control vertices meet there; every axis-aligned right triangle is.

    The four arcs are cut as one padded (4, L) chain, but each keeps its
    own length sum and its own ``np.interp`` calls: a pairwise sum rounds by
    the length of what it sums, so a padded or concatenated one could
    change bits.
    """
    if n_vertices < 4 or n_vertices % 4 != 0:
        raise ValueError(f"vertex count {n_vertices} must be a multiple of 4")
    p = _clockwise(as_polygon(poly, strict=True))
    m = p.shape[0]
    e = _next(p) - p
    q = _ray_hits(p, bbox_center(p), ANCHOR_DIRECTIONS, e)
    lens2 = np.maximum(np.einsum("ij,ij->i", e, e), _EPS**2)
    u = np.clip(np.einsum("kij,ij->ki", q[:, None] - p, e) / lens2, 0.0, 1.0)
    proj = p + u[..., None] * e
    idx = np.argmin(np.linalg.norm(proj - q[:, None], axis=2), axis=1)
    u = u[np.arange(4), idx]
    end = u >= 1.0 - _EPS
    idx, u = np.where(end, (idx + 1) % m, idx), np.where(end, 0.0, u)
    start = u <= _EPS
    u = np.where(start, 0.0, u)
    q = np.where(start[:, None], p[idx], q)
    # positions ordered with ties broken by direction run clockwise from the
    # top one iff they descend exactly once around the cycle
    keys = list(zip(idx.tolist(), u.tolist(), range(4)))
    wraps = np.array([keys[(k + 1) % 4] < keys[k] for k in range(4)])
    if wraps.sum() != 1:
        raise ValueError("control vertices out of cyclic order")
    # arc k: control vertex k, the ring vertices from idx[k] + 1 up to the
    # edge of control vertex k + 1 (that vertex itself where u = 0), then
    # control vertex k + 1, repeated as padding; p and q share one table
    nxt = np.array([1, 2, 3, 0])
    inner = np.maximum(idx[nxt] + (u[nxt] > 0) + m * wraps - idx - 1, 0)
    pos = np.arange(1, inner.max() + 2)
    table = np.vstack([p, q])
    rows = np.where(pos <= inner[:, None], (idx[:, None] + pos) % m, m + nxt[:, None])
    chain = table[np.column_stack([m + np.arange(4), rows])]
    seg = np.linalg.norm(np.diff(chain, axis=1), axis=2)
    cum = np.concatenate([np.zeros((4, 1)), np.cumsum(seg, axis=1)], axis=1)
    count = n_vertices // 4
    out = np.empty((4, count, 2))
    for k in range(4):
        n = inner[k] + 1  # segments of arc k
        total = float(seg[k, :n].sum())
        if total < _EPS:
            raise ValueError("degenerate zero-length arc between control vertices")
        targets = np.arange(count) * (total / count)
        out[k, :, 0] = np.interp(targets, cum[k, : n + 1], chain[k, : n + 1, 0])
        out[k, :, 1] = np.interp(targets, cum[k, : n + 1], chain[k, : n + 1, 1])
    return DensifiedContour(out.reshape(-1, 2))


def densify_x10(points) -> np.ndarray:
    """Subdivide every segment of an (..., N, 2) ring into 10 equal parts
    (original vertices kept); the result is (..., 10N, 2)."""
    pts = np.asarray(points, dtype=float)
    nxt = np.roll(pts, -1, axis=-2)
    f = np.arange(10)[:, None] / 10.0
    dense = pts[..., None, :] * (1.0 - f) + nxt[..., None, :] * f
    return dense.reshape(*pts.shape[:-2], -1, 2)


def rasterize(rings, width: int, height: int, pad: int = 0):
    """Rasterize K rings into one stack of frame windows:
    ``(crops, origins)``, a (K, h, w) boolean stack and the (K, 2) frame
    (row, column) of each crop's top-left pixel.

    Pixel (i, j) of the (height, width) frame is set iff its centre
    (j+0.5, i+0.5) is inside the ring by the even-odd rule. Crop k is
    ``frame[r:r + h, c:c + w]`` for ``(r, c) = origins[k]``: every crop
    pixel is a frame pixel, and no pixel of ring k outside its crop is set.
    All crops share one shape, the largest pixel extent of a ring grown by
    ``pad`` on each side and cut to the frame. A crop reaches at least
    ``pad`` pixels beyond its ring's pixels wherever the frame allows, so a
    dilation by up to ``pad`` inside a crop equals one inside the frame.

    One pass over every (edge, crop row) crossing of every ring, with no
    loop over rings or edges. The edge from y1 to y2 crosses the rows whose
    centre lies in [min(y1, y2), max(y1, y2)): rows ``ceil(y - 0.5)`` on,
    clipped to the crop, so a horizontal edge crosses none. A crossing lies
    at ``x1 + (ys - y1) * (x2 - x1) / (y2 - y1)`` and flips every pixel
    whose centre is left of it. A closed ring crosses each row an even
    number of times, so flipping the pixels from the crossing rightward,
    from column ``ceil(x - 0.5)`` clipped to the crop, gives the same mask:
    each crossing's column is counted in a histogram of every crop row, and
    a running parity along the rows fills them: a log-step XOR scan, about
    log2(w) passes over the stack. Both ``ceil`` forms equal a
    ``searchsorted`` on the pixel centres once clipped to the frame. The
    temporaries are O(crossings) plus about 11 bytes per stack pixel, so a
    caller bounds the memory by the rings it passes at once.
    """
    if width <= 0 or height <= 0:
        raise ValueError("raster dimensions must be positive")
    polys = [np.asarray(r, dtype=float) for r in rings]
    for p in polys:
        if p.ndim != 2 or p.shape[1] != 2 or p.shape[0] < 3:
            raise ValueError(f"polygon must have shape (M, 2) with M >= 3, got {p.shape}")
    if not polys:
        return np.zeros((0, 0, 0), dtype=bool), np.zeros((0, 2), dtype=np.int64)
    pts = np.concatenate(polys)
    if not np.all(np.isfinite(pts)):
        raise ValueError("polygon has non-finite coordinates")
    sizes = np.array([p.shape[0] for p in polys])
    starts = np.cumsum(sizes) - sizes
    # the pixels a ring can set: rows whose centre lies in [ymin, ymax), and
    # a column more each side than those in [xmin, xmax), where a crossing
    # rounded past a vertex can reach
    frame, margin = np.array([width, height]), np.array([pad + 1, pad])
    lo, hi = np.ceil(np.stack([np.minimum.reduceat(pts, starts), np.maximum.reduceat(pts, starts)]) - 0.5)
    w, h = np.minimum((hi - lo).max(axis=0) + 2 * margin, frame).astype(np.int64).tolist()
    c0, r0 = np.minimum(np.maximum(lo - margin, 0), frame - (w, h)).astype(np.int64).T

    ring = np.repeat(np.arange(len(polys)), sizes)
    succ = np.arange(1, pts.shape[0] + 1)
    succ[starts + sizes - 1] = starts
    (x1, y1), (x2, y2) = pts.T, pts[succ].T
    first, last = _clip_ceil(np.sort([y1, y2], axis=0), r0[ring], h)
    counts = last - first
    edge = np.repeat(np.arange(x1.size), counts)
    row = np.arange(edge.size) + np.repeat(first - (np.cumsum(counts) - counts), counts)
    xint = x1[edge] + (row + 0.5 - y1[edge]) * (x2 - x1)[edge] / (y2 - y1)[edge]
    k, n = ring[edge], len(polys)
    col = _clip_ceil(xint, c0[k], w) - c0[k]
    # the histogram is laid out (column, ring, row); the running parity along
    # the columns is a log-step XOR scan, each step one pass over the stack
    flips = np.bincount((col * n + k) * h + row - r0[k], minlength=(w + 1) * n * h)
    parity = flips.reshape(w + 1, n, h)[:-1].astype(np.uint8)
    step = 1
    while step < w:
        parity[step:] ^= parity[:-step]
        step *= 2
    parity &= 1
    return np.ascontiguousarray(parity.view(bool).transpose(1, 2, 0)), np.column_stack([r0, c0])


def _clip_ceil(v, start, size) -> np.ndarray:
    """``ceil(v - 0.5)``, the first pixel whose centre is at or past v,
    clipped to [start, start + size]."""
    return np.minimum(np.maximum(np.ceil(v - 0.5), start), start + size).astype(np.int64)


def expand_mask(mask: np.ndarray, radius: int) -> np.ndarray:
    """Morphological dilation by a (2r+1) square, i.e. Chebyshev radius r,
    of the last two axes, with everything outside them read as background;
    a (K, h, w) stack dilates each of its K masks.

    The square is separable: 2r+1 row shifts ORed on a zero-padded copy,
    then 2r+1 column shifts of that, about 4r+2 passes over the mask.
    """
    if radius < 0 or int(radius) != radius:
        raise ValueError("dilation radius must be a non-negative integer")
    m = np.asarray(mask, dtype=bool)
    r = int(radius)
    *lead, h, w = m.shape
    padded = np.zeros((*lead, h + 2 * r, w), dtype=bool)
    padded[..., r : r + h, :] = m
    rows = padded[..., :h, :].copy()
    for k in range(1, 2 * r + 1):
        rows |= padded[..., k : k + h, :]
    padded = np.zeros((*lead, h, w + 2 * r), dtype=bool)
    padded[..., r : r + w] = rows
    out = padded[..., :w].copy()
    for k in range(1, 2 * r + 1):
        out |= padded[..., k : k + w]
    return out
