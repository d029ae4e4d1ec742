import numpy as np
import pytest

from polytrace import reduction as red
from polytrace.geometry import densify, vertex_angle

SQUARE = np.array([[10.0, 10.0], [50.0, 10.0], [50.0, 50.0], [10.0, 50.0]])


def scored_square_ring(n=64, jitter=0.0, rng=None):
    """Densified square with oracle scores: 1 at the vertices nearest the
    true corners, 0 elsewhere. Corners are snapped onto the ring exactly."""
    dc = densify(SQUARE, n)
    pts = dc.points.copy()
    scores = np.zeros(n)
    for corner in SQUARE:
        idx = int(np.argmin(np.linalg.norm(pts - corner, axis=1)))
        pts[idx] = corner
        scores[idx] = 1.0
    if jitter and rng is not None:
        pts = pts + rng.uniform(-jitter, jitter, size=pts.shape)
    return red.ScoredContour(pts, scores)


class TestThreshold:
    def test_all_ones_unchanged(self):
        sc = red.ScoredContour(np.random.default_rng(0).uniform(0, 10, (5, 2)), np.ones(5))
        assert len(red.threshold_vertices(sc)) == 5

    def test_all_zero_empty(self):
        sc = red.ScoredContour(np.zeros((5, 2)), np.zeros(5))
        assert len(red.threshold_vertices(sc)) == 0

    def test_filter_keeps_order(self):
        sc = red.ScoredContour(np.array([[0, 0], [1, 0], [2, 0]]), np.array([0.7, 0.5, 0.9]))
        out = red.threshold_vertices(sc, 0.6)
        assert np.allclose(out.points, [[0, 0], [2, 0]])
        assert np.allclose(out.scores, [0.7, 0.9])


class TestVertexNms:
    def test_zero_radius_keeps_all(self, rng):
        sc = red.ScoredContour(rng.uniform(0, 10, (8, 2)), rng.uniform(0, 1, 8))
        assert len(red.vertex_nms(sc, 0.0)) == 8

    def test_coincident_pair_keeps_higher(self):
        sc = red.ScoredContour(np.array([[3.0, 3.0], [3.0, 3.0], [9.0, 9.0]]), np.array([0.8, 0.9, 0.5]))
        out = red.vertex_nms(sc, 1.0)
        assert len(out) == 2
        assert 0.9 in out.scores and 0.8 not in out.scores

    def test_matches_bruteforce_greedy_on_cluster(self):
        pts = np.array([[0, 0], [0.4, 0], [0.8, 0], [5, 5], [5.3, 5], [10, 0]], dtype=float)
        scores = np.array([0.5, 0.9, 0.6, 0.7, 0.8, 0.3])
        radius = 1.0
        # oracle: literal greedy simulation over index sets
        remaining = set(range(6))
        expected = []
        while remaining:
            best = min(remaining, key=lambda i: (-scores[i], i))
            expected.append(best)
            remaining = {
                i for i in remaining
                if i != best and np.linalg.norm(pts[i] - pts[best]) >= radius
            }
        out = red.vertex_nms(red.ScoredContour(pts, scores), radius)
        assert sorted(expected) == [int(np.flatnonzero((pts == p).all(1))[0]) for p in out.points]

    def test_survivors_in_cyclic_order(self, rng):
        pts = rng.uniform(0, 100, (20, 2))
        scores = rng.uniform(0, 1, 20)
        out = red.vertex_nms(red.ScoredContour(pts, scores), 5.0)
        idx = [int(np.flatnonzero((pts == p).all(1))[0]) for p in out.points]
        assert idx == sorted(idx)


class TestPruneCollinear:
    def test_square_untouched(self):
        assert np.array_equal(red.prune_collinear(SQUARE), SQUARE)

    def test_edge_midpoint_removed(self):
        with_mid = np.insert(SQUARE, 1, [[30.0, 10.0]], axis=0)
        assert np.array_equal(red.prune_collinear(with_mid), SQUARE)

    def test_regular_20gon_reaches_rule_fixed_point(self):
        theta = np.arange(20) * 2 * np.pi / 20
        poly = np.column_stack([50 + 30 * np.cos(theta), 50 + 30 * np.sin(theta)])
        out = red.prune_collinear(poly)
        # every pass removes the worst angle (all start at 162 deg > 160 deg);
        # the process stabilizes once every survivor subtends 160 deg or less
        assert out.shape[0] == 12
        n = out.shape[0]
        for i in range(n):
            assert vertex_angle(out[(i - 1) % n], out[i], out[(i + 1) % n]) <= red.ANGLE_THRESHOLD + 1e-9

    def test_never_removes_below_threshold(self, rng):
        for _ in range(20):
            k = int(rng.integers(4, 10))
            theta = np.sort(rng.uniform(0, 2 * np.pi, k))
            if np.min(np.diff(theta)) < 0.2:
                continue
            poly = np.column_stack([np.cos(theta), np.sin(theta)]) * 20 + 50
            n = poly.shape[0]
            angles = [vertex_angle(poly[(i - 1) % n], poly[i], poly[(i + 1) % n]) for i in range(n)]
            out = red.prune_collinear(poly)
            for i, a in enumerate(angles):
                if a <= red.ANGLE_THRESHOLD:
                    assert any(np.allclose(poly[i], q) for q in out)

    def test_triangle_floor(self):
        # near-circular ring collapses no further than three vertices
        theta = np.arange(30) * 2 * np.pi / 30
        poly = np.column_stack([np.cos(theta), np.sin(theta)]) * 40 + 50
        out = red.prune_collinear(poly, angle_threshold=0.1)
        assert out.shape[0] == 3


class TestReduce:
    def test_oracle_scored_square_recovers_corners(self):
        sc = scored_square_ring()
        out = red.reduce(sc, 0.6)
        assert out.shape[0] == 4
        for corner in SQUARE:
            assert np.min(np.linalg.norm(out - corner, axis=1)) < 1e-9

    def test_duplicate_corner_suppressed(self):
        sc = scored_square_ring()
        # duplicate the first corner vertex right next to it with high score
        idx = int(np.argmax(sc.scores))
        pts = np.insert(sc.points, idx + 1, sc.points[idx] + [0.01, 0.0], axis=0)
        scores = np.insert(sc.scores, idx + 1, 0.95)
        out = red.reduce(red.ScoredContour(pts, scores), 0.6)
        assert out.shape[0] == 4

    def test_all_below_threshold_falls_back_to_top3(self):
        pts = np.array([[0, 0], [10, 0], [10, 10], [0, 10], [5, 20]], dtype=float)
        scores = np.array([0.5, 0.4, 0.3, 0.2, 0.1])
        out = red.reduce(red.ScoredContour(pts, scores), 0.6)
        assert out.shape[0] == 3
        assert np.allclose(out, pts[:3])

    def test_output_subset_and_order_preserved(self, rng):
        for _ in range(20):
            n = 32
            dc = densify(SQUARE, n)
            pts = dc.points + rng.normal(scale=0.2, size=(n, 2))
            scores = rng.uniform(0, 1, n)
            out = red.reduce(red.ScoredContour(pts, scores), 0.5)
            idx = [int(np.flatnonzero((pts == p).all(1))[0]) for p in out]
            assert len(idx) == len(out)  # every output vertex is an input vertex
            assert idx == sorted(idx)

    def test_jittered_rectangles_with_oracle_scores(self, rng):
        for _ in range(30):
            sc = scored_square_ring(jitter=0.29, rng=rng)
            out = red.reduce(sc, 0.6)
            assert out.shape[0] == 4
            for corner in SQUARE:
                assert np.min(np.linalg.norm(out - corner, axis=1)) <= 0.5

    def test_too_few_vertices_rejected(self):
        with pytest.raises(ValueError):
            red.reduce(red.ScoredContour(np.zeros((2, 2)), np.zeros(2)))


def reference_angle(prev, cur, nxt):
    """The per-triple interior angle: ``np.linalg.norm`` and ``np.dot`` of
    one triple, pi where a neighbor coincides."""
    a = np.asarray(prev, dtype=float) - np.asarray(cur, dtype=float)
    b = np.asarray(nxt, dtype=float) - np.asarray(cur, dtype=float)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < 1e-9 or nb < 1e-9:
        return np.pi
    return float(np.arccos(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0)))


def reference_prune(poly, angle_threshold):
    """Angle pruning that recomputes every angle after every removal."""
    pts = np.asarray(poly, dtype=float).copy()
    while pts.shape[0] > 3:
        n = pts.shape[0]
        angles = np.array([reference_angle(pts[i - 1], pts[i], pts[(i + 1) % n]) for i in range(n)])
        worst = int(np.argmax(angles))
        if angles[worst] <= angle_threshold:
            break
        pts = np.delete(pts, worst, axis=0)
    return pts


def reference_nms(pts, scores, radius):
    """Literal greedy simulation over index sets; surviving indices, sorted."""
    remaining = set(range(len(pts)))
    kept = []
    while remaining:
        best = min(remaining, key=lambda i: (-scores[i], i))
        kept.append(best)
        remaining = {i for i in remaining if i != best and np.linalg.norm(pts[i] - pts[best]) >= radius}
    return sorted(kept)


def seeded_ring(rng, n):
    """A jittered circle with a near-collinear run, duplicated points and
    grid-snapped vertices, so ties, coincident neighbors and flat runs occur."""
    theta = np.sort(rng.uniform(0, 2 * np.pi, n))
    pts = np.column_stack([np.cos(theta), np.sin(theta)]) * rng.uniform(5, 40) + 50
    run = int(rng.integers(2, max(3, n // 2)))
    start = int(rng.integers(0, n))
    idx = (start + np.arange(run)) % n
    t = np.linspace(0.0, 1.0, run)[:, None]
    pts[idx] = pts[idx[0]] * (1 - t) + pts[idx[-1]] * t + rng.normal(0, 1e-3, (run, 2))
    dup = rng.integers(0, n, int(rng.integers(0, 3)))
    pts[dup] = pts[(dup + 1) % n]
    if rng.uniform() < 0.3:
        pts = np.round(pts)
    return pts


class TestVectorisedAgainstReference:
    def test_batched_angles_match_per_vertex(self, rng):
        coincident_seen = 0
        for _ in range(50):
            n = int(rng.integers(4, 65))
            pts = seeded_ring(rng, n)
            prev, nxt = np.roll(pts, 1, axis=0), np.roll(pts, -1, axis=0)
            expected = np.array([reference_angle(p, c, q) for p, c, q in zip(prev, pts, nxt)])
            ring = np.arange(n)
            got = red._angles_or_pi(pts, np.roll(ring, 1), ring, np.roll(ring, -1))
            assert np.array_equal(got, expected)
            # the stack reads NaN exactly where one triple raises
            stacked = vertex_angle(prev, pts, nxt)
            coincident = (prev == pts).all(axis=1) | (nxt == pts).all(axis=1)
            assert np.array_equal(np.isnan(stacked), coincident)
            for i in range(n):
                if coincident[i]:
                    with pytest.raises(ValueError):
                        vertex_angle(prev[i], pts[i], nxt[i])
                else:
                    assert vertex_angle(prev[i], pts[i], nxt[i]) == stacked[i] == expected[i]
            coincident_seen += int(coincident.sum())
        assert coincident_seen > 0

    def test_scalar_angle_matches_stacked_angles(self, rng):
        # random triples over six scales, integer-grid ones with repeated
        # points, and triples with a neighbour on the centre vertex
        triples = [rng.normal(size=(2000, 3, 2)) * scale + 50.0 for scale in (1e-3, 0.1, 1.0, 10.0, 1e3, 1e5)]
        triples.append(rng.integers(0, 4, size=(2000, 3, 2)).astype(float))
        coincident = rng.normal(size=(200, 3, 2))
        coincident[:100, 0] = coincident[:100, 1]
        coincident[100:, 2] = coincident[100:, 1]
        triples.append(coincident)
        pts = np.concatenate(triples).reshape(-1, 2)
        third = np.arange(0, pts.shape[0], 3)
        expected = red._angles_or_pi(pts, third, third + 1, third + 2)
        got = np.array([red._angle_or_pi(pts, i, i + 1, i + 2) for i in third.tolist()])
        assert np.array_equal(got, expected)
        assert np.count_nonzero(expected == np.pi) >= 200

    @pytest.mark.parametrize("threshold", [0.1, 2.0, red.ANGLE_THRESHOLD, 3.0, 3.14])
    def test_prune_matches_per_vertex_loop(self, rng, threshold):
        for _ in range(40):
            pts = seeded_ring(rng, int(rng.integers(4, 65)))
            assert np.array_equal(red.prune_collinear(pts, threshold), reference_prune(pts, threshold))

    def test_nms_matches_bruteforce_greedy(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 40))
            pts = rng.integers(0, 12, (n, 2)).astype(float)  # coincident points
            scores = rng.choice([0.2, 0.5, 0.5, 0.9], n)  # tied scores
            for radius in (0.0, 1.0, 2.5, float(rng.uniform(0, 6))):
                sc = red.ScoredContour(pts, scores)
                kept = reference_nms(pts, scores, radius)
                out = red.vertex_nms(sc, radius)
                assert np.array_equal(out.points, pts[kept])
                assert np.array_equal(out.scores, scores[kept])
