import numpy as np
import pytest
from conftest import reference_prune_collinear, reference_reduce, reference_vertex_nms

from polytrace import reduction as red
from polytrace import synth
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


class TestScoredContour:
    def test_infinite_vertex_rejected(self):
        pts = densify(SQUARE, 16).points
        pts[5] = np.inf
        with pytest.raises(ValueError, match="finite"):
            red.ScoredContour(pts, np.full(16, 0.9))

    def test_nan_vertex_rejected(self):
        pts = densify(SQUARE, 16).points
        pts[3, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            red.ScoredContour(pts, np.full(16, 0.9))

    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.1, np.inf])
    def test_score_outside_unit_interval_rejected(self, bad):
        scores = np.full(4, 0.5)
        scores[2] = bad
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            red.ScoredContour(SQUARE, scores)


class TestThreshold:
    def test_all_ones_unchanged(self):
        assert np.array_equal(red.threshold_vertices(np.ones(5), 0.6), np.arange(5))

    def test_all_zero_empty(self):
        assert len(red.threshold_vertices(np.zeros(5), 0.6)) == 0

    def test_filter_keeps_order(self):
        assert np.array_equal(red.threshold_vertices(np.array([0.7, 0.5, 0.9]), 0.6), [0, 2])


class TestVertexNms:
    def test_zero_radius_keeps_all(self, rng):
        assert len(red.vertex_nms(rng.uniform(0, 10, (8, 2)), rng.uniform(0, 1, 8), 0.0)) == 8

    def test_coincident_pair_keeps_higher(self):
        pts = np.array([[3.0, 3.0], [3.0, 3.0], [9.0, 9.0]])
        assert np.array_equal(red.vertex_nms(pts, np.array([0.8, 0.9, 0.5]), 1.0), [1, 2])

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
        assert red.vertex_nms(pts, scores, radius).tolist() == sorted(expected)

    def test_survivors_in_cyclic_order(self, rng):
        idx = red.vertex_nms(rng.uniform(0, 100, (20, 2)), rng.uniform(0, 1, 20), 5.0)
        assert 0 < len(idx) < 20 and np.all(np.diff(idx) > 0)


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

    def test_triangle_floor(self, monkeypatch):
        # near-circular ring collapses no further than three vertices
        monkeypatch.setattr(red, "ANGLE_THRESHOLD", 0.1)
        theta = np.arange(30) * 2 * np.pi / 30
        poly = np.column_stack([np.cos(theta), np.sin(theta)]) * 40 + 50
        out = red.prune_collinear(poly)
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

    def test_overflowing_ring_keeps_three_vertices(self):
        # every cosine is NaN after the overflow, so every angle reads flat
        pts = np.array([[0, 0], [2, 0.1], [4, 0], [2, 3]]) * 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            out = red.reduce(red.ScoredContour(pts, [0.9] * 4), 0.6)
        assert out.shape[0] >= 3

    def test_too_few_vertices_rejected(self):
        with pytest.raises(ValueError):
            red.reduce(red.ScoredContour(np.zeros((2, 2)), np.zeros(2)), 0.6)


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
            stacked = vertex_angle(prev, pts, nxt)
            assert np.array_equal(stacked, expected)
            # one triple reads what the stack reads, pi at a coincident neighbour too
            for i in range(n):
                assert vertex_angle(prev[i], pts[i], nxt[i]) == stacked[i]
            coincident = (prev == pts).all(axis=1) | (nxt == pts).all(axis=1)
            assert np.all(stacked[coincident] == np.pi)
            coincident_seen += int(coincident.sum())
        assert coincident_seen > 0

    def test_scalar_angle_matches_stacked_angles(self, rng):
        # random triples over six scales, integer-grid ones with repeated
        # points, triples with a neighbour on the centre vertex, and triples
        # whose cosine is NaN after an overflow
        triples = [rng.normal(size=(2000, 3, 2)) * scale + 50.0 for scale in (1e-3, 0.1, 1.0, 10.0, 1e3, 1e5)]
        triples.append(rng.integers(0, 4, size=(2000, 3, 2)).astype(float))
        coincident = rng.normal(size=(200, 3, 2))
        coincident[:100, 0] = coincident[:100, 1]
        coincident[100:, 2] = coincident[100:, 1]
        triples.append(coincident)
        ring = np.array([[0, 0], [2, 0.1], [4, 0], [2, 3]]) * 1e200
        triples.append(np.stack([np.roll(ring, 1, axis=0), ring, np.roll(ring, -1, axis=0)], axis=1))
        pts = np.concatenate(triples).reshape(-1, 2)
        third = np.arange(0, pts.shape[0], 3)
        xs, ys = pts[:, 0].tolist(), pts[:, 1].tolist()
        with np.errstate(over="ignore", invalid="ignore"):
            expected = vertex_angle(pts[third], pts[third + 1], pts[third + 2])
            got = np.array([red._angle(xs, ys, i, i + 1, i + 2) for i in third.tolist()])
        assert np.array_equal(got, expected)
        assert np.count_nonzero(expected == np.pi) >= 200

    @pytest.mark.parametrize("threshold", [0.1, 2.0, red.ANGLE_THRESHOLD, 3.0, 3.14])
    def test_prune_matches_per_vertex_loop(self, rng, threshold, monkeypatch):
        monkeypatch.setattr(red, "ANGLE_THRESHOLD", threshold)
        for _ in range(40):
            pts = seeded_ring(rng, int(rng.integers(4, 65)))
            assert np.array_equal(red.prune_collinear(pts), reference_prune(pts, threshold))

    def test_nms_matches_bruteforce_greedy(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 40))
            pts = rng.integers(0, 12, (n, 2)).astype(float)  # coincident points
            scores = rng.choice([0.2, 0.5, 0.5, 0.9], n)  # tied scores
            for radius in (0.0, 1.0, 2.5, float(rng.uniform(0, 6))):
                assert np.array_equal(red.vertex_nms(pts, scores, radius), reference_nms(pts, scores, radius))


def assert_reduce_matches_reference(sc, t):
    got, expected = red.reduce(sc, t), reference_reduce(sc, t)
    assert got.dtype == expected.dtype and np.array_equal(got, expected)


class TestReduceBitIdentity:
    """``reduce`` against its greedy walk over every vertex and its array
    angle pruning (``conftest.reference_reduce``)."""

    def test_jittered_densified_footprints(self, rng):
        fallbacks = 0
        for seed in range(120):
            scene = synth.generate_scene(seed)
            for poly in scene.buildings:
                ring = densify(poly, 64).points
                points = ring + rng.normal(0.0, 0.5, ring.shape)
                scores = rng.uniform(0.05, 0.7, 64)
                nearest = np.linalg.norm(poly[:, None] - ring[None], axis=2).argmin(axis=1)
                scores[(nearest - 1) % 64] = 0.75
                scores[(nearest + 1) % 64] = 0.75
                scores[nearest] = 0.95
                for t in (0.6, 0.9, 0.99):
                    sc = red.ScoredContour(points, scores)
                    fallbacks += np.count_nonzero(scores >= t) < 3
                    assert_reduce_matches_reference(sc, t)
        assert fallbacks > 0

    @pytest.mark.parametrize("threshold", [0.1, 2.0, red.ANGLE_THRESHOLD, 3.0, 3.14])
    def test_seeded_rings(self, rng, threshold, monkeypatch):
        monkeypatch.setattr(red, "ANGLE_THRESHOLD", threshold)
        for _ in range(40):
            pts = seeded_ring(rng, int(rng.integers(4, 65)))
            assert np.array_equal(red.prune_collinear(pts), reference_prune_collinear(pts))
            segments = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
            assert red.mean_segment_length(pts) == float(segments.mean())
            scores = rng.choice([0.3, 0.6, 0.6, 0.8, 0.95], pts.shape[0])  # tied scores
            assert_reduce_matches_reference(red.ScoredContour(pts, scores), 0.6)

    def test_all_scores_below_threshold_take_top3(self, rng):
        # the path of an untrained vertex classifier: no vertex reaches 0.6
        for _ in range(100):
            n = int(rng.integers(3, 65))
            pts = seeded_ring(rng, n) if n > 3 else rng.normal(size=(3, 2)) * 10
            scores = rng.uniform(0.0, 0.6, n)
            if rng.uniform() < 0.5:
                scores = np.round(scores, 1)  # ties among the top three
            assert_reduce_matches_reference(red.ScoredContour(pts, scores), 0.6)


class TestNmsWalkOverCrowdedVertices:
    def test_no_close_pair_keeps_every_vertex(self, rng):
        pts = np.column_stack([np.arange(12.0) * 3.0, np.zeros(12)])
        scores = rng.uniform(0, 1, 12)
        for radius in (0.0, 1.0, 3.0):
            assert np.array_equal(red.vertex_nms(pts, scores, radius), np.arange(12))
        assert len(red.vertex_nms(pts, scores, np.nextafter(3.0, np.inf))) < 12

    def test_radius_zero_keeps_coincident_points(self, rng):
        pts = rng.integers(0, 3, (30, 2)).astype(float)
        assert np.array_equal(red.vertex_nms(pts, rng.choice([0.2, 0.9], 30), 0.0), np.arange(30))

    def test_coincident_points_match_reference(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 30))
            pts = rng.integers(0, 6, (n, 2)).astype(float)
            pts[: n // 3] = pts[0]  # a run of coincident points
            scores = rng.choice([0.2, 0.5, 0.5, 0.9], n)
            for radius in (0.0, 1.0, 2.5):
                out, expected = red.vertex_nms(pts, scores, radius), reference_vertex_nms(pts, scores, radius)
                assert np.array_equal(out, expected)

    def test_nan_distance_suppresses(self):
        pts = np.array([[0.0, 0.0], [np.nan, 1.0], [9.0, 9.0]])
        scores = np.array([0.5, 0.9, 0.7])
        out, expected = red.vertex_nms(pts, scores, 1.0), reference_vertex_nms(pts, scores, 1.0)
        assert np.array_equal(out, expected) and np.array_equal(out, [1])
