import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from polytrace import geometry as geo
from polytrace import synth
from polytrace.evolution import relative_coords

from conftest import (
    frame_mask,
    hausdorff_between_rings,
    points_to_ring_distance,
    random_convex_polygon,
    reference_densify,
    reference_rasterize,
    reference_ray_hit,
)

SQUARE_CCW_YDOWN = np.array([[0.0, 0.0], [0.0, 10.0], [10.0, 10.0], [10.0, 0.0]])
SQUARE_CW = SQUARE_CCW_YDOWN[::-1]
BIG_SQUARE = np.array([[0.0, 0.0], [100.0, 0.0], [100.0, 100.0], [0.0, 100.0]])
# bbox center (20, 20) inside the cavity; the rightward ray escapes through the opening
C_SHAPE = np.array([[0, 0], [40, 0], [40, 10], [10, 10], [10, 30], [40, 30], [40, 40], [0, 40]], dtype=float)


def point_in_polygon(point, poly) -> bool:
    """Even-odd test of one point against the ring (half-open edge rule)."""
    p = geo.as_polygon(poly)
    x, y = float(point[0]), float(point[1])
    a = p
    b = np.roll(p, -1, axis=0)
    crossing = (a[:, 1] <= y) != (b[:, 1] <= y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = a[:, 0] + (y - a[:, 1]) * (b[:, 0] - a[:, 0]) / (b[:, 1] - a[:, 1])
    hits = crossing & (xint > x)
    return bool(np.count_nonzero(hits) % 2 == 1)


def loop_rasterize(poly, width, height):
    """Per-edge scanline rasterizer: each edge flips the pixels of the rows
    it crosses whose centres lie left of the crossing. ``rasterize`` must
    give the same bits without the loop over edges."""
    p = geo.as_polygon(poly)
    ys = np.arange(height) + 0.5
    xs = np.arange(width) + 0.5
    mask = np.zeros((height, width), dtype=bool)
    for (x1, y1), (x2, y2) in zip(p, np.roll(p, -1, axis=0)):
        if y1 == y2:
            continue
        rows = (y1 <= ys) != (y2 <= ys)
        xint = x1 + (ys[rows] - y1) * (x2 - x1) / (y2 - y1)
        mask[rows] ^= xs[None, :] < xint[:, None]
    return mask


def raster_cases():
    """(name, polygon, (width, height)) on small non-square frames."""
    rng = np.random.default_rng(16)
    t = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    ell = np.array([[2, 2], [20, 2], [20, 8], [8, 8], [8, 20], [2, 20]], dtype=float)
    cases = [
        ("l_shape", ell, (31, 23)),
        ("l_shape_on_centres", ell + 0.5, (23, 31)),
        ("l_shape_reversed", ell[::-1] + 0.25, (31, 23)),
        ("diamond_on_centres", np.array([[10.5, 2.5], [18.5, 10.5], [10.5, 18.5], [2.5, 10.5]]), (31, 23)),
        ("rectangle_on_edges", np.array([[3.0, 4.0], [17.0, 4.0], [17.0, 9.0], [3.0, 9.0]]), (31, 23)),
        ("repeated_vertices", np.repeat(ell + 0.5, [1, 2, 1, 3, 1, 2], axis=0), (31, 23)),
        ("over_every_edge", np.array([[-5.0, -3.5], [40.0, -2.0], [36.5, 30.0], [-4.0, 27.5]]), (31, 23)),
        ("outside_frame", ell + 100.0, (31, 23)),
        ("one_pixel_wide_frame", ell - 2.0, (1, 23)),
        ("one_pixel_high_frame", ell - 1.75, (31, 1)),
        ("self_intersecting", np.array([[2.0, 2.0], [25.0, 18.0], [25.0, 2.0], [2.0, 18.0]]), (31, 23)),
    ]
    for k in range(8):
        center = rng.uniform(4.0, 28.0, 2)
        radii = rng.uniform(3.0, 15.0, 2)
        ring = center + radii * np.column_stack([np.cos(t), np.sin(t)]) + rng.normal(0.0, 0.5, (64, 2))
        keep = np.sort(rng.choice(64, int(rng.integers(3, 13)), replace=False))
        frame = (31, 23) if k % 2 else (23, 31)
        cases += [
            (f"jittered_ring_{k}", ring, frame),
            (f"reduced_ring_{k}", ring[keep], frame),
            (f"ring_on_pixel_edges_{k}", np.round(ring), frame),
            (f"ring_on_pixel_centres_{k}", np.floor(ring) + 0.5, frame),
        ]
    return cases


RASTER_CASES = raster_cases()


# a ray runs along an edge 5e-8 off it, so only that edge's far endpoint
# gives its hit (its end, then in the mirror image its start); a ray's
# farthest crossing lies a rounding error behind the center, and the hit
# clamps to the center
NEAR_DEGENERATE_RINGS = [
    [[3.00000005, 0.0], [4.0, 2.0], [2.0, 6.0], [3.00000005, 1.0]],
    [[2.99999995, 0.0], [2.0, 2.0], [4.0, 6.0], [2.99999995, 1.0]],
    [[0.1, 2.1], [2.1, 2.1], [2.1, 1.1], [4.1, 2.1]],
    [[0.3, 1.3], [2.3, 2.3], [1.3, 3.3], [1.3, 1.3]],
]


def densify_cases(count, seed=20):
    """``count`` seeded (polygon, n_vertices) pairs from eight families, each
    ring starting at a random vertex and in a random direction, then the
    near-degenerate rings; many are degenerate or self-intersecting, so
    ``densify`` rejects a good share."""
    rng = np.random.default_rng(seed)
    spec = synth.SceneSpec()

    def star():
        k = int(rng.integers(3, 65))  # long arcs, whose sums round by length
        angle = np.sort(rng.uniform(0.0, 2.0 * np.pi, k))
        radius = rng.uniform(2.0, 30.0, k)
        return rng.uniform(20.0, 80.0, 2) + radius[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])

    def integer_grid():
        return np.round(star())

    def tiny_integer():
        return rng.integers(0, 5, (int(rng.integers(3, 7)), 2)).astype(float)

    def right_triangle():
        (a, b), corner = rng.uniform(1.0, 40.0, 2), rng.uniform(0.0, 50.0, 2)
        return corner + np.array([[0.0, 0.0], [a, 0.0], [0.0, b]])

    families = [
        lambda: synth._make_rect(rng, spec) + rng.uniform(6.0, 80.0, 2),
        lambda: synth._make_rot_rect(rng, spec) + rng.uniform(6.0, 80.0, 2),
        lambda: synth._make_l_shape(rng, spec) + rng.uniform(6.0, 80.0, 2),
        lambda: random_convex_polygon(rng, int(rng.integers(3, 16))),
        star,
        integer_grid,
        tiny_integer,
        right_triangle,
    ]
    cases = []
    for i in range(count):
        poly = families[i % len(families)]()
        if rng.random() < 0.5:
            poly = poly[::-1]
        poly = np.roll(poly, int(rng.integers(0, poly.shape[0])), axis=0)
        cases.append((poly, int(rng.choice([4, 8, 16, 64, 128]))))
    return cases + [(np.array(ring), n) for ring in NEAR_DEGENERATE_RINGS for n in (4, 64)]


class TestSignedArea:
    def test_counterclockwise_square_is_negative(self):
        assert geo._shoelace(SQUARE_CCW_YDOWN) == pytest.approx(-100.0)

    def test_reversal_flips_sign(self):
        assert geo._shoelace(SQUARE_CCW_YDOWN[::-1]) == pytest.approx(100.0)

    def test_two_vertices_rejected(self):
        with pytest.raises(ValueError):
            geo.normalize_orientation([[0, 0], [1, 1]])


class TestNormalizeOrientation:
    def test_clockwise_input_unchanged(self):
        out = geo.normalize_orientation(SQUARE_CW)
        assert np.array_equal(out, SQUARE_CW)

    def test_counterclockwise_square_reversed(self):
        out = geo.normalize_orientation(SQUARE_CCW_YDOWN)
        assert geo._shoelace(out) > 0
        assert np.array_equal(np.sort(out, axis=0), np.sort(SQUARE_CCW_YDOWN, axis=0))

    def test_zero_area_rejected(self):
        with pytest.raises(ValueError):
            geo.normalize_orientation([[0, 0], [1, 1], [2, 2]])


def ray_hits(poly, center, directions):
    """``geometry._ray_hits`` of the (K, 2) ``directions`` scaled to unit
    length, on the edges of ``poly`` as ``densify`` passes them."""
    p = geo.as_polygon(poly)
    d = np.asarray(directions, dtype=float).reshape(-1, 2)
    d = d / np.linalg.norm(d, axis=1, keepdims=True)
    return geo._ray_hits(p, np.asarray(center, dtype=float), d, geo._next(p) - p)


class TestRayBoundaryIntersection:
    def test_square_top(self):
        hit = ray_hits(BIG_SQUARE, (50, 50), (0, -1))
        assert np.allclose(hit, [(50, 0)])

    def test_square_right(self):
        hit = ray_hits(BIG_SQUARE, (50, 50), (1, 0))
        assert np.allclose(hit, [(100, 50)])

    def test_concave_shape_takes_outermost_crossing(self):
        # C-shape open to the right: the -x ray from the cavity crosses the
        # inner wall (x=10) and the outer wall (x=0); the outer one must win.
        center = geo.bbox_center(C_SHAPE)
        # oracle: enumerate edge crossings of the leftward ray explicitly
        hits = []
        for a, b in zip(C_SHAPE, np.roll(C_SHAPE, -1, axis=0)):
            if (a[1] <= center[1]) != (b[1] <= center[1]):
                x = a[0] + (center[1] - a[1]) * (b[0] - a[0]) / (b[1] - a[1])
                if x <= center[0]:
                    hits.append(x)
        assert len(hits) >= 2
        (hit,) = ray_hits(C_SHAPE, center, (-1, 0))
        assert hit[0] == pytest.approx(min(hits))
        assert hit[1] == pytest.approx(center[1])

    def test_no_intersection_raises(self):
        # the same cavity center, but the ray escapes through the opening
        with pytest.raises(ValueError):
            ray_hits(C_SHAPE, geo.bbox_center(C_SHAPE), (1, 0))

    def test_stack_equals_one_ray_at_a_time(self, rng):
        directions = np.vstack([geo.ANCHOR_DIRECTIONS, [[1.0, 1.0], [-3.0, 0.5]]])
        for _ in range(20):
            poly = random_convex_polygon(rng)
            center = geo.bbox_center(poly)
            hits = ray_hits(poly, center, directions)
            assert hits.shape == directions.shape
            for d, hit in zip(directions, hits):
                assert np.allclose(hit, reference_ray_hit(poly, center, d), rtol=0.0, atol=1e-9)
            for d, hit in zip(geo.ANCHOR_DIRECTIONS, hits):
                assert np.array_equal(hit, reference_ray_hit(poly, center, d))


class TestDensify:
    def test_square_layout(self):
        dc = geo.densify(BIG_SQUARE, 64)
        assert dc.points.shape[0] == 64
        assert np.allclose(dc.points[0], (50, 0))
        assert np.allclose(dc.points[16], (100, 50))
        assert np.allclose(dc.points[32], (50, 100))
        assert np.allclose(dc.points[48], (0, 50))

    def test_square_anchors_at_edge_midpoints(self):
        dc = geo.densify(BIG_SQUARE, 8)
        assert np.allclose(dc.points[np.arange(4) * 2], [[50, 0], [100, 50], [50, 100], [0, 50]])

    def test_anchor_on_existing_vertex_not_duplicated(self):
        # each anchor is a diamond corner itself, the top one also where the
        # top ray meets the left edge 6e-12 of its length short of that corner
        for top_x in (50.0, 50.0 + 3e-10):
            diamond = np.array([[top_x, 0], [100, 50], [50, 100], [0, 50]])
            dc = geo.densify(diamond, 16)
            assert np.array_equal(dc.points[np.arange(4) * 4], diamond)

    def test_rotated_square_anchors_at_corners(self):
        theta = np.pi / 4
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        rotated = (BIG_SQUARE - 50) @ rot.T + 50
        dc = geo.densify(rotated, 16)
        for q in dc.points[np.arange(4) * 4]:
            assert np.min(np.linalg.norm(rotated - q, axis=1)) < 1e-9

    def test_anchors_lie_on_directional_rays(self, rng):
        for _ in range(20):
            poly = random_convex_polygon(rng)
            dc = geo.densify(poly, 64)
            center = geo.bbox_center(poly)
            for idx, direction in zip(np.arange(4) * 64 // 4, geo.ANCHOR_DIRECTIONS):
                offset = dc.points[idx] - center
                # perpendicular distance to the ray and forward progress
                perp = abs(offset[0] * direction[1] - offset[1] * direction[0])
                assert perp < 1e-9
                assert offset @ direction >= -1e-9

    def test_hausdorff_bound_on_convex_polygons(self, rng):
        for _ in range(25):
            poly = random_convex_polygon(rng)
            dc = geo.densify(poly, 64)
            bound = np.linalg.norm(np.roll(poly, -1, axis=0) - poly, axis=1).sum() / 64
            h = hausdorff_between_rings(dc.points, poly, step=0.03)
            assert h <= bound + 1e-9

    def test_idempotent_on_square(self):
        first = geo.densify(BIG_SQUARE, 64)
        second = geo.densify(first.points, 64)
        assert np.max(np.abs(second.points - first.points)) < 1e-9

    def test_points_stay_on_boundary(self, rng):
        poly = random_convex_polygon(rng)
        dc = geo.densify(poly, 64)
        assert points_to_ring_distance(dc.points, poly).max() < 1e-9

    def test_bad_vertex_count_rejected(self):
        with pytest.raises(ValueError):
            geo.densify(BIG_SQUARE, 62)

    def test_coincident_anchors_rejected(self):
        # the bbox center (5, 5) lies on the hypotenuse, where the right and
        # bottom rays both stop
        with pytest.raises(ValueError):
            geo.densify([[0, 0], [10, 0], [0, 10]], 8)

    def test_anchors_out_of_cyclic_order_rejected(self):
        # the bbox center (2.5, 3) lies on an edge, where the top and left
        # rays both stop, so clockwise from top the left one comes first
        with pytest.raises(ValueError):
            geo.densify([[5, 1], [0, 5], [1, 5], [4, 3]], 8)

    def test_escaping_ray_rejected(self):
        with pytest.raises(ValueError):
            geo.densify(C_SHAPE, 8)

    def test_bit_identical_to_per_ray_reference(self):
        """Equal points, zero signs included, and a ValueError on exactly the
        same inputs as the one-ray-at-a-time oracle."""
        equal = rejected = 0
        for poly, n in densify_cases(3000):
            try:
                expected = reference_densify(poly, n)
            except ValueError:
                with pytest.raises(ValueError):
                    geo.densify(poly, n)
                rejected += 1
                continue
            points = geo.densify(poly, n).points
            assert points.shape == expected.shape
            assert np.array_equal(points, expected)
            assert np.array_equal(np.signbit(points), np.signbit(expected))
            equal += 1
        # both outcomes are well represented
        assert equal > 1500 and rejected > 500


class TestDensifyX10:
    def test_count(self):
        dc = geo.densify(BIG_SQUARE, 64)
        assert geo.densify_x10(dc.points).shape == (640, 2)

    def test_originals_retained(self):
        dc = geo.densify(BIG_SQUARE, 64)
        dense = geo.densify_x10(dc.points)
        assert np.allclose(dense[::10], dc.points)

    def test_equal_spacing_within_segment(self):
        dc = geo.densify(BIG_SQUARE, 64)
        dense = geo.densify_x10(dc.points)
        seg = dense[:10]  # first segment subdivision
        steps = np.diff(seg, axis=0)
        assert np.allclose(steps, steps[0])


class TestRelativeCoords:
    def test_square_extremes(self):
        dc = geo.densify(BIG_SQUARE, 64)
        rel = relative_coords(dc.points)
        assert rel.min() == pytest.approx(-0.5)
        assert rel.max() == pytest.approx(0.5)

    def test_vertex_at_bbox_center_maps_to_zero(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 5.0], [0.0, 10.0]])
        rel = relative_coords(pts)
        assert np.allclose(rel[2], (0.0, 0.0))

    def test_outputs_always_in_range(self, rng):
        for _ in range(50):
            pts = rng.uniform(0, 100, size=(rng.integers(3, 40), 2))
            if np.ptp(pts[:, 0]) < 1e-6 or np.ptp(pts[:, 1]) < 1e-6:
                continue
            rel = relative_coords(pts)
            assert rel.min() >= -0.5 - 1e-12
            assert rel.max() <= 0.5 + 1e-12
            assert rel[:, 0].max() == pytest.approx(0.5)
            assert rel[:, 1].min() == pytest.approx(-0.5)

    def test_zero_extent_axis_maps_to_zero(self):
        rel = relative_coords(np.array([[1.0, 0.0], [1.0, 5.0], [1.0, 9.0]]))
        assert np.array_equal(rel[:, 0], np.zeros(3))
        assert np.allclose(rel[:, 1], [-0.5, 1.0 / 18.0, 0.5])

    def test_batch_matches_each_contour(self, rng):
        batch = rng.uniform(0, 100, size=(3, 12, 2))
        rel = relative_coords(batch)
        for contour, expected in zip(batch, rel):
            assert np.array_equal(relative_coords(contour), expected)


class TestPairwiseDistances:
    @staticmethod
    def norm_oracle(a, b):
        return np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)

    def test_equals_norm_on_random_sets(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            m, p = rng.integers(1, 30, size=2)
            scale = 10.0 ** rng.integers(-3, 4)
            a = rng.normal(scale=scale, size=(m, 2))
            b = rng.normal(scale=scale, size=(p, 2))
            d = geo.pairwise_distances(a, b)
            assert d.shape == (m, p)
            assert np.array_equal(d, self.norm_oracle(a, b))

    def test_equals_norm_and_argmin_on_tied_sets(self):
        rng = np.random.default_rng(18)
        for _ in range(200):
            # small integer grids repeat points and distances
            a = rng.integers(-3, 4, size=(rng.integers(1, 12), 2)).astype(float)
            b = rng.integers(-3, 4, size=(rng.integers(1, 40), 2)).astype(float)
            d = geo.pairwise_distances(a, b)
            ref = self.norm_oracle(a, b)
            assert np.array_equal(d, ref)
            assert np.array_equal(np.argmin(d, axis=1), np.argmin(ref, axis=1))


class TestVertexAngle:
    def test_collinear_is_pi(self):
        assert geo.vertex_angle((0, 0), (1, 0), (2, 0)) == pytest.approx(math.pi)

    def test_right_angle(self):
        assert geo.vertex_angle((0, 1), (0, 0), (1, 0)) == pytest.approx(math.pi / 2)

    def test_nearly_straight(self):
        angle = geo.vertex_angle((0, 0), (1, 0), (2, 0.1))
        assert angle == pytest.approx(math.pi - math.atan(0.1), abs=1e-12)

    def test_coincident_neighbour_reads_pi(self):
        assert geo.vertex_angle((1, 1), (1, 1), (2, 2)) == math.pi
        assert geo.vertex_angle((2, 2), (1, 1), (1, 1)) == math.pi
        prev = np.array([[1.0, 1.0], [0.0, 1.0], [5.0, 5.0]])
        nxt = np.array([[2.0, 2.0], [1.0, 0.0], [5.0, 5.0]])
        got = geo.vertex_angle(prev, np.array([[1.0, 1.0], [0.0, 0.0], [5.0, 5.0]]), nxt)
        assert np.array_equal(got, [math.pi, math.pi / 2, math.pi])

    @given(st.floats(0.05, math.pi - 0.05))
    @settings(max_examples=40, deadline=None)
    def test_matches_constructed_angle(self, target):
        cur = np.array([3.0, 4.0])
        prev = cur + np.array([2.0, 0.0])
        nxt = cur + 1.5 * np.array([math.cos(target), math.sin(target)])
        assert geo.vertex_angle(prev, cur, nxt) == pytest.approx(target, abs=1e-9)


class TestRasterize:
    def test_aligned_square_exact_count(self):
        mask = frame_mask(SQUARE_CW, 20, 20)
        assert mask.sum() == 100
        assert mask[:10, :10].all()

    def test_matches_point_in_polygon_oracle(self, rng):
        poly = random_convex_polygon(rng, scale=18, offset=(12, 12))
        mask = frame_mask(poly, 26, 26)
        for i in range(26):
            for j in range(26):
                assert mask[i, j] == point_in_polygon((j + 0.5, i + 0.5), poly)

    def test_polygon_outside_frame_is_empty(self):
        far = BIG_SQUARE + 1000
        assert frame_mask(far, 20, 20).sum() == 0

    def test_area_close_to_analytic(self):
        quad = np.array([[3.3, 4.1], [93.7, 6.2], [95.1, 88.4], [5.9, 91.0]])
        exact = abs(geo._shoelace(quad))
        count = frame_mask(quad, 110, 110).sum()
        assert abs(count - exact) / exact < 0.02

    def test_monotone_under_containment(self, rng):
        outer = random_convex_polygon(rng, scale=40, offset=(30, 30))
        center = geo.bbox_center(outer)
        inner = center + 0.6 * (outer - center)
        assert all(point_in_polygon(v, outer) for v in inner)
        m_out = frame_mask(outer, 64, 64)
        m_in = frame_mask(inner, 64, 64)
        assert not np.any(m_in & ~m_out)

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            geo.rasterize([BIG_SQUARE], 0, 10)

    @pytest.mark.parametrize("name,poly,frame", RASTER_CASES, ids=[c[0] for c in RASTER_CASES])
    def test_bit_identical_to_edge_loop_and_oracle(self, name, poly, frame):
        width, height = frame
        mask = frame_mask(poly, width, height)
        assert mask.shape == (height, width) and mask.dtype == bool
        assert np.array_equal(mask, loop_rasterize(poly, width, height))
        oracle = [[point_in_polygon((j + 0.5, i + 0.5), poly) for j in range(width)] for i in range(height)]
        assert np.array_equal(mask, np.array(oracle, dtype=bool))

    def test_model_rings_on_benchmark_frame_match_edge_loop(self):
        rng = np.random.default_rng(1)
        t = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        for _ in range(50):
            center = rng.uniform(-10.0, 138.0, 2)
            radii = rng.uniform(3.0, 60.0, 2)
            ring = center + radii * np.column_stack([np.cos(t), np.sin(t)]) + rng.normal(0.0, 0.5, (64, 2))
            for poly in (ring, np.floor(ring) + 0.5):
                assert np.array_equal(frame_mask(poly, 128, 128), loop_rasterize(poly, 128, 128))

    def test_crops_match_reference_on_random_rings(self):
        """Every crop equals the reference mask on its frame window, and the
        reference sets no pixel outside it, for 1,200 rings in stacks of
        100: rings cut by the frame edge or wholly outside it, rings too
        thin to hit a pixel centre, and rings with horizontal edges."""
        rng = np.random.default_rng(31)
        t = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        width, height = 97, 71
        rings = []
        for k in range(1200):
            center = rng.uniform(-40.0, 140.0, 2)
            radii = rng.uniform(0.05, 60.0, 2)
            kind = k % 6
            if kind == 0:  # noisy ellipse
                ring = center + radii * np.column_stack([np.cos(t), np.sin(t)]) + rng.normal(0.0, 0.5, (64, 2))
            elif kind == 1:  # random (often self-intersecting) ring
                ring = rng.uniform(-20.0, 120.0, (int(rng.integers(3, 30)), 2))
            elif kind == 2:  # vertices on pixel centres
                ring = np.floor(center + radii * rng.uniform(-1.0, 1.0, (int(rng.integers(3, 12)), 2))) + 0.5
            elif kind == 3:  # vertices on pixel corners: horizontal and vertical edges
                x0, y0 = np.round(center)
                x1, y1 = np.round(center + radii)
                ring = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])
            elif kind == 4:  # too thin to hit a pixel centre
                x0, y0 = np.floor(center) + 0.6
                ring = np.array([[x0, y0], [x0 + radii[0], y0], [x0 + radii[0], y0 + 0.3], [x0, y0 + 0.3]])
            else:  # wholly outside the frame
                ring = rng.uniform(0.0, 30.0, (5, 2)) + rng.choice([[-40.0, 10.0], [110.0, 10.0], [10.0, -40.0], [10.0, 90.0]])
            rings.append(ring)
        for pad in (0, 3):
            for lo in range(0, len(rings), 100):
                block = rings[lo : lo + 100]
                crops, origins = geo.rasterize(block, width, height, pad=pad)
                h, w = crops.shape[1:]
                assert crops.dtype == bool and crops.shape[0] == len(block) and origins.shape == (len(block), 2)
                assert h <= height and w <= width
                for ring, crop, (r, c) in zip(block, crops, origins):
                    assert 0 <= r <= height - h and 0 <= c <= width - w
                    expected = reference_rasterize(ring, width, height)
                    assert np.array_equal(crop, expected[r : r + h, c : c + w])
                    expected[r : r + h, c : c + w] = False
                    assert not expected.any()

    def test_crop_reaches_pad_beyond_its_ring(self):
        ring = np.array([[40.0, 30.0], [50.0, 30.0], [50.0, 38.0], [40.0, 38.0]])
        frame = (97, 71)
        crops, origins = geo.rasterize([ring, ring + [-38.0, 30.0]], *frame, pad=3)
        assert crops.shape[1:] == (8 + 6, 10 + 2 + 6)
        # the first crop is centred on its ring, the second cut by the frame
        assert origins.tolist() == [[27, 36], [57, 0]]
        assert np.count_nonzero(crops, axis=(1, 2)).tolist() == [80, 80]
        assert np.array_equal(frame_mask(ring, *frame)[27:41, 36:54], crops[0])

    def test_far_vertices_match_reference(self):
        rings = [
            np.array([[-1e200, 10.0], [50.0, 10.0], [50.0, 40.0]]),
            np.array([[5.0, 5.0], [1e300, 20.0], [5.0, 1e300]]),
            np.array([[2e200, 2e200], [3e200, 2e200], [3e200, 3e200]]),
        ]
        crops, origins = geo.rasterize(rings, 64, 48, pad=3)
        assert crops.shape[1:] == (48, 64)
        for ring, crop, (r, c) in zip(rings, crops, origins):
            assert np.array_equal(crop, reference_rasterize(ring, 64, 48)[r : r + 48, c : c + 64])
        assert crops[0].any() and crops[1].any() and not crops[2].any()

    def test_empty_sequence_gives_empty_stack(self):
        crops, origins = geo.rasterize([], 20, 10)
        assert crops.shape[0] == 0 and origins.shape == (0, 2)

    def test_bad_polygon_rejected(self):
        for ring in (np.zeros((2, 2)), np.zeros((4, 3)), np.array([[0.0, 0.0], [np.nan, 1.0], [1.0, 1.0]])):
            with pytest.raises(ValueError):
                geo.rasterize([SQUARE_CW, ring], 20, 20)

    def test_memory_is_linear_in_frame_pixels(self):
        # a 1000-vertex ring filling a 1024x1024 frame; an edge x pixel
        # broadcast would need about 1000 bytes per pixel
        t = np.linspace(0.0, 2.0 * np.pi, 1000, endpoint=False)
        ring = 512.0 + 500.0 * np.column_stack([np.cos(t), np.sin(t)])
        tracemalloc.start()
        try:
            (mask,), _ = geo.rasterize([ring], 1024, 1024)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert mask.sum() > 0.7 * 1024 * 1024
        assert peak < 32 * 1024 * 1024


class TestExpandMask:
    def test_radius_zero_is_identity(self):
        mask = frame_mask(SQUARE_CW, 20, 20)
        assert np.array_equal(geo.expand_mask(mask, 0), mask)

    def test_single_pixel_becomes_block(self):
        mask = np.zeros((7, 7), dtype=bool)
        mask[3, 3] = True
        out = geo.expand_mask(mask, 1)
        assert out.sum() == 9
        assert out[2:5, 2:5].all()

    def test_square_dilation_is_minkowski_sum(self):
        frame = 130
        sq = np.array([[10, 10], [110, 10], [110, 110], [10, 110]], dtype=float)
        mask = frame_mask(sq, frame, frame)
        assert mask.sum() == 100 * 100
        out = geo.expand_mask(mask, 2)
        assert out.sum() == 104 * 104

    def test_dilation_composes_additively(self, rng):
        mask = rng.random((40, 40)) > 0.9
        a = geo.expand_mask(geo.expand_mask(mask, 2), 3)
        b = geo.expand_mask(mask, 5)
        assert np.array_equal(a, b)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            geo.expand_mask(np.zeros((3, 3), dtype=bool), -1)

    @pytest.mark.parametrize("r", range(4))
    def test_stack_dilates_like_a_loop_over_slices(self, r, rng):
        stack = rng.random((5, 3, 13, 9)) > 0.93
        stack[0, 0] = True
        stack[1, 2] = False
        out = geo.expand_mask(stack, r)
        assert out.shape == stack.shape and out.dtype == bool
        for index in np.ndindex(stack.shape[:2]):
            assert np.array_equal(out[index], geo.expand_mask(stack[index], r))

    @pytest.mark.parametrize("r", range(6))
    def test_matches_square_dilation(self, r, rng):
        h, w = 17, 23
        masks = [np.zeros((h, w), dtype=bool), np.ones((h, w), dtype=bool), rng.random((h, w)) > 0.93]
        for i, j in ((0, 0), (0, w - 1), (h - 1, 0), (h - 1, w - 1), (8, 11)):
            mask = np.zeros((h, w), dtype=bool)
            mask[i, j] = True
            masks.append(mask)
        for rows, cols in ((slice(0, 3), slice(5, 9)), (slice(h - 2, h), slice(4, 15)),
                           (slice(6, 10), slice(0, 2)), (slice(3, 12), slice(w - 4, w))):
            mask = np.zeros((h, w), dtype=bool)
            mask[rows, cols] = True
            masks.append(mask)
        masks += [np.ones((1, 9), dtype=bool), rng.random((9, 1)) > 0.5]
        square = np.ones((2 * r + 1, 2 * r + 1), dtype=bool)
        for mask in masks:
            out = geo.expand_mask(mask, r)
            assert out.dtype == bool and out is not mask
            assert np.array_equal(out, ndimage.binary_dilation(mask, structure=square))
