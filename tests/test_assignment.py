import itertools

import numpy as np
import pytest

from polytrace import assignment as asg


def total_cost(cost, matched):
    return float(cost[np.arange(matched.shape[0]), matched].sum())


def nearest_point_index(point, points):
    """Single-query form of ``nearest_point_indices``."""
    return int(asg.nearest_point_indices(np.asarray(point, dtype=float)[None], points)[0])


def brute_force_min_cost(cost):
    """Exhaustive minimum over all injective row-to-column maps."""
    m, n = cost.shape
    best = np.inf
    for perm in itertools.permutations(range(n), m):
        total = cost[np.arange(m), list(perm)].sum()
        if total < best:
            best = total
    return best


class TestMatchCost:
    def test_coincident_vertex_minimizes_row(self):
        corners = np.array([[10.0, 10.0], [40.0, 40.0]])
        preds = np.array([[10.0, 10.0], [25.0, 25.0], [40.0, 40.0], [70.0, 5.0]])
        probs = np.full(4, 0.5)
        cost = asg.match_cost(corners, preds, probs, diagonal=100.0)
        assert np.argmin(cost[0]) == 0
        assert np.argmin(cost[1]) == 2

    def test_zero_delta_prefers_highest_probability(self, monkeypatch):
        monkeypatch.setattr(asg, "MATCH_DISTANCE_WEIGHT", 0.0)
        corners = np.array([[0.0, 0.0]])
        preds = np.array([[50.0, 50.0], [1.0, 1.0], [90.0, 90.0]])
        probs = np.array([0.2, 0.1, 0.9])
        cost = asg.match_cost(corners, preds, probs, diagonal=100.0)
        assert np.argmin(cost[0]) == 2

    def test_entrywise_hand_values(self):
        corners = np.array([[0.0, 0.0], [10.0, 0.0]])
        preds = np.array([[0.0, 0.0], [6.0, 8.0], [10.0, 0.0]])
        probs = np.array([0.5, 0.25, 1.0])
        cost = asg.match_cost(corners, preds, probs, diagonal=100.0)
        # distances row 0: 0, 10, 10; row 1: 10, sqrt(16+64)=8.944..., 0
        expected = np.array(
            [
                [-0.5 + 0.0, -0.25 + 0.5, -1.0 + 0.5],
                [-0.5 + 0.5, -0.25 + 5 * np.sqrt(80) / 100, -1.0 + 0.0],
            ]
        )
        assert np.allclose(cost, expected)

    def test_more_corners_than_vertices_rejected(self):
        with pytest.raises(ValueError):
            asg.match_cost(
                np.zeros((3, 2)), np.zeros((2, 2)), np.zeros(2), diagonal=10.0
            )


class TestHungarian:
    def test_identity_on_diagonal_matrix(self):
        cost = np.full((4, 4), 5.0)
        np.fill_diagonal(cost, 0.0)
        assert list(asg.hungarian(cost)) == [0, 1, 2, 3]

    def test_single_row_takes_argmin(self):
        cost = np.array([[4.0, 2.0, 7.0, 2.0, 9.0]])
        assert asg.hungarian(cost)[0] == 1

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(120):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(m, 11))
            cost = rng.normal(size=(m, n)) * 10
            out = asg.hungarian(cost)
            # one distinct column in [0, n) for every row
            assert isinstance(out, np.ndarray) and np.issubdtype(out.dtype, np.integer)
            assert out.shape == (m,)
            assert np.unique(out).size == m
            assert out.min() >= 0 and out.max() < n
            total = total_cost(cost, out)
            assert total == pytest.approx(brute_force_min_cost(cost), abs=1e-9)

    def test_invariant_under_row_constant_shift(self):
        rng = np.random.default_rng(11)
        cost = rng.normal(size=(4, 6))
        base = asg.hungarian(cost)
        shifted = cost + rng.normal(size=(4, 1))
        assert np.array_equal(asg.hungarian(shifted), base)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            asg.hungarian(np.zeros((0, 0)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            asg.hungarian(np.array([[1.0, np.inf]]))

    def test_rectangular_leaves_columns_free(self):
        cost = np.array([[1.0, 0.0, 3.0], [0.0, 5.0, 4.0]])
        out = asg.hungarian(cost)
        assert sorted(out) == [0, 1]


class TestNearestPoint:
    def test_exact_member_returns_its_index(self):
        pts = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert nearest_point_index((3.0, 4.0), pts) == 1

    def test_tie_breaks_to_lowest_index(self):
        pts = np.array([[0.0, 1.0], [3.0, 0.0]])
        assert nearest_point_index((0.0, 0.0), pts) == 0
        tie = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert nearest_point_index((0.0, 0.0), tie) == 0

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 50, size=(40, 2))
        for _ in range(50):
            q = rng.uniform(0, 50, size=2)
            d = [float(np.hypot(*(p - q))) for p in pts]
            assert nearest_point_index(q, pts) == int(np.argmin(d))

    def test_translation_invariance(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 50, size=(20, 2))
        qs = rng.uniform(0, 50, size=(10, 2))
        shift = np.array([13.5, -7.25])
        base = asg.nearest_point_indices(qs, pts)
        moved = asg.nearest_point_indices(qs + shift, pts + shift)
        assert np.array_equal(base, moved)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            nearest_point_index((0, 0), np.zeros((0, 2)))
