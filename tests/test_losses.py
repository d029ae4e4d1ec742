import math

import numpy as np
import pytest

from polytrace import losses
from polytrace.assignment import hungarian, nearest_point_indices
from polytrace.geometry import DensifiedContour, densify, densify_x10

from conftest import central_difference, relative_error

SQUARE = np.array([[10.0, 10.0], [30.0, 10.0], [30.0, 30.0], [10.0, 30.0]])


def square_ring_contour():
    """The square itself as a 4-point anchored ring (corners are the vertices)."""
    return DensifiedContour(SQUARE)


class TestFocalCenterLoss:
    def test_perfect_prediction_is_zero(self):
        target = np.zeros((8, 8))
        target[2, 3] = 1.0
        pred = np.where(target == 1.0, 1.0 - 1e-7, 1e-7)
        value, _ = losses.focal_center_loss(pred, target)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_single_keypoint_half_confidence(self):
        target = np.zeros((4, 4))
        target[1, 1] = 1.0
        pred = np.full((4, 4), 1e-7)
        pred[1, 1] = 0.5
        value, _ = losses.focal_center_loss(pred, target)
        assert value == pytest.approx(-0.25 * math.log(0.5), abs=1e-9)

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(10):
            target = rng.uniform(0.0, 0.9, size=(6, 6))
            target[tuple(rng.integers(0, 6, size=2))] = 1.0
            pred = rng.uniform(0.05, 0.95, size=(6, 6))
            _, grad = losses.focal_center_loss(pred, target)
            fd = central_difference(lambda p: losses.focal_center_loss(p, target)[0], pred)
            assert relative_error(grad, fd) < 1e-6

    def test_no_keypoints_rejected(self):
        with pytest.raises(ValueError):
            losses.focal_center_loss(np.full((3, 3), 0.5), np.zeros((3, 3)))

    def test_stack_is_the_mean_of_its_scenes(self, rng):
        # the scenes have different keypoint counts, so a count summed over the stack fails
        target = rng.uniform(0.0, 0.9, size=(3, 6, 5))
        target[0, 1, 2] = target[1, 4, 4] = target[1, 0, 0] = target[2, 3, 1] = 1.0
        target[2, 5, 0] = target[2, 2, 2] = 1.0
        pred = rng.uniform(0.05, 0.95, size=(3, 6, 5))
        value, grad = losses.focal_center_loss(pred, target)
        alone = [losses.focal_center_loss(p, t) for p, t in zip(pred, target)]
        assert value == pytest.approx(np.mean([v for v, _ in alone]), rel=1e-12)
        for got, (_, g) in zip(grad, alone):
            assert relative_error(got, g / 3) < 1e-12
        fd = central_difference(lambda p: losses.focal_center_loss(p, target)[0], pred)
        assert relative_error(grad, fd) < 1e-6

    def test_stack_with_one_scene_without_keypoints_rejected(self):
        target = np.zeros((2, 3, 3))
        target[0, 1, 1] = 1.0
        with pytest.raises(ValueError, match="no keypoints"):
            losses.focal_center_loss(np.full((2, 3, 3), 0.5), target)


class TestSmoothL1:
    def test_equal_points_zero(self):
        pts = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert losses.smooth_l1(pts, pts)[0] == 0.0

    def test_small_offset_quadratic(self):
        value, _ = losses.smooth_l1(np.array([[0.5, 0.0]]), np.array([[0.0, 0.0]]))
        assert value == pytest.approx(0.125)

    def test_large_offset_linear(self):
        value, _ = losses.smooth_l1(np.array([[2.0, 0.0]]), np.array([[0.0, 0.0]]))
        assert value == pytest.approx(1.5)

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(10):
            gt = rng.uniform(0, 20, size=(12, 2))
            offsets = rng.normal(scale=1.5, size=(12, 2))
            offsets = offsets[np.newaxis].squeeze(0)
            # keep clear of the |x| = 1 kink
            offsets[np.abs(np.abs(offsets) - 1.0) < 1e-3] += 0.01
            pred = gt + offsets
            _, grad = losses.smooth_l1(pred, gt)
            fd = central_difference(lambda p: losses.smooth_l1(p, gt)[0], pred)
            assert relative_error(grad, fd) < 1e-6

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            losses.smooth_l1(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_batch_equals_its_rows_alone(self, rng):
        gt = rng.uniform(0, 20, size=(3, 12, 2))
        pred = gt + rng.normal(scale=1.5, size=gt.shape)
        value, grad = losses.smooth_l1(pred, gt)
        assert value.shape == (3,) and grad.shape == gt.shape
        for b in range(3):
            alone_value, alone_grad = losses.smooth_l1(pred[b : b + 1], gt[b : b + 1])
            assert value[b] == alone_value[0]
            assert np.array_equal(grad[b], alone_grad[0])


def as_mask(n, matched):
    """The (n,) boolean row of the vertices ``matched`` lists."""
    mask = np.zeros(n, dtype=bool)
    mask[matched] = True
    return mask


def classify_one(probs, matched):
    """``classification_loss`` of one ring as a batch of one."""
    value, grad = losses.classification_loss(probs[None], as_mask(len(probs), matched)[None])
    return value[0], grad[0]


def dml_one(pred, gt, corners, matched):
    """``dml`` of one ring as a batch of one, with corner i matched to
    vertex ``matched[i]``."""
    corner_targets = np.zeros(pred.shape)
    corner_targets[matched] = corners
    is_matched = as_mask(len(pred), matched)
    value, grad = losses.dml(pred[None], gt[None], corner_targets[None], is_matched[None])
    return value[0], grad[0]


class TestClassificationLoss:
    def test_perfect_classification_is_zero(self):
        probs = np.array([1.0, 0.0, 1.0, 0.0])
        value, _ = classify_one(probs, np.array([0, 2]))
        assert value == pytest.approx(0.0, abs=1e-5)

    def test_single_matched_half_confidence(self):
        value, _ = classify_one(np.array([0.5]), np.array([0]))
        assert value == pytest.approx(-math.log(0.5))

    def test_invalid_weight_applied(self, monkeypatch):
        probs = np.array([1.0, 0.5])
        value, _ = classify_one(probs, np.array([0]))
        assert value == pytest.approx(0.1 * -math.log(0.5), abs=1e-6)
        monkeypatch.setattr(losses, "INVALID_WEIGHT", 0.3)
        value, _ = classify_one(probs, np.array([0]))
        assert value == pytest.approx(0.3 * -math.log(0.5), abs=1e-6)

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(10):
            n = 12
            probs = rng.uniform(0.05, 0.95, size=n)
            matched = rng.choice(n, size=4, replace=False)
            _, grad = classify_one(probs, matched)
            fd = central_difference(lambda p: classify_one(p, matched)[0], probs)
            assert relative_error(grad, fd) < 1e-6

    def test_column_hungarian_leaves_free_is_unmatched(self):
        # rows take columns 1 and 0, so column 2 is scored as an invalid vertex
        matched = hungarian(np.array([[1.0, 0.0, 3.0], [0.0, 5.0, 4.0]]))
        probs = np.array([0.8, 0.6, 0.3])
        value, grad = classify_one(probs, matched)
        assert value == pytest.approx(-math.log(0.6) - math.log(0.8) - 0.1 * math.log(0.7))
        assert np.allclose(grad, [-1.0 / 0.8, -1.0 / 0.6, 0.1 / 0.7])

    def test_batch_equals_its_rows_alone(self, rng):
        probs = rng.uniform(0.05, 0.95, size=(3, 12))
        probs[1, 5] = 0.0  # a clamped vertex, whose gradient is zero
        is_matched = np.stack([as_mask(12, rng.choice(12, size=k, replace=False)) for k in (3, 4, 6)])
        value, grad = losses.classification_loss(probs, is_matched)
        assert value.shape == (3,) and grad.shape == (3, 12)
        for b in range(3):
            alone_value, alone_grad = losses.classification_loss(probs[b : b + 1], is_matched[b : b + 1])
            assert value[b] == alone_value[0]
            assert np.array_equal(grad[b], alone_grad[0])


class TestDml:
    def test_zero_at_perfect_prediction(self):
        gt = square_ring_contour()
        value, _ = dml_one(gt.points.copy(), gt.points, SQUARE, np.arange(4))
        assert value == 0.0

    def test_displaced_square_matches_bruteforce_oracle(self):
        gt = square_ring_contour()
        pred = gt.points + np.array([1.0, 0.0])
        dense = densify_x10(gt.points)
        assert dense.shape == (40, 2)
        # oracle: exhaustive nearest search and plain arithmetic
        expected_pre2gt = 0.0
        for p in pred:
            d2 = np.linalg.norm(dense - p, axis=1)
            nearest = dense[np.argmin(d2)]
            expected_pre2gt += np.abs(p - nearest).sum()
        expected_pre2gt /= pred.shape[0]
        expected_gt2pre = np.abs(pred - SQUARE).sum() / 4
        value, _ = dml_one(pred, gt.points, SQUARE, np.arange(4))
        assert value == pytest.approx(expected_pre2gt + expected_gt2pre)

    def test_on_boundary_vertex_contributes_nothing(self):
        gt = square_ring_contour()
        # exactly on a 10x subdivision point of the top edge, between corners
        pred = gt.points.copy()
        pred[0] = [16.0, 10.0]
        dense = densify_x10(gt.points)
        nearest = nearest_point_indices(pred, dense)
        assert np.abs(pred[0] - dense[nearest[0]]).sum() < 1e-9

    def test_translation_invariance(self, rng):
        gt = densify(SQUARE, 16)
        pred = gt.points + rng.normal(scale=1.0, size=(16, 2))
        matched = rng.choice(16, size=4, replace=False)
        base, _ = dml_one(pred, gt.points, SQUARE, matched)
        shift = np.array([31.7, -8.25])
        gt_shifted = DensifiedContour(gt.points + shift)
        moved, _ = dml_one(pred + shift, gt_shifted.points, SQUARE + shift, matched)
        assert moved == pytest.approx(base, abs=1e-9)

    def test_boundary_term_decreases_along_approach(self, monkeypatch):
        gt = square_ring_contour()
        pred = gt.points.copy()
        pred[0] = [50.0, 5.0]
        dense = densify_x10(gt.points)
        nearest = nearest_point_indices(pred, dense)
        matched = np.array([1, 2, 3, 0])
        target = dense[nearest[0]]
        monkeypatch.setattr(losses, "nearest_point_indices", lambda query, points: nearest)
        values = []
        for frac in np.linspace(0.0, 0.9, 10):
            moved = pred.copy()
            moved[0] = pred[0] + frac * (target - pred[0])
            values.append(dml_one(moved, gt.points, SQUARE, matched)[0])
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_gradient_matches_finite_differences(self, rng, monkeypatch):
        gt = densify(SQUARE, 16)
        for _ in range(10):
            pred = gt.points + rng.normal(scale=1.3, size=(16, 2))
            matched = rng.choice(16, size=4, replace=False)
            nearest = nearest_point_indices(pred, densify_x10(gt.points))
            # the selection stays frozen while the differences move pred
            monkeypatch.setattr(losses, "nearest_point_indices", lambda query, points: nearest)
            _, grad = dml_one(pred, gt.points, SQUARE, matched)
            fd = central_difference(lambda p: dml_one(p, gt.points, SQUARE, matched)[0], pred)
            assert relative_error(grad, fd) < 1e-6

    def test_batch_equals_its_rows_alone(self, rng):
        # rings of different sizes and places, with 4, 6 and 5 matched corners
        gt = np.stack([densify(SQUARE * s + t, 16).points for s, t in ((1.0, 0.0), (1.5, 7.0), (0.8, -3.0))])
        pred = gt + rng.normal(scale=1.3, size=gt.shape)
        corner_targets = rng.uniform(0.0, 60.0, size=gt.shape)
        is_matched = np.stack([as_mask(16, rng.choice(16, size=k, replace=False)) for k in (4, 6, 5)])
        value, grad = losses.dml(pred, gt, corner_targets, is_matched)
        assert value.shape == (3,) and grad.shape == gt.shape
        for b in range(3):
            row = slice(b, b + 1)
            alone_value, alone_grad = losses.dml(pred[row], gt[row], corner_targets[row], is_matched[row])
            assert value[b] == alone_value[0]
            assert np.array_equal(grad[b], alone_grad[0])


class TestTotalLoss:
    @staticmethod
    def components(ct, init, e1, e2, cla):
        return {"ct": ct, "init": init, "e1": e1, "e2": e2, "cla": cla}

    def test_all_zero(self):
        assert losses.total_loss(self.components(0.0, 0.0, 0.0, 0.0, 0.0)) == 0.0

    def test_weighted_combination(self):
        out = losses.total_loss(self.components(3.0, 3.0, 3.0, 3.0, 1.0))
        assert out == pytest.approx(7.0)

    def test_linearity_and_gradient_scaling(self):
        one = losses.total_loss(self.components(1.0, 1.0, 1.0, 1.0, 1.0))
        two = losses.total_loss(self.components(2.0, 2.0, 2.0, 2.0, 2.0))
        assert two == pytest.approx(2 * one)
        # the partial derivative of the total in each component is its weight
        names = ("ct", "init", "e1", "e2", "cla")
        x = np.ones(5)
        fd = central_difference(lambda v: losses.total_loss(dict(zip(names, v))), x)
        assert np.allclose(fd, [1.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, 1.0])
