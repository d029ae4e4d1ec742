"""Training objectives with analytic gradients.

Every loss returns a ``(value, grad)`` pair: the value and its partial
derivative with respect to the loss's one continuous input, an array of
that input's shape. The contour losses take a training step's whole batch
of rings and return one value per ring, shaped like the batch's leading
axes; the caller weights them into the batch mean. :func:`total_loss`
weights the per-component scalars into the objective. A non-finite value
is returned as it is; the total's check in ``training.train_step``
rejects it. Discrete selections (Hungarian matches, nearest-point indices)
are treated as constants inside a step's gradient; they are recomputed
between steps, which is what makes the vertex pairing dynamic at step
granularity.
"""

from __future__ import annotations

import numpy as np

from .assignment import nearest_point_indices
from .geometry import densify_x10

PROB_EPS = 1e-7
FOCAL_ALPHA = 2.0      # focusing exponent of the focal heatmap loss
FOCAL_BETA = 4.0       # penalty reduction exponent near a keypoint
INVALID_WEIGHT = 0.1   # weight of an unmatched vertex in the classification loss
LOSS_BALANCE = 1.0 / 3.0  # weight of each contour loss in the total


def _clamped_log(p):
    return np.log(np.clip(p, PROB_EPS, 1.0 - PROB_EPS))


def focal_center_loss(pred_heatmap, target_heatmap) -> tuple[float, np.ndarray]:
    """Penalty-reduced focal loss for the center-point heatmap.

    The heatmaps are (R, W), or (S, R, W) for S scenes. Pixels where the
    target is exactly 1 are keypoints; each scene's sum is averaged by that
    scene's keypoint count, and the loss is the mean over the scenes. The
    gradient is with respect to ``pred_heatmap``.
    """
    pred = np.asarray(pred_heatmap, dtype=float)
    target = np.asarray(target_heatmap, dtype=float)
    if pred.shape != target.shape:
        raise ValueError("heatmap shapes differ")
    pos = target == 1.0
    n_key = pos.sum(axis=(-2, -1), keepdims=True)
    if np.any(n_key == 0):
        raise ValueError("target heatmap has no keypoints")
    weight = 1.0 / (n_key * n_key.size)
    alpha, beta = FOCAL_ALPHA, FOCAL_BETA
    p = np.clip(pred, PROB_EPS, 1.0 - PROB_EPS)
    log_p = np.log(p)
    log_1p = np.log(1.0 - p)

    pos_term = (1.0 - p) ** alpha * log_p
    neg_term = (1.0 - target) ** beta * p**alpha * log_1p
    value = -float((np.where(pos, pos_term, neg_term) * weight).sum())

    d_pos = alpha * (1.0 - p) ** (alpha - 1) * log_p - (1.0 - p) ** alpha / p
    d_neg = (1.0 - target) ** beta * (alpha * p ** (alpha - 1) * log_1p - p**alpha / (1.0 - p))
    grad = np.where(pos, d_pos, -d_neg) * weight
    grad = np.where((pred > PROB_EPS) & (pred < 1.0 - PROB_EPS), grad, 0.0)
    return value, grad


def smooth_l1(pred_points, gt_points) -> tuple[np.ndarray, np.ndarray]:
    """Mean smooth-L1 over the vertices of each ring, summed over x and y
    per vertex.

    The rings are (..., N, 2); the values have the leading shape. Per
    coordinate: 0.5 x^2 for |x| < 1, |x| - 0.5 otherwise. The gradient is
    with respect to ``pred_points``.
    """
    pred = np.asarray(pred_points, dtype=float)
    gt = np.asarray(gt_points, dtype=float)
    if pred.shape != gt.shape:
        raise ValueError(f"point counts differ: {pred.shape} vs {gt.shape}")
    n = pred.shape[-2]
    diff = pred - gt
    a = np.abs(diff)
    per_coord = np.where(a < 1.0, 0.5 * diff**2, a - 0.5)
    grad = np.where(a < 1.0, diff, np.sign(diff)) / n
    return per_coord.sum(axis=(-2, -1)) / n, grad


def classification_loss(valid_probs, is_matched) -> tuple[np.ndarray, np.ndarray]:
    """Negative log-likelihood of the matched/unmatched vertex labels.

    ``valid_probs`` and the boolean ``is_matched`` are (..., N), one row per
    ring; ``is_matched`` marks the vertices that ``hungarian`` matched to a
    corner. Matched vertices contribute -log(c); the others contribute
    ``INVALID_WEIGHT * -log(1 - c)`` to counter the class imbalance. The
    values have the leading shape; the gradient is with respect to
    ``valid_probs``.
    """
    c = np.asarray(valid_probs, dtype=float)
    value = -np.where(is_matched, _clamped_log(c), 0.0).sum(axis=-1)
    value += INVALID_WEIGHT * -np.where(is_matched, 0.0, _clamped_log(1.0 - c)).sum(axis=-1)

    interior = (c > PROB_EPS) & (c < 1.0 - PROB_EPS)
    matched_grad = -1.0 / np.clip(c, PROB_EPS, None)
    unmatched_grad = INVALID_WEIGHT / np.clip(1.0 - c, PROB_EPS, None)
    grad = np.where(interior, np.where(is_matched, matched_grad, unmatched_grad), 0.0)
    return value, grad


def dml(pred, gt, corner_targets, is_matched) -> tuple[np.ndarray, np.ndarray]:
    """Dynamic matching loss: boundary attraction plus corner attraction.

    ``pred`` and ``gt`` are (B, N, 2) batches of rings. The first term is
    the mean L1 distance from each predicted vertex to its nearest point (by
    L2) on its 10x-densified ground-truth ring; the second is the mean L1
    distance from each matched predicted vertex, where the (B, N) boolean
    ``is_matched`` is set, to its corner ``corner_targets[b, v]``; the other
    entries of the (B, N, 2) ``corner_targets`` are ignored. Returns the
    (B,) values; the gradient, with respect to ``pred``, treats both
    selections as constants.
    """
    pred_pts = np.asarray(pred, dtype=float)
    n = pred_pts.shape[-2]
    m = is_matched.sum(axis=-1)
    dense_gt = densify_x10(gt)
    # one ring at a time: one (B, N, 10N) distance matrix is slower than B small ones
    targets = np.stack([d[nearest_point_indices(p, d)] for p, d in zip(pred_pts, dense_gt)])

    diff_b = pred_pts - targets
    pre2gt = np.abs(diff_b).sum(axis=(-2, -1)) / n
    grad = np.sign(diff_b) / n

    on = is_matched[..., None]
    diff_c = pred_pts - corner_targets
    gt2pre = np.where(on, np.abs(diff_c), 0.0).sum(axis=(-2, -1)) / m
    grad += np.where(on, np.sign(diff_c) / m[:, None, None], 0.0)

    return pre2gt + gt2pre, grad


def total_loss(components) -> float:
    """Multi-task combination ct + LOSS_BALANCE*(init + e1 + e2) + cla of
    the per-component loss values, keyed by component name."""
    return (
        components["ct"]
        + LOSS_BALANCE * (components["init"] + components["e1"] + components["e2"])
        + components["cla"]
    )
