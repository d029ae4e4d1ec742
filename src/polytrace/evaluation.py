"""Mask and boundary IoU, averaged precision, size splits and the
manual-delineation-level statistics.

All metrics are raster-based: polygons are rasterized with the pixel-center
even-odd rule, boundary bands use Chebyshev distance to the mask's boundary
pixels, so every value is reproducible bit-for-bit and checkable against a
per-pixel oracle.

:func:`evaluate` makes one pass over images that share one (width, height)
frame. It rasterizes each prediction and ground truth once and computes each
mask's boundary band once. Each prediction gets one row of mask IoUs and one
row of band IoUs, against the ground truths of its own image only. One
greedy matcher turns the rows into the match at every IoU threshold. The
size splits come from the ground-truth masks. The mean instance IoU and the
manual levels come from the mask match at IoU 0.5. :func:`match_instances`
and :func:`average_precision` build their rows from any IoU function and use
the same matcher.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .geometry import expand_mask, rasterize

IOU_THRESHOLDS = np.array([0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95])
SIZE_SPLIT_PIXELS = 7500
SMALL_MEDIUM = "S&M"
LARGE = "L"


@dataclass(frozen=True)
class InstancePrediction:
    polygon: np.ndarray
    score: float
    image_id: int = 0

    def __post_init__(self):
        object.__setattr__(self, "polygon", np.asarray(self.polygon, dtype=float))
        if not 0.0 <= self.score <= 1.0:
            raise ValueError("prediction score must be a probability")


@dataclass(frozen=True)
class GroundTruth:
    polygon: np.ndarray
    image_id: int = 0

    def __post_init__(self):
        object.__setattr__(self, "polygon", np.asarray(self.polygon, dtype=float))


def mask_iou(a, b, frame_dims) -> float:
    """Intersection over union of the rasterized polygons; 0 on empty union."""
    width, height = frame_dims
    ma = rasterize(a, width, height)
    mb = rasterize(b, width, height)
    return masks_iou(ma, mb)


def masks_iou(ma, mb) -> float:
    union = int(np.count_nonzero(ma | mb))
    if union == 0:
        return 0.0
    return int(np.count_nonzero(ma & mb)) / union


def boundary_band(mask, d: int) -> np.ndarray:
    """Mask pixels within Chebyshev distance d of the mask's boundary.

    Boundary pixels are mask pixels with a non-mask 8-neighbor (frame edges
    count as outside).
    """
    m = np.asarray(mask, dtype=bool)
    if not m.any():
        return m.copy()
    interior = ndimage.binary_erosion(m, structure=np.ones((3, 3), dtype=bool), border_value=0)
    boundary = m & ~interior
    return m & expand_mask(boundary, d)


def boundary_distance(frame_dims, d_fraction: float = 0.01) -> int:
    width, height = frame_dims
    return max(1, int(round(d_fraction * float(np.hypot(width, height)))))


def boundary_iou(a, b, frame_dims, d_fraction: float = 0.01) -> float:
    """IoU restricted to the bands within distance d of each mask's boundary,
    with d a fraction of the frame diagonal (at least one pixel)."""
    width, height = frame_dims
    d = boundary_distance(frame_dims, d_fraction)
    band_a = boundary_band(rasterize(a, width, height), d)
    band_b = boundary_band(rasterize(b, width, height), d)
    return masks_iou(band_a, band_b)


@dataclass
class MatchResult:
    pairs: list  # (pred_index, gt_index, iou)
    unmatched_preds: list
    unmatched_gts: list

    @property
    def true_positives(self) -> int:
        return len(self.pairs)

    @property
    def false_positives(self) -> int:
        return len(self.unmatched_preds)

    @property
    def false_negatives(self) -> int:
        return len(self.unmatched_gts)


def match_instances(preds, gts, iou_fn, threshold: float) -> MatchResult:
    """Greedy score-ordered matching with the single-match rule.

    Predictions in descending score order (ties by input order) claim the
    not-yet-matched ground truth of the same image with the highest IoU at
    or above the threshold; IoU ties go to the lower ground-truth index.
    """
    return _greedy_match(_score_order(preds), _iou_rows(preds, gts, iou_fn), len(gts), threshold)


def average_precision(preds, gts, iou_fn, interpolated: bool = False) -> float:
    """Mean precision over the ten IoU thresholds 0.50 .. 0.95.

    Default reading: precision = TP / (TP + FP) over all predictions at each
    threshold, zero when there are no predictions. With ``interpolated`` the
    standard 101-point interpolated PR integral is used instead.
    """
    if len(gts) == 0:
        raise ValueError("average precision needs at least one ground truth")
    order = _score_order(preds)
    results = _threshold_matches(order, _iou_rows(preds, gts, iou_fn), len(gts))
    if interpolated and preds:
        return float(np.mean([_interpolated_ap(result, order, len(gts)) for result in results]))
    return float(np.mean(_precisions(results, len(preds))))


def _score_order(preds) -> list:
    """Prediction indices by descending score, ties by input order."""
    return sorted(range(len(preds)), key=lambda i: (-preds[i].score, i))


def _image_groups(preds, gts) -> list:
    """(prediction indices, ground-truth indices) of every image with both."""
    gt_ids, pred_ids = defaultdict(list), defaultdict(list)
    for gi, gt in enumerate(gts):
        gt_ids[gt.image_id].append(gi)
    for pi, pred in enumerate(preds):
        pred_ids[pred.image_id].append(pi)
    return [(pis, gt_ids[image_id]) for image_id, pis in pred_ids.items() if image_id in gt_ids]


def _iou_rows(preds, gts, iou_fn) -> list:
    """Per prediction, the (gt_index, IoU) pairs of the ground truths of its
    image, in index order."""
    rows = [[] for _ in preds]
    for pis, gis in _image_groups(preds, gts):
        for pi in pis:
            rows[pi] = [(gi, iou_fn(preds[pi], gts[gi])) for gi in gis]
    return rows


def _greedy_match(order, rows, n_gts: int, threshold: float) -> MatchResult:
    """The single-match greedy walk of :func:`match_instances` over IoU rows."""
    gt_taken = [False] * n_gts
    pairs = []
    unmatched_preds = []
    for pi in order:
        best_iou, best_gt = 0.0, -1
        for gi, iou in rows[pi]:
            if not gt_taken[gi] and iou >= threshold and iou > best_iou:
                best_iou, best_gt = iou, gi
        if best_gt >= 0:
            gt_taken[best_gt] = True
            pairs.append((pi, best_gt, best_iou))
        else:
            unmatched_preds.append(pi)
    unmatched_gts = [gi for gi, taken in enumerate(gt_taken) if not taken]
    return MatchResult(pairs, unmatched_preds, unmatched_gts)


def _threshold_matches(order, rows, n_gts: int) -> list:
    """The greedy match at each IoU threshold."""
    return [_greedy_match(order, rows, n_gts, float(thr)) for thr in IOU_THRESHOLDS]


def _precisions(results, n_preds: int) -> list:
    """TP / predictions at each IoU threshold; zeros without predictions."""
    return [result.true_positives / n_preds if n_preds else 0.0 for result in results]


def _interpolated_ap(result, order, n_gts: int):
    matched = {pi for pi, _, _ in result.pairs}
    flags = np.array([pi in matched for pi in order])
    tp = np.cumsum(flags)
    fp = np.cumsum(~flags)
    recall = tp / n_gts
    precision = tp / np.maximum(tp + fp, 1)
    for i in range(precision.size - 1, 0, -1):
        precision[i - 1] = max(precision[i - 1], precision[i])
    rec_points = np.linspace(0.0, 1.0, 101)
    idx = np.searchsorted(recall, rec_points, side="left")
    sampled = np.where(idx < recall.size, precision[np.minimum(idx, recall.size - 1)], 0.0)
    return float(sampled.mean())


def size_split(gt_mask) -> str:
    """Rasterized area below 7500 pixels is small-and-medium, the rest large."""
    area = int(np.count_nonzero(gt_mask))
    return SMALL_MEDIUM if area < SIZE_SPLIT_PIXELS else LARGE


def manual_level_threshold(gt_mask, r: int) -> float:
    """Instance-level IoU threshold from expanding the rasterized ground
    truth by r pixels.

    The expansion is a superset of the mask, so the IoU reduces to
    |mask| / |expanded mask|. Only the mask's bounding box grown by r and
    clipped to the frame is dilated: no pixel outside it can be set, and the
    frame clips the dilation in both.
    """
    if r not in (2, 3):
        raise ValueError("manual-level expansion must be 2 or 3 pixels")
    m = np.asarray(gt_mask, dtype=bool)
    area = int(np.count_nonzero(m))
    if area == 0:
        return 0.0
    rows = np.flatnonzero(m.any(axis=1))
    cols = np.flatnonzero(m.any(axis=0))
    crop = m[max(rows[0] - r, 0) : rows[-1] + r + 1, max(cols[0] - r, 0) : cols[-1] + r + 1]
    expanded = int(np.count_nonzero(expand_mask(crop, r)))
    return area / expanded


@dataclass
class EvalReport:
    """Aggregate metric report; every metric lies in [0, 1]."""

    ap_msk: float
    ap_bdy: float
    ap_msk_sm: float
    ap_msk_l: float
    ap_bdy_sm: float
    ap_bdy_l: float
    manual_level_2px: float
    manual_level_3px: float
    mean_instance_iou: float
    thresholds: list = field(default_factory=lambda: [float(t) for t in IOU_THRESHOLDS])
    precision_mask: list = field(default_factory=list)
    precision_boundary: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "ap_msk": self.ap_msk,
            "ap_bdy": self.ap_bdy,
            "ap_msk_sm": self.ap_msk_sm,
            "ap_msk_l": self.ap_msk_l,
            "ap_bdy_sm": self.ap_bdy_sm,
            "ap_bdy_l": self.ap_bdy_l,
            "manual_level_2px": self.manual_level_2px,
            "manual_level_3px": self.manual_level_3px,
            "mean_instance_iou": self.mean_instance_iou,
            "thresholds": self.thresholds,
            "precision_mask": self.precision_mask,
            "precision_boundary": self.precision_boundary,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EvalReport":
        return cls(**data)

    def format_table(self) -> str:
        head = f"{'':14s}{'AP':>8s}{'AP_S&M':>8s}{'AP_L':>8s}"
        rows = [
            head,
            f"{'mask':14s}{self.ap_msk:8.4f}{self.ap_msk_sm:8.4f}{self.ap_msk_l:8.4f}",
            f"{'boundary':14s}{self.ap_bdy:8.4f}{self.ap_bdy_sm:8.4f}{self.ap_bdy_l:8.4f}",
            "",
            f"{'manual level':14s}{'2px':>8s}{'3px':>8s}",
            f"{'':14s}{self.manual_level_2px:8.4f}{self.manual_level_3px:8.4f}",
            "",
            f"{'mean IoU':14s}{self.mean_instance_iou:8.4f}",
            "",
            "threshold  precision(mask)  precision(boundary)",
        ]
        for thr, pm, pb in zip(self.thresholds, self.precision_mask, self.precision_boundary):
            rows.append(f"{thr:9.2f}{pm:17.4f}{pb:21.4f}")
        return "\n".join(rows) + "\n"


def evaluate(preds, gts, frame_dims) -> EvalReport:
    """Populate the full report for a prediction set against ground truths.

    ``frame_dims`` is the (width, height) of every image.
    """
    if len(gts) == 0:
        raise ValueError("evaluation needs at least one ground truth")
    width, height = frame_dims
    d = boundary_distance(frame_dims)
    gt_masks = [rasterize(gt.polygon, width, height) for gt in gts]
    mask_rows, band_rows = [[] for _ in preds], [[] for _ in preds]
    for pis, gis in _image_groups(preds, gts):
        gt_bands = {gi: boundary_band(gt_masks[gi], d) for gi in gis}
        for pi in pis:
            mask = rasterize(preds[pi].polygon, width, height)
            band = boundary_band(mask, d)
            mask_rows[pi] = [(gi, masks_iou(mask, gt_masks[gi])) for gi in gis]
            band_rows[pi] = [(gi, masks_iou(band, gt_bands[gi])) for gi in gis]

    order = _score_order(preds)
    classes = [size_split(mask) for mask in gt_masks]
    precision, splits, matches = {}, {}, {}
    for kind, rows in (("mask", mask_rows), ("boundary", band_rows)):
        matches[kind] = _threshold_matches(order, rows, len(gts))
        precision[kind] = _precisions(matches[kind], len(preds))
        splits[kind] = {label: _split_ap(matches[kind], classes, label) for label in (SMALL_MEDIUM, LARGE)}

    # the mask match at IOU_THRESHOLDS[0] == 0.5 gives the per-instance IoUs
    # and the manual levels; unmatched ground truths count as failures
    pairs = matches["mask"][0].pairs
    per_gt_iou = np.zeros(len(gts))
    for _, gi, iou in pairs:
        per_gt_iou[gi] = iou
    manual = {
        r: sum(iou > manual_level_threshold(gt_masks[gi], r) for _, gi, iou in pairs) / len(gts)
        for r in (2, 3)
    }

    return EvalReport(
        ap_msk=float(np.mean(precision["mask"])),
        ap_bdy=float(np.mean(precision["boundary"])),
        ap_msk_sm=splits["mask"][SMALL_MEDIUM],
        ap_msk_l=splits["mask"][LARGE],
        ap_bdy_sm=splits["boundary"][SMALL_MEDIUM],
        ap_bdy_l=splits["boundary"][LARGE],
        manual_level_2px=manual[2],
        manual_level_3px=manual[3],
        mean_instance_iou=float(per_gt_iou.mean()),
        precision_mask=precision["mask"],
        precision_boundary=precision["boundary"],
    )


def _split_ap(results, classes, label):
    """AP restricted to one size class, from the per-threshold matches.

    At each threshold, predictions matched to a ground truth of the other
    class are set aside; precision is TP(class) / (TP(class) + unmatched).
    A class with no ground truths, or no predictions, reports 0.
    """
    if label not in classes:
        return 0.0
    values = []
    for result in results:
        tp = sum(1 for _, gi, _ in result.pairs if classes[gi] == label)
        fp = result.false_positives
        values.append(tp / (tp + fp) if tp + fp else 0.0)
    return float(np.mean(values))
