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
builds its rows from any IoU function and uses the same matcher.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy import ndimage

from .geometry import expand_mask, rasterize

IOU_THRESHOLDS = np.array([0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95])
SIZE_SPLIT_PIXELS = 7500
BOUNDARY_FRACTION = 0.01  # boundary band width as a fraction of the frame diagonal
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
    count as outside). Only the mask's bounding box is eroded and dilated:
    the band and every boundary pixel lie inside it, and the zero border of
    the erosion reads the pixels outside it as background, which they are.
    """
    m = np.asarray(mask, dtype=bool)
    band = np.zeros_like(m)
    rows = np.flatnonzero(m.any(axis=1))
    if rows.size == 0:
        return band
    cols = np.flatnonzero(m.any(axis=0))
    box = (slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1))
    crop = m[box]
    interior = ndimage.binary_erosion(crop, structure=np.ones((3, 3), dtype=bool), border_value=0)
    band[box] = crop & expand_mask(crop & ~interior, d)
    return band


def boundary_distance(frame_dims) -> int:
    """Boundary band width: ``BOUNDARY_FRACTION`` of the frame diagonal,
    at least one pixel."""
    width, height = frame_dims
    return max(1, int(round(BOUNDARY_FRACTION * float(np.hypot(width, height)))))


@dataclass
class MatchResult:
    pairs: list  # (pred_index, gt_index, iou)
    unmatched_preds: list

    @property
    def true_positives(self) -> int:
        return len(self.pairs)

    @property
    def false_positives(self) -> int:
        return len(self.unmatched_preds)


def match_instances(preds, gts, iou_fn, threshold: float) -> MatchResult:
    """Greedy score-ordered matching with the single-match rule.

    Predictions in descending score order (ties by input order) claim the
    not-yet-matched ground truth of the same image with the highest IoU at
    or above the threshold; IoU ties go to the lower ground-truth index.
    """
    rows = [[] for _ in preds]
    for pis, gis in _image_groups(preds, gts):
        for pi in pis:
            rows[pi] = [(gi, iou_fn(preds[pi], gts[gi])) for gi in gis]
    return _greedy_match(_score_order(preds), rows, len(gts), threshold)


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


def _greedy_match(order, rows, n_gts: int, threshold: float) -> MatchResult:
    """The single-match greedy walk of :func:`match_instances` over IoU rows:
    per prediction, the (gt_index, IoU) pairs of the ground truths of its
    image, in index order."""
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
    return MatchResult(pairs, unmatched_preds)


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
        return asdict(self)


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
        matches[kind] = [_greedy_match(order, rows, len(gts), float(thr)) for thr in IOU_THRESHOLDS]
        precision[kind] = [m.true_positives / len(preds) if preds else 0.0 for m in matches[kind]]
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
