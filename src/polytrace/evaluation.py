"""Mask and boundary IoU, averaged precision and the
manual-delineation-level statistics.

All metrics are raster-based: polygons are rasterized with the pixel-center
even-odd rule, boundary bands use Chebyshev distance to the mask's boundary
pixels, so every value is reproducible bit-for-bit and checkable against a
per-pixel oracle.

:func:`evaluate` makes one pass over images that share one (width, height)
frame. Only images with both predictions and ground truths are rasterized,
in blocks of whole images. Each block's predictions and ground truths are
one stack of equal-shape frame windows (crops). Each prediction gets one row
of mask IoUs and one row of band IoUs, against the ground truths of its own
image only. One greedy walk per kind turns the rows into the match at
every IoU threshold, keeping the thresholds at which each ground truth is
taken as a bit mask. The mean instance IoU and the manual levels come from
the mask match at IoU 0.5. :func:`match_instances` builds its rows from
any IoU function and walks them greedily at its one threshold.

Cost model: per block, one :func:`rasterize` call (one pass over the
crossings of all its rings), two stack dilations for the boundary bands
(4 ORs for the boundary, a 3x3 dilation of the background, and 4d for the
band), two for the manual levels of its ground truths (4r each, r = 2 and
3), and area counts over the stack's axes. Intersections are counted only
for the (prediction, ground truth) pairs of an image whose masks' bounding
boxes meet, over the overlap of their crops; the union is area_a + area_b -
intersection, which is integer-exact. ``BLOCK_PIXELS`` caps the pixels of a
block's stack, which bounds its temporaries at about 11 bytes per pixel; an
image whose own rings exceed the cap makes a block of its own. On the
benchmark's 128x128 frames a block holds about a hundred rings, so the
fixed cost of the numpy calls is paid per block, not per instance.
"""

from __future__ import annotations

import bisect
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from itertools import islice
from operator import itemgetter

import numpy as np

from .geometry import crop_windows, expand_mask, rasterize

IOU_THRESHOLDS = np.array([0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95])
BOUNDARY_FRACTION = 0.01  # boundary band width as a fraction of the frame diagonal
LEVEL_RADII = (2, 3)  # manual-level expansions, in pixels
BLOCK_PIXELS = 1 << 19  # cap on the pixels of one crop stack in evaluate


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
    masks, origins = rasterize([a, b], *frame_dims)
    area_a, area_b = np.count_nonzero(masks, axis=(1, 2)).tolist()
    window = _overlap(masks.shape[1:], *origins.tolist())
    inter = int(np.count_nonzero(masks[0][window[0]] & masks[1][window[1]])) if window else 0
    return _iou(inter, area_a, area_b)


def masks_iou(ma, mb) -> float:
    """Intersection over union of two masks of one shape; 0 on empty union."""
    union = int(np.count_nonzero(ma | mb))
    if union == 0:
        return 0.0
    return int(np.count_nonzero(ma & mb)) / union


def _iou(inter: int, area_a: int, area_b: int) -> float:
    """IoU from the two areas and their intersection, which give the union
    exactly; 0 on empty union."""
    union = area_a + area_b - inter
    return inter / union if union else 0.0


def _overlap(shape, origin_a, origin_b):
    """The slices of two (h, w) frame windows at (row, column) origins that
    cover the frame pixels of both, or None where they do not overlap."""
    (h, w), dr, dc = shape, origin_b[0] - origin_a[0], origin_b[1] - origin_a[1]
    if abs(dr) >= h or abs(dc) >= w:
        return None
    rows_a, rows_b = slice(max(dr, 0), h + min(dr, 0)), slice(max(-dr, 0), h + min(-dr, 0))
    cols_a, cols_b = slice(max(dc, 0), w + min(dc, 0)), slice(max(-dc, 0), w + min(-dc, 0))
    return (rows_a, cols_a), (rows_b, cols_b)


def boundary_band(mask, d: int) -> np.ndarray:
    """Mask pixels within Chebyshev distance d of the mask's boundary, for
    one mask or for each mask of a stack over the last two axes.

    Boundary pixels are mask pixels with a non-mask 8-neighbor (the edges of
    the last two axes count as outside): the mask ANDed with the 3x3
    dilation of the background, padded by one background pixel each side.
    The band is the mask ANDed with the boundary dilated by d.
    """
    m = np.asarray(mask, dtype=bool)
    *lead, h, w = m.shape
    background = np.ones((*lead, h + 2, w + 2), dtype=bool)
    background[..., 1:-1, 1:-1] = ~m
    boundary = m & expand_mask(background, 1)[..., 1:-1, 1:-1]
    return m & expand_mask(boundary, d)


def boundary_distance(frame_dims) -> int:
    """Boundary band width: ``BOUNDARY_FRACTION`` of the frame diagonal,
    at least one pixel."""
    width, height = frame_dims
    return max(1, int(round(BOUNDARY_FRACTION * float(np.hypot(width, height)))))


@dataclass
class MatchResult:
    pairs: list  # (pred_index, gt_index, iou)


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
    _, pairs = _greedy_walks(_score_order(preds), rows, [threshold])
    return MatchResult(pairs)


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


def _greedy_walks(order, rows, thresholds):
    """The greedy walk of :func:`match_instances` at each of the ascending
    ``thresholds``, as one pass over the predictions in ``order``: (true
    positives at each threshold, the (pred_index, gt_index, iou) pairs at
    the first). ``rows`` holds, per prediction, the (gt_index, IoU) pairs
    of the ground truths of its image, in index order.

    A ground truth's taken set is a bit mask over the thresholds, and so is
    the set of thresholds at which a prediction is still unmatched. Each
    prediction's row is sorted by descending IoU, ties in row order, so it
    claims the free ground truth of highest IoU, ties to the first in its
    row. Down to the first IoU that is not positive or misses the first
    threshold, each (gt_index, IoU) pair wins every threshold its IoU
    reaches at which the prediction is still unmatched and the ground truth
    not taken.
    """
    taken = {}  # gt_index -> bit k set where it is matched at thresholds[k]
    pairs = []
    every_threshold, lowest = (1 << len(thresholds)) - 1, thresholds[0]
    for pi in order:
        row = rows[pi]
        if len(row) > 1:
            row = sorted(row, key=itemgetter(1), reverse=True)  # stable: ties keep row order
        unmatched = every_threshold
        for gi, iou in row:
            if iou < lowest or iou <= 0.0:
                break
            gt_taken = taken.get(gi, 0)
            won = (1 << bisect.bisect_right(thresholds, iou)) - 1 & unmatched & ~gt_taken
            if won:
                taken[gi] = gt_taken | won
                unmatched &= ~won
                if won & 1:
                    pairs.append((pi, gi, iou))
                if not unmatched:
                    break
    # a ground truth is matched at most once per threshold
    masks = Counter(taken.values()).items()
    true_positives = [sum(n for mask, n in masks if mask >> k & 1) for k in range(len(thresholds))]
    return true_positives, pairs


def manual_level_threshold(gt_mask, r: int):
    """Instance-level IoU threshold from expanding the rasterized ground
    truth by r pixels, for one mask or for each mask of a stack over the
    last two axes; 0 for an empty mask.

    The expansion is a superset of the mask, so the IoU reduces to
    |mask| / |expanded mask|. Pixels beyond the last two axes count as
    outside the frame: a frame-window crop gives its frame's value as long
    as it reaches r pixels beyond the mask wherever the frame does.
    """
    if r not in LEVEL_RADII:
        raise ValueError("manual-level expansion must be 2 or 3 pixels")
    m = np.asarray(gt_mask, dtype=bool)
    area = np.count_nonzero(m, axis=(-2, -1))
    expanded = np.count_nonzero(expand_mask(m, r), axis=(-2, -1))
    levels = np.divide(area, expanded, out=np.zeros(np.shape(area)), where=area > 0)
    return levels[()]


@dataclass
class EvalReport:
    """Aggregate metric report; every metric lies in [0, 1]."""

    ap_msk: float
    ap_bdy: float
    manual_level_2px: float
    manual_level_3px: float
    mean_instance_iou: float
    precision_mask: list  # one per IOU_THRESHOLDS
    precision_boundary: list

    def to_dict(self) -> dict:
        return asdict(self)


def evaluate(preds, gts, frame_dims) -> EvalReport:
    """Populate the full report for a prediction set against ground truths.

    ``frame_dims`` is the (width, height) of every image.
    """
    if len(gts) == 0:
        raise ValueError("evaluation needs at least one ground truth")
    d = boundary_distance(frame_dims)
    mask_rows, band_rows = [[] for _ in preds], [[] for _ in preds]
    levels = {r: {} for r in LEVEL_RADII}
    for block in _blocks(_image_groups(preds, gts), preds, gts, frame_dims):
        scored, block_levels = _score_block(block, preds, gts, frame_dims, d)
        for pi, gi, iou, band_iou in scored:
            mask_rows[pi].append((gi, iou))
            band_rows[pi].append((gi, band_iou))
        for r in LEVEL_RADII:
            levels[r].update(block_levels[r])

    order = _score_order(preds)
    precision, first_pairs = {}, {}
    for kind, rows in (("mask", mask_rows), ("boundary", band_rows)):
        true_positives, first_pairs[kind] = _greedy_walks(order, rows, IOU_THRESHOLDS.tolist())
        precision[kind] = [tp / len(preds) if preds else 0.0 for tp in true_positives]

    # the mask match at IOU_THRESHOLDS[0] == 0.5 gives the per-instance IoUs
    # and the manual levels; unmatched ground truths count as failures
    pairs = first_pairs["mask"]
    per_gt_iou = np.zeros(len(gts))
    for _, gi, iou in pairs:
        per_gt_iou[gi] = iou
    manual = {r: sum(iou > levels[r][gi] for _, gi, iou in pairs) / len(gts) for r in LEVEL_RADII}

    return EvalReport(
        ap_msk=float(np.mean(precision["mask"])),
        ap_bdy=float(np.mean(precision["boundary"])),
        manual_level_2px=manual[2],
        manual_level_3px=manual[3],
        mean_instance_iou=float(per_gt_iou.mean()),
        precision_mask=precision["mask"],
        precision_boundary=precision["boundary"],
    )


def _blocks(groups, preds, gts, frame_dims) -> list:
    """The image groups cut into consecutive blocks whose crop stack keeps
    within ``BLOCK_PIXELS``; a group that alone exceeds it is a block. A
    block's stack has the largest :func:`crop_windows` shape of its rings."""
    if not groups:
        return []
    rings = [poly for pis, gis in groups for poly in _group_rings(pis, gis, preds, gts)]
    shapes = iter(crop_windows(rings, *frame_dims, pad=max(LEVEL_RADII))[1].tolist())
    blocks, block, size, box = [], [], 0, (0, 0)
    for group in groups:
        count = len(group[0]) + len(group[1])
        h, w = map(max, zip(*islice(shapes, count)))
        grown = (max(box[0], h), max(box[1], w))
        if block and (size + count) * grown[0] * grown[1] > BLOCK_PIXELS:
            blocks.append(block)
            block, size, grown = [], 0, (h, w)
        block.append(group)
        size, box = size + count, grown
    blocks.append(block)
    return blocks


def _group_rings(pis, gis, preds, gts) -> list:
    return [preds[pi].polygon for pi in pis] + [gts[gi].polygon for gi in gis]


def _score_block(groups, preds, gts, frame_dims, d):
    """(scored, levels) of a block from one crop stack: (pred_index,
    gt_index, mask IoU, band IoU) of each pair of an image whose masks'
    bounding boxes meet, in row order, and {r: {gt_index: manual level}}.

    The other pairs have IoU 0, below every threshold, and are left out.
    """
    rings, pairs, gt_slots, gt_ids = [], [], [], []
    for pis, gis in groups:
        first, n = len(rings), len(pis)
        rings += _group_rings(pis, gis, preds, gts)
        gt_slots += range(first + n, len(rings))
        gt_ids += gis
        pairs += [(first + i, first + n + j, pi, gi) for i, pi in enumerate(pis) for j, gi in enumerate(gis)]
    masks, origins = rasterize(rings, *frame_dims, pad=max(LEVEL_RADII))
    bands = boundary_band(masks, d)
    levels = {r: dict(zip(gt_ids, manual_level_threshold(masks[gt_slots], r).tolist())) for r in LEVEL_RADII}

    area = np.count_nonzero(masks, axis=(1, 2))
    top, left, bottom, right = _mask_boxes(masks, origins)
    pairs = np.array(pairs, dtype=np.int64).reshape(-1, 4)
    a, b = pairs[:, 0], pairs[:, 1]
    meet = (
        (area[a] > 0)
        & (area[b] > 0)
        & (np.maximum(top[a], top[b]) < np.minimum(bottom[a], bottom[b]))
        & (np.maximum(left[a], left[b]) < np.minimum(right[a], right[b]))
    )
    area, band_area = area.tolist(), np.count_nonzero(bands, axis=(1, 2)).tolist()
    shape, origins = masks.shape[1:], origins.tolist()
    scored = []
    for i, j, pi, gi in pairs[meet].tolist():
        sa, sb = _overlap(shape, origins[i], origins[j])
        inter = int(np.count_nonzero(masks[i][sa] & masks[j][sb]))
        band_inter = int(np.count_nonzero(bands[i][sa] & bands[j][sb]))
        scored.append((pi, gi, _iou(inter, area[i], area[j]), _iou(band_inter, band_area[i], band_area[j])))
    return scored, levels


def _mask_boxes(masks, origins):
    """Frame rows [top, bottom) and columns [left, right) of the bounding box
    of each nonempty mask of a crop stack."""
    (h, w), rows, cols = masks.shape[1:], masks.any(axis=2), masks.any(axis=1)
    top = origins[:, 0] + rows.argmax(axis=1)
    bottom = origins[:, 0] + h - rows[:, ::-1].argmax(axis=1)
    left = origins[:, 1] + cols.argmax(axis=1)
    right = origins[:, 1] + w - cols[:, ::-1].argmax(axis=1)
    return top, left, bottom, right
