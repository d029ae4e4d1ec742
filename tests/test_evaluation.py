import numpy as np
import pytest
from scipy import ndimage

from polytrace import evaluation as ev
from polytrace.geometry import crop_windows, expand_mask, rasterize

from conftest import (
    frame_mask,
    reference_boundary_band,
    reference_evaluate,
    reference_greedy_match,
    reference_manual_level,
    reference_rasterize,
)

FRAME = (256, 256)


def rect(x0, y0, x1, y1):
    return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=float)


def band_oracle(mask, d):
    """Chebyshev distance-to-boundary band by explicit distance computation."""
    if not mask.any():
        return np.zeros_like(mask)
    h, w = mask.shape
    ii, jj = np.nonzero(mask)
    boundary = []
    for i, j in zip(ii, jj):
        neigh = mask[max(i - 1, 0) : i + 2, max(j - 1, 0) : j + 2]
        if neigh.size < 9 or not neigh.all():
            boundary.append((i, j))
    boundary = np.array(boundary)
    pix = np.column_stack([ii, jj])
    cheb = np.abs(pix[:, None, :] - boundary[None, :, :]).max(axis=2).min(axis=1)
    band = np.zeros_like(mask)
    keep = cheb <= d
    band[pix[keep, 0], pix[keep, 1]] = True
    return band


def boundary_iou(a, b, frame):
    """IoU of the two polygons' boundary bands, the band width a fraction of
    the frame diagonal: the IoU that ``evaluate`` reports as AP_bdy."""
    d = ev.boundary_distance(frame)
    return ev.masks_iou(ev.boundary_band(frame_mask(a, *frame), d), ev.boundary_band(frame_mask(b, *frame), d))


def memoized(iou_fn):
    """The IoU function, computed once per (prediction, ground truth) pair."""
    cache = {}

    def iou(pred, gt):
        key = (id(pred), id(gt))
        if key not in cache:
            cache[key] = iou_fn(pred, gt)
        return cache[key]

    return iou


def reference_report(preds, gts, frame):
    """The report from the public pieces: one match_instances call per IoU
    threshold and kind, and manual thresholds per ground truth."""
    gt_masks = [frame_mask(g.polygon, *frame) for g in gts]
    kinds = {
        "msk": memoized(lambda p, g: ev.mask_iou(p.polygon, g.polygon, frame)),
        "bdy": memoized(lambda p, g: boundary_iou(p.polygon, g.polygon, frame)),
    }
    out = {}
    for kind, iou_fn in kinds.items():
        results = [ev.match_instances(preds, gts, iou_fn, float(t)) for t in ev.IOU_THRESHOLDS]
        precision = [len(r.pairs) / len(preds) if preds else 0.0 for r in results]
        out[f"precision_{kind}"] = precision
        out[f"ap_{kind}"] = float(np.mean(precision))
    match = ev.match_instances(preds, gts, kinds["msk"], 0.5)
    per_gt = np.zeros(len(gts))
    for _, gi, iou in match.pairs:
        per_gt[gi] = iou
    for r in (2, 3):
        hits = sum(iou > ev.manual_level_threshold(gt_masks[gi], r) for _, gi, iou in match.pairs)
        out[f"manual_level_{r}px"] = hits / len(gts)
    out["mean_instance_iou"] = float(per_gt.mean())
    out["precision_mask"] = out.pop("precision_msk")
    out["precision_boundary"] = out.pop("precision_bdy")
    return out


def seeded_multi_image_set(seed):
    """Four images of overlapping rectangles, some large; predictions are
    jittered copies, duplicates and strays with tied scores, one of them in
    an image without ground truths."""
    rng = np.random.default_rng(seed)
    gts, preds = [], []
    for image_id in range(4):
        for _ in range(rng.integers(2, 5)):
            x0, y0 = rng.uniform(5, 120, 2)
            w, h = rng.uniform(20, 120, 2)
            gts.append(ev.GroundTruth(rect(x0, y0, x0 + w, y0 + h), image_id))
    for gt in gts:
        for _ in range(rng.integers(0, 3)):
            poly = gt.polygon + rng.normal(0.0, 3.0, gt.polygon.shape)
            preds.append(ev.InstancePrediction(poly, float(rng.choice([0.5, 0.7, 0.9])), gt.image_id))
    preds.append(ev.InstancePrediction(rect(200, 200, 240, 240), 0.7, 1))
    preds.append(ev.InstancePrediction(gts[0].polygon, 0.9, 7))
    return preds, gts


def random_ring(rng, frame):
    """A rectangle, rotated rectangle or noisy ellipse anywhere around the
    frame, some cut by its edge."""
    center = rng.uniform(-10.0, 10.0, 2) + rng.uniform(0.0, 1.0, 2) * frame
    half = rng.uniform(1.0, 30.0, 2)
    kind = rng.integers(0, 3)
    if kind == 2:
        t = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
        return center + half * np.column_stack([np.cos(t), np.sin(t)]) + rng.normal(0.0, 0.5, (32, 2))
    corners = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]) * half
    if kind == 1:
        a = rng.uniform(0.0, np.pi)
        corners = corners @ np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    return center + corners


def random_multi_image_set(rng, n_images, frame):
    """Ground truths in the first images, jittered, shifted and duplicated
    predictions with tied scores, strays, predictions in images without
    ground truths, and images with ground truths only."""
    gts, preds = [], []
    for image_id in range(n_images):
        for _ in range(rng.integers(1, 6)):
            gts.append(ev.GroundTruth(random_ring(rng, frame), image_id))
    for gt in gts:
        for _ in range(rng.integers(0, 3)):
            poly = gt.polygon + rng.normal(0.0, 1.5, gt.polygon.shape) + rng.normal(0.0, 2.0, 2)
            preds.append(ev.InstancePrediction(poly, float(rng.choice([0.5, 0.7, 0.9])), gt.image_id))
    for _ in range(n_images):
        image_id = int(rng.integers(0, n_images + 3))
        preds.append(ev.InstancePrediction(random_ring(rng, frame), float(rng.uniform(0.1, 1.0)), image_id))
    order = rng.permutation(len(preds))
    return [preds[i] for i in order], gts


class TestMaskIou:
    def test_matches_full_frame_masks_at_frame_edges(self, rng):
        frame = np.array([96, 64])
        for _ in range(200):
            a, b = random_ring(rng, frame), random_ring(rng, frame)
            if rng.random() < 0.5:
                b = a + rng.normal(0.0, 2.0, 2)
            expected = ev.masks_iou(reference_rasterize(a, *frame), reference_rasterize(b, *frame))
            assert ev.mask_iou(a, b, tuple(frame)) == expected

    def test_identical_is_one(self):
        a = rect(10, 10, 60, 60)
        assert ev.mask_iou(a, a.copy(), FRAME) == 1.0

    def test_disjoint_is_zero(self):
        assert ev.mask_iou(rect(10, 10, 40, 40), rect(100, 100, 140, 140), FRAME) == 0.0

    def test_nested_aligned_squares(self):
        outer = rect(20, 20, 30, 30)
        inner = rect(20, 20, 25, 25)
        assert ev.mask_iou(outer, inner, FRAME) == 0.25

    def test_symmetric_and_translation_invariant(self):
        a = rect(10, 12, 57, 49)
        b = rect(30, 20, 80, 70)
        assert ev.mask_iou(a, b, FRAME) == ev.mask_iou(b, a, FRAME)
        assert ev.mask_iou(a + 13, b + 13, FRAME) == ev.mask_iou(a, b, FRAME)


class TestBoundaryIou:
    def test_identical_is_one(self):
        a = rect(30, 30, 90, 95)
        assert boundary_iou(a, a.copy(), FRAME) == 1.0

    def test_thin_shapes_reduce_to_mask_iou(self):
        # 3-pixel-wide bars are entirely within the band at any d >= 2
        a = rect(10, 10, 120, 13)
        b = rect(15, 10, 126, 13)
        assert boundary_iou(a, b, FRAME) == ev.mask_iou(a, b, FRAME)

    def test_concentric_squares_match_pixel_oracle(self):
        frame = (512, 512)
        d = ev.boundary_distance(frame)
        assert d == round(0.01 * np.hypot(512, 512))
        a = rect(200, 200, 300, 300)
        b = rect(201, 201, 299, 299)
        got = boundary_iou(a, b, frame)
        ma = frame_mask(a, *frame)
        mb = frame_mask(b, *frame)
        band_a = band_oracle(ma, d)
        band_b = band_oracle(mb, d)
        inter = np.count_nonzero(band_a & band_b)
        union = np.count_nonzero(band_a | band_b)
        assert got == inter / union

    def test_band_helper_matches_oracle_at_fixed_d(self):
        masks = [frame_mask(rect(50, 40, 150, 138), 200, 200)]
        # on a small frame: an empty mask, the full frame, and boxes flush
        # with each edge and corner, each with one pixel cut from a corner
        h, w = 24, 32
        masks += [np.zeros((h, w), dtype=bool), np.ones((h, w), dtype=bool)]
        for rows in (slice(0, 9), slice(8, 17), slice(h - 9, h), slice(0, h)):
            for cols in (slice(0, 11), slice(10, 21), slice(w - 11, w), slice(0, w)):
                mask = np.zeros((h, w), dtype=bool)
                mask[rows, cols] = True
                mask[rows.start, cols.stop - 1] = False
                masks.append(mask)
        for mask in masks:
            for d in (2, 5):
                assert np.array_equal(ev.boundary_band(mask, d), band_oracle(mask, d))

    @pytest.mark.parametrize("d", (1, 2, 3))
    def test_band_matches_scipy_erosion_and_oracle(self, d, rng):
        h, w = 19, 26
        masks = [np.zeros((h, w), dtype=bool), np.ones((h, w), dtype=bool)]
        masks += [rng.random((h, w)) > p for p in (0.2, 0.6, 0.95)]
        for i, j in ((0, 0), (0, 13), (h - 1, w - 1), (9, 0), (9, 13), (h - 1, 5)):
            mask = np.zeros((h, w), dtype=bool)
            mask[i, j] = True
            masks.append(mask)
        for rows, cols in ((slice(0, 6), slice(4, 15)), (slice(h - 7, h), slice(2, 20)),
                           (slice(3, 16), slice(0, 5)), (slice(2, 12), slice(w - 9, w))):
            mask = np.zeros((h, w), dtype=bool)
            mask[rows, cols] = True
            mask[rows.start + 2, cols.start + 2] = False  # a hole
            masks.append(mask)
        masks += [np.ones((1, 7), dtype=bool), np.ones((7, 1), dtype=bool)]
        for mask in masks:
            interior = ndimage.binary_erosion(mask, structure=np.ones((3, 3), dtype=bool), border_value=0)
            square = np.ones((2 * d + 1, 2 * d + 1), dtype=bool)
            expected = mask & ndimage.binary_dilation(mask & ~interior, structure=square)
            band = ev.boundary_band(mask, d)
            assert np.array_equal(band, expected)
            assert np.array_equal(band, band_oracle(mask, d))

    @pytest.mark.parametrize("d", (1, 2, 3))
    def test_stack_band_matches_each_slice(self, d, rng):
        stack = rng.random((6, 17, 23)) > 0.4
        stack[0] = False
        stack[1] = True
        stack[2, 5:9, 0:4] = True
        band = ev.boundary_band(stack, d)
        assert band.shape == stack.shape and band.dtype == bool
        for mask, got in zip(stack, band):
            assert np.array_equal(got, reference_boundary_band(mask, d))
            assert np.array_equal(got, ev.boundary_band(mask, d))

    def test_bounded(self):
        v = boundary_iou(rect(10, 10, 50, 50), rect(30, 30, 70, 70), FRAME)
        assert 0.0 <= v <= 1.0


class TestMatchInstances:
    def iou(self, pred, gt):
        return ev.mask_iou(pred.polygon, gt.polygon, FRAME)

    def test_exact_match_single(self):
        gt = [ev.GroundTruth(rect(10, 10, 50, 50))]
        pred = [ev.InstancePrediction(rect(10, 10, 50, 50), 0.9)]
        for thr in (0.5, 0.75, 0.95):
            res = ev.match_instances(pred, gt, self.iou, thr)
            assert (len(res.pairs), len(pred) - len(res.pairs), len(gt) - len(res.pairs)) == (1, 0, 0)

    def test_two_predictions_one_gt(self):
        gt = [ev.GroundTruth(rect(10, 10, 50, 50))]
        preds = [
            ev.InstancePrediction(rect(10, 10, 50, 50), 0.8),
            ev.InstancePrediction(rect(10, 10, 50, 48), 0.9),
        ]
        res = ev.match_instances(preds, gt, self.iou, 0.5)
        assert len(res.pairs) == 1 and len(preds) - len(res.pairs) == 1
        # the higher-scoring prediction claims the ground truth
        assert res.pairs[0][0] == 1
        # on tied scores the earlier prediction does, despite its lower IoU
        tied = [ev.InstancePrediction(rect(10, 10, 50, 48), 0.9), ev.InstancePrediction(rect(10, 10, 50, 50), 0.9)]
        assert ev.match_instances(tied, gt, self.iou, 0.5).pairs[0][0] == 0

    def test_matches_exhaustive_oracle(self):
        gts = [ev.GroundTruth(rect(10, 10, 50, 50)), ev.GroundTruth(rect(70, 70, 120, 120))]
        preds = [
            ev.InstancePrediction(rect(12, 10, 50, 50), 0.6),
            ev.InstancePrediction(rect(70, 70, 118, 120), 0.9),
            ev.InstancePrediction(rect(9, 10, 50, 52), 0.8),
        ]
        res = ev.match_instances(preds, gts, self.iou, 0.5)
        # oracle: walk predictions in score order by hand
        iou_mat = np.array([[self.iou(p, g) for g in gts] for p in preds])
        taken = set()
        expected = []
        for pi in (1, 2, 0):  # descending score
            cands = [(iou_mat[pi, gi], -gi) for gi in range(2) if gi not in taken and iou_mat[pi, gi] >= 0.5]
            if cands:
                best = max(cands)
                gi = -best[1]
                taken.add(gi)
                expected.append((pi, gi))
        assert [(p, g) for p, g, _ in res.pairs] == expected


    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_walk_on_random_ious(self, seed):
        rng = np.random.default_rng(seed)
        n_preds, n_gts = 12, 6
        image_ids = rng.integers(0, 2, size=n_preds + n_gts)
        scores = rng.choice([0.5, 0.7, 0.9], size=n_preds)  # tied scores keep input order
        preds = [ev.InstancePrediction(rect(0, 0, 1, 1), float(s), int(i)) for s, i in zip(scores, image_ids)]
        gts = [ev.GroundTruth(rect(0, 0, 1, 1), int(i)) for i in image_ids[n_preds:]]
        table = rng.choice([0.0, 0.4, 0.5, 0.8, 0.8, 1.0], size=(n_preds, n_gts))
        index = {id(x): i for i, x in enumerate(preds + gts)}
        iou_fn = lambda p, g: float(table[index[id(p)], index[id(g)] - n_preds])
        rows = [
            [(gi, iou_fn(p, gts[gi])) for gi in range(n_gts) if gts[gi].image_id == p.image_id] for p in preds
        ]
        order = sorted(range(n_preds), key=lambda i: (-preds[i].score, i))
        for threshold in (0.5, 0.75):
            want = reference_greedy_match(order, rows, n_gts, threshold)
            assert ev.match_instances(preds, gts, iou_fn, threshold) == want

    def test_identical_polygon_in_another_image_is_unmatched(self):
        gts = [ev.GroundTruth(rect(10, 10, 50, 50), image_id=0), ev.GroundTruth(rect(70, 70, 120, 120), image_id=1)]
        preds = [ev.InstancePrediction(rect(10, 10, 50, 50), 0.9, image_id=1)]
        res = ev.match_instances(preds, gts, self.iou, 0.5)
        assert res.pairs == [] and len(preds) - len(res.pairs) == 1
        report = ev.evaluate(preds, gts, FRAME)
        assert report.ap_msk == 0.0 and report.ap_bdy == 0.0 and report.mean_instance_iou == 0.0


class TestGreedyWalks:
    """The one walk over every threshold against one
    ``conftest.reference_greedy_match`` walk per threshold."""

    def per_threshold(self, order, rows, n_gts, thresholds):
        matches = [reference_greedy_match(order, rows, n_gts, t) for t in thresholds]
        return [len(m.pairs) for m in matches], matches[0].pairs

    @staticmethod
    def random_rows(seed):
        rng = np.random.default_rng(seed)
        n_preds, n_gts = int(rng.integers(1, 30)), int(rng.integers(1, 12))
        # few distinct IoUs, some exactly at a threshold, give ties in rows
        # and across predictions
        levels = np.array([0.0, 0.3, 0.5, 0.55, 0.6, 0.62, 0.75, 0.9, 0.95, 1.0])
        rows = []
        for _ in range(n_preds):
            gis = np.sort(rng.choice(n_gts, size=int(rng.integers(0, n_gts + 1)), replace=False))
            rows.append([(int(gi), float(rng.choice(levels))) for gi in gis])
        return rng.permutation(n_preds).tolist(), rows, n_gts

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_per_threshold_walks_with_ties(self, seed):
        order, rows, n_gts = self.random_rows(seed)
        thresholds = ev.IOU_THRESHOLDS.tolist()
        assert ev._greedy_walks(order, rows, thresholds) == self.per_threshold(order, rows, n_gts, thresholds)

    @pytest.mark.parametrize("seed", range(10))
    def test_one_threshold_walk_matches_reference(self, seed):
        order, rows, n_gts = self.random_rows(seed)
        for threshold in (0.0, 0.5, 0.6, 0.75, 1.0):
            want = reference_greedy_match(order, rows, n_gts, threshold)
            assert ev._greedy_walks(order, rows, [threshold]) == ([len(want.pairs)], want.pairs)

    def test_tied_ious_go_to_the_first_in_the_row(self):
        rows = [[(2, 0.8), (0, 0.8), (1, 0.7)], [(0, 0.8), (2, 0.8)]]
        thresholds = [0.5, 0.75, 0.8, 0.85]
        true_positives, pairs = ev._greedy_walks([0, 1], rows, thresholds)
        assert pairs == [(0, 2, 0.8), (1, 0, 0.8)]
        assert true_positives == [2, 2, 2, 0]
        assert (true_positives, pairs) == self.per_threshold([0, 1], rows, 3, thresholds)

    def test_a_threshold_of_zero_still_needs_a_positive_iou(self):
        rows = [[(0, 0.0)], [(0, 0.4), (1, 0.0)]]
        assert ev._greedy_walks([0, 1], rows, [0.0, 0.5]) == ([1, 0], [(1, 0, 0.4)])
        assert ev._greedy_walks([0, 1], rows, [0.0, 0.5]) == self.per_threshold([0, 1], rows, 2, [0.0, 0.5])


class TestAveragePrecision:
    def ap_msk(self, preds, gts):
        return ev.evaluate(preds, gts, FRAME).ap_msk

    def test_single_090_detection_scores_09(self):
        gt = [ev.GroundTruth(rect(10, 10, 110, 110))]
        pred = [ev.InstancePrediction(rect(10, 10, 110, 100), 0.9)]
        assert ev.mask_iou(pred[0].polygon, gt[0].polygon, FRAME) == 0.9
        assert self.ap_msk(pred, gt) == 0.9

    def test_perfect_predictions(self):
        gts = [ev.GroundTruth(rect(10, 10, 60, 60)), ev.GroundTruth(rect(100, 100, 180, 180))]
        preds = [ev.InstancePrediction(g.polygon.copy(), 0.9) for g in gts]
        assert self.ap_msk(preds, gts) == 1.0

    def test_no_predictions_is_zero(self):
        gts = [ev.GroundTruth(rect(10, 10, 60, 60))]
        assert self.ap_msk([], gts) == 0.0

    def test_empty_gts_rejected(self):
        with pytest.raises(ValueError):
            self.ap_msk([], [])

    def test_monotone_in_iou(self):
        gt = [ev.GroundTruth(rect(10, 10, 110, 110))]
        values = []
        for x1 in (60, 80, 100, 110):
            pred = [ev.InstancePrediction(rect(10, 10, x1, 110), 0.9)]
            values.append(self.ap_msk(pred, gt))
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestManualLevel:
    def test_square_thresholds(self):
        mask = frame_mask(rect(10, 10, 110, 110), 512, 512)
        assert ev.manual_level_threshold(mask, 2) == pytest.approx(10000 / 10816, abs=1e-9)
        assert ev.manual_level_threshold(mask, 3) == pytest.approx(10000 / 11236, abs=1e-9)

    def test_threshold_increases_with_size(self):
        masks = [frame_mask(rect(10, 10, 10 + s, 10 + s), 512, 512) for s in (20, 40, 80, 160)]
        values = [ev.manual_level_threshold(mask, 2) for mask in masks]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_r3_below_r2(self):
        mask = frame_mask(rect(10, 10, 87, 73), *FRAME)
        assert ev.manual_level_threshold(mask, 3) < ev.manual_level_threshold(mask, 2)

    def test_bad_radius_rejected(self):
        with pytest.raises(ValueError):
            ev.manual_level_threshold(frame_mask(rect(0, 0, 10, 10), *FRAME), 4)

    @pytest.mark.parametrize("r", [2, 3])
    def test_stack_levels_match_each_slice(self, r, rng):
        stack = rng.random((6, 19, 14)) > 0.9
        stack[0] = False
        stack[1] = True
        stack[2, :3, :3] = True
        levels = ev.manual_level_threshold(stack, r)
        assert levels.shape == (6,)
        assert levels.tolist() == [reference_manual_level(mask, r) for mask in stack]
        assert levels[0] == 0.0 and levels[1] == 1.0

    @pytest.mark.parametrize("r", [2, 3])
    def test_masks_at_frame_edges_match_full_frame_dilation(self, r):
        h, w = 24, 32
        masks = [np.zeros((h, w), dtype=bool)]
        # boxes flush with each edge and corner, one a pixel short of an edge,
        # one covering the frame; every slice is (rows, cols)
        for rows in (slice(0, 5), slice(9, 14), slice(h - 5, h), slice(0, h), slice(1, 6)):
            for cols in (slice(0, 7), slice(12, 19), slice(w - 7, w), slice(0, w), slice(w - 8, w - 1)):
                mask = np.zeros((h, w), dtype=bool)
                mask[rows, cols] = True
                mask[rows.start, cols.stop - 1] = False  # not a full rectangle
                masks.append(mask)
        for mask in masks:
            area = np.count_nonzero(mask)
            expected = area / np.count_nonzero(expand_mask(mask, r)) if area else 0.0
            assert ev.manual_level_threshold(mask, r) == expected


class TestEvaluate:
    def build_scene(self):
        gts = [
            ev.GroundTruth(rect(10, 10, 60, 60), image_id=0),
            ev.GroundTruth(rect(100, 100, 200, 200), image_id=0),
            ev.GroundTruth(rect(20, 20, 50, 110), image_id=1),
            ev.GroundTruth(rect(30, 30, 130, 140), image_id=2),
        ]
        preds = [
            ev.InstancePrediction(rect(10, 10, 60, 60), 0.9, image_id=0),     # IoU 1.0
            ev.InstancePrediction(rect(100, 100, 190, 200), 0.8, image_id=0),  # IoU 0.9
            ev.InstancePrediction(rect(20, 20, 50, 110), 0.7, image_id=1),    # IoU 1.0
            ev.InstancePrediction(rect(150, 150, 180, 180), 0.6, image_id=1),  # spurious
        ]
        return preds, gts

    def test_perfect_predictions_report_all_ones(self):
        gts = [
            ev.GroundTruth(rect(10, 10, 60, 60), image_id=0),
            ev.GroundTruth(rect(100, 100, 201, 201), image_id=0),
        ]
        preds = [ev.InstancePrediction(g.polygon.copy(), 0.9, image_id=0) for g in gts]
        report = ev.evaluate(preds, gts, FRAME)
        assert report.ap_msk == 1.0
        assert report.ap_bdy == 1.0
        assert report.manual_level_2px == 1.0
        assert report.manual_level_3px == 1.0
        assert report.mean_instance_iou == 1.0

    def test_no_predictions_report_all_zero(self):
        gts = [ev.GroundTruth(rect(10, 10, 60, 60))]
        report = ev.evaluate([], gts, FRAME)
        for value in (
            report.ap_msk, report.ap_bdy, report.manual_level_2px,
            report.manual_level_3px, report.mean_instance_iou,
        ):
            assert value == 0.0

    def test_golden_mixed_scene(self):
        preds, gts = self.build_scene()
        report = ev.evaluate(preds, gts, FRAME)
        # per-instance IoUs: 1.0, 0.9, 1.0, spurious, one missed gt
        # mask AP: thresholds .50-.90 match 3 of 4 preds; .95 matches 2 of 4
        assert report.ap_msk == pytest.approx((9 * 0.75 + 0.5) / 10)
        # manual level: IoU 0.9 beats the 3px threshold 10000/11236 but not
        # the 2px threshold 10000/10816; exact matches beat both; missed fails
        assert report.manual_level_2px == pytest.approx(2 / 4)
        assert report.manual_level_3px == pytest.approx(3 / 4)
        assert report.mean_instance_iou == pytest.approx((1.0 + 0.9 + 1.0 + 0.0) / 4)
        assert report.precision_mask == pytest.approx([0.75] * 9 + [0.5])
        # boundary-side fields against the pixel band oracle
        d = ev.boundary_distance(FRAME)
        ious = []
        for p, g in [(0, 0), (1, 1), (2, 2)]:
            ma = band_oracle(frame_mask(preds[p].polygon, *FRAME), d)
            mg = band_oracle(frame_mask(gts[g].polygon, *FRAME), d)
            ious.append(np.count_nonzero(ma & mg) / np.count_nonzero(ma | mg))
        assert ious[0] == 1.0 and ious[2] == 1.0
        per_thr = [(2 + (ious[1] >= t)) / 4 for t in ev.IOU_THRESHOLDS]
        assert report.ap_bdy == pytest.approx(np.mean(per_thr))
        assert report.precision_boundary == pytest.approx(per_thr)

    def test_ap_is_the_mean_of_the_precision_list(self):
        preds, gts = self.build_scene()
        report = ev.evaluate(preds, gts, FRAME)
        assert report.ap_msk == float(np.mean(report.precision_mask))
        assert report.ap_bdy == float(np.mean(report.precision_boundary))
        assert report.ap_msk == reference_report(preds, gts, FRAME)["ap_msk"]

    @pytest.mark.parametrize("seed", [2, 3])
    def test_matches_reference_from_public_pieces(self, seed):
        preds, gts = seeded_multi_image_set(seed)
        scores = [p.score for p in preds]
        assert len(set(scores)) < len(scores)
        report = ev.evaluate(preds, gts, FRAME)
        assert report.to_dict() == reference_report(preds, gts, FRAME)

    @pytest.mark.parametrize("block_pixels", [ev.BLOCK_PIXELS, 20_000, 1])
    def test_matches_reference_evaluate_across_blocks(self, block_pixels, monkeypatch, rng):
        """Reports equal to the full-frame reference over many images, one
        ``rasterize`` call per block, whatever the block size."""
        frame = (128, 96)
        monkeypatch.setattr(ev, "BLOCK_PIXELS", block_pixels)
        calls = []
        raster = ev.rasterize
        monkeypatch.setattr(ev, "rasterize", lambda *a, **k: calls.append(len(a[0])) or raster(*a, **k))
        for n_images in (1, 3, 12, 40):
            preds, gts = random_multi_image_set(rng, n_images, frame)
            for subset in (preds, preds[: len(preds) // 3], []):
                calls.clear()
                report = ev.evaluate(subset, gts, frame)
                assert report.to_dict() == reference_evaluate(subset, gts, frame).to_dict()
                groups = ev._image_groups(subset, gts)
                assert sum(calls) == sum(len(p) + len(g) for p, g in groups)
                if block_pixels == 1:
                    assert len(calls) == len(groups)
                if block_pixels == 20_000 and subset is preds and n_images == 40:
                    assert len(calls) > 1
        assert ev.evaluate(preds, gts, frame).ap_msk > 0.0

    @pytest.mark.parametrize("block_pixels", [ev.BLOCK_PIXELS, 20_000])
    def test_blocks_keep_their_stack_within_the_cap(self, block_pixels, monkeypatch, rng):
        """The crop stack of each block, rasterized as evaluate does, holds
        at most ``BLOCK_PIXELS`` pixels unless the block is one image, and
        has the largest of the crop shapes the block was planned with."""
        frame, pad = (128, 96), max(ev.LEVEL_RADII)
        monkeypatch.setattr(ev, "BLOCK_PIXELS", block_pixels)
        planned = []
        monkeypatch.setattr(ev, "crop_windows", lambda *a, **k: planned.append(crop_windows(*a, **k)) or planned[-1])
        for n_images in (3, 12, 40):
            preds, gts = random_multi_image_set(rng, n_images, frame)
            planned.clear()
            blocks = ev._blocks(ev._image_groups(preds, gts), preds, gts, frame)
            (_, shapes), start = planned[0], 0
            for block in blocks:
                rings = [poly for pis, gis in block for poly in ev._group_rings(pis, gis, preds, gts)]
                masks, _ = rasterize(rings, *frame, pad=pad)
                assert masks.size <= block_pixels or len(block) == 1
                assert masks.shape[1:] == tuple(shapes[start : start + len(rings)].max(axis=0))
                start += len(rings)
            assert start == len(shapes)
            if block_pixels == 20_000 and n_images == 40:
                assert len(blocks) > 1

    def test_report_roundtrip_and_table(self):
        preds, gts = self.build_scene()
        report = ev.evaluate(preds, gts, FRAME)
        fields = report.to_dict()
        assert ev.EvalReport(**fields) == report
        assert "manual_level_2px" in fields
        assert len(fields["precision_mask"]) == len(fields["precision_boundary"]) == len(ev.IOU_THRESHOLDS)

    def test_empty_gts_rejected(self):
        with pytest.raises(ValueError):
            ev.evaluate([], [], FRAME)
