import numpy as np
import pytest
from conftest import reference_decode_peaks
from scipy import ndimage

from polytrace import detection as det
from polytrace import pipeline
from polytrace.geometry import DensifiedContour, densify

SQUARE = np.array([[40.0, 40.0], [80.0, 40.0], [80.0, 80.0], [40.0, 80.0]])


class TestHeatmapTarget:
    def test_single_center_has_unit_peak(self):
        heat = det.build_heatmap_target([(50.0, 50.0)], [(40, 40)], (128, 128))
        assert heat.shape == (32, 32)
        assert heat.max() == 1.0
        assert heat[12, 12] == 1.0
        assert (heat == 1.0).sum() == 1

    def test_no_centers_all_zero(self):
        heat = det.build_heatmap_target(np.zeros((0, 2)), [], (128, 128))
        assert not heat.any()

    def test_matches_per_pixel_gaussian_max_oracle(self):
        centers = [(20.0, 24.0), (100.0, 90.0)]
        sizes = [(30, 48), (60, 24)]
        heat = det.build_heatmap_target(centers, sizes, (128, 128))
        for i in range(32):
            for j in range(32):
                vals = []
                for (x, y), (w, h) in zip(centers, sizes):
                    u0, v0 = int(x // 4), int(y // 4)
                    sigma = max(1.0, min(w, h) / 24.0)
                    vals.append(np.exp(-((j - u0) ** 2 + (i - v0) ** 2) / (2 * sigma**2)))
                assert heat[i, j] == pytest.approx(max(vals), abs=1e-12)

    def test_center_outside_image_rejected(self):
        with pytest.raises(ValueError):
            det.build_heatmap_target([(200.0, 10.0)], [(10, 10)], (128, 128))


class TestDecodePeaks:
    def test_single_unit_peak(self):
        heat = np.zeros((32, 32))
        heat[5, 7] = 1.0
        cells = det.decode_peaks(heat, threshold=0.2, top_k=200)
        assert cells.tolist() == [[5, 7]]
        assert np.array_equal(det.cell_centers(cells), [((7 + 0.5) * 4, (5 + 0.5) * 4)])
        assert np.array_equal(det.center_cells(det.cell_centers(cells)), ([5], [7]))

    def test_all_below_threshold_empty(self):
        heat = np.full((16, 16), 0.1)
        cells = det.decode_peaks(heat, threshold=0.2, top_k=200)
        assert cells.shape == (0, 2)
        assert det.cell_centers(cells).shape == (0, 2)

    def test_top_k_keeps_largest(self):
        heat = np.zeros((32, 32))
        values = [0.9, 0.8, 0.7, 0.6, 0.5]
        spots = [(4, 4), (4, 20), (16, 4), (16, 20), (28, 28)]
        for v, (r, c) in zip(values, spots):
            heat[r, c] = v
        cells = det.decode_peaks(heat, threshold=0.2, top_k=3)
        assert cells.tolist() == [list(spot) for spot in spots[:3]]
        assert heat[cells[:, 0], cells[:, 1]].tolist() == values[:3]

    def test_sorted_descending_and_row_major_on_ties(self):
        heat = np.zeros((16, 16))
        heat[8, 2] = 0.5
        heat[2, 8] = 0.5
        heat[12, 12] = 0.9
        cells = det.decode_peaks(heat, threshold=0.2, top_k=200)
        assert cells.tolist() == [[12, 12], [2, 8], [8, 2]]

    def test_roundtrip_with_target_recovers_centers(self, rng):
        for _ in range(20):
            centers = []
            while len(centers) < 3:
                cand = rng.uniform(8, 120, size=2)
                if all(np.linalg.norm(cand - c) >= 12 for c in centers):
                    centers.append(cand)
            heat = det.build_heatmap_target(centers, [(24, 24)] * 3, (128, 128))
            found = det.cell_centers(det.decode_peaks(heat, threshold=0.2, top_k=10))
            for c in centers:
                assert np.linalg.norm(found - c, axis=1).min() <= 2 * np.sqrt(2) + 1e-9

    def test_matches_reference_with_many_subthreshold_peaks(self, rng):
        # quantized low noise has hundreds of local maxima below the
        # threshold, and the spots above it tie
        for _ in range(20):
            heat = rng.integers(0, 8, (48, 48)) / 20.0
            spots = rng.integers(0, 48, (15, 2))
            heat[spots[:, 0], spots[:, 1]] = rng.choice([0.6, 0.6, 0.8, 0.9], 15)
            neighborhood = ndimage.maximum_filter(heat, size=3, mode="constant", cval=-np.inf)
            assert np.count_nonzero((heat >= neighborhood) & (heat <= 0.4)) >= 100
            for threshold in (0.4, 0.6, 0.85):
                for top_k in (3, 50, 200, 2500):
                    cells = det.decode_peaks(heat, threshold, top_k)
                    got = zip(det.cell_centers(cells).tolist(), heat[cells[:, 0], cells[:, 1]].tolist())
                    expected = reference_decode_peaks(heat, threshold, top_k)
                    assert list(got) == [(position.tolist(), score) for position, score in expected]


class TestGridCells:
    def test_center_cells_inverts_cell_centers(self):
        cells = np.argwhere(np.ones((32, 32)))
        rows, cols = det.center_cells(det.cell_centers(cells))
        assert np.array_equal(np.stack([rows, cols], axis=1), cells)

    @pytest.mark.parametrize("shift", [0.0, -1e-9])
    def test_heatmap_peak_cell_is_center_cell_on_borders(self, shift):
        # a center on a cell border, or just before it, peaks where center_cells puts it
        for k in range(1, 32):
            center = np.array([4.0 * k + shift, 4.0 * (32 - k) + shift])
            heat = det.build_heatmap_target([center], [(24, 24)], (128, 128))
            assert np.array_equal(np.nonzero(heat == 1.0), det.center_cells(center))


def compose(center, offsets):
    """The initial contour :func:`pipeline.initial_contours` composes from
    the (N, 2) stride-4 ``offsets`` of one ``center``."""
    return pipeline.initial_contours(offsets.reshape(1, -1), center)[0]


def offset_targets(gt, center):
    """Stride-4 offsets that compose back to the (N, 2) ring ``gt``."""
    return (gt - center) / (pipeline.EXPANSION_FACTOR * det.STRIDE)


class TestInitialContour:
    def test_zero_offsets_collapse_to_center(self):
        contour = compose(np.array([10.0, 20.0]), np.zeros((64, 2)))
        assert np.allclose(contour, [10.0, 20.0])

    def test_offset_arithmetic(self):
        # one stride-4 offset of 0.025 is 0.1 full-resolution pixels
        off = np.zeros((8, 2))
        off[0, 0] = 0.025
        contour = compose(np.array([10.0, 10.0]), off)
        assert np.allclose(contour[0], (11.0, 10.0))
        assert np.allclose(contour[1], (10.0, 10.0))

    def test_compose_inverts_targets(self):
        gt = densify(SQUARE, 64)
        center = np.array([57.0, 63.0])
        off = offset_targets(gt.points, center)
        back = compose(center, off)
        assert np.max(np.abs(back - gt.points)) < 1e-12

    def test_gt_at_center_gives_zero_offsets(self):
        gt = DensifiedContour(np.tile([30.0, 40.0], (8, 1)))
        off = offset_targets(gt.points, np.array([30.0, 40.0]))
        assert not off.any()

    def test_square_offsets_antisymmetric(self):
        gt = densify(SQUARE, 64)
        center = np.array([60.0, 60.0])  # bbox center of the square
        off = offset_targets(gt.points, center)
        assert np.allclose(off, -np.roll(off, 32, axis=0), atol=1e-12)
