import re

import numpy as np
import pytest
from conftest import frame_mask, reference_feature_provider, reference_generate_scene
from scipy import ndimage

from polytrace import synth, training
from polytrace.config import RunConfig
from polytrace.geometry import _shoelace, densify


class ScriptedRng:
    """Stands in for a Generator in the shape makers: each ``uniform`` or
    ``integers`` call returns the next scripted value."""

    def __init__(self, *values):
        self.values = list(values)

    def uniform(self, low, high):
        value = self.values.pop(0)
        assert low <= value <= high
        return value

    def integers(self, low, high):
        value = self.values.pop(0)
        assert low <= value < high
        return value


def maker_settings(spec):
    """(maker, scripted draws) at both ends of ``size_range``, at rotations
    0, pi/4 and just below pi/2, at notch fractions 0.3 and 0.45 and at all
    four L corners."""
    sizes = spec.size_range
    thetas = (0.0, np.pi / 4, np.nextafter(np.pi / 2, 0.0))
    for w in sizes:
        for h in sizes:
            yield synth._make_rect, (w, h)
            for theta in thetas:
                yield synth._make_rot_rect, (w, h, theta)
            for fw in (0.3, 0.45):
                for fh in (0.3, 0.45):
                    for corner in range(4):
                        yield synth._make_l_shape, (w, h, fw, fh, corner)


def assert_densifiable(poly):
    # as placed by generate_scene: shifted to the frame margin, then further
    for shift in (0.0, synth.MARGIN, 37.25):
        placed = poly - poly.min(axis=0) + shift
        for n in (8, 64):
            assert densify(placed, n).points.shape == (n, 2)


class TestGenerateScene:
    def test_same_seed_bit_identical(self):
        a = synth.generate_scene(7)
        b = synth.generate_scene(7)
        assert np.array_equal(a.image, b.image)
        assert len(a.buildings) == len(b.buildings)
        for pa, pb in zip(a.buildings, b.buildings):
            assert np.array_equal(pa, pb)

    def test_different_seeds_differ(self):
        a = synth.generate_scene(7)
        b = synth.generate_scene(8)
        assert not np.array_equal(a.image, b.image)

    def test_single_building_single_region(self):
        spec = synth.SceneSpec(n_buildings=(1, 1), noise_sigma=0.0)
        scene = synth.generate_scene(3, spec)
        assert len(scene.buildings) == 1
        background = scene.image.min()
        fg = scene.image > background + 40
        _, n_regions = ndimage.label(fg)
        assert n_regions == 1

    def test_polygon_areas_within_size_range(self):
        spec = synth.SceneSpec(size_range=(20.0, 40.0))
        for seed in range(10):
            scene = synth.generate_scene(seed, spec)
            for poly in scene.buildings:
                area = abs(_shoelace(poly))
                # smallest possible: L-shape with 45% of both sides notched
                assert area >= 20.0 * 20.0 * (1 - 0.45 * 0.45) - 1e-6
                assert area <= 40.0 * 40.0 + 1e-6

    def test_buildings_clockwise_inside_frame_disjoint(self):
        for seed in range(8):
            scene = synth.generate_scene(seed)
            h, w = scene.image.shape
            masks = []
            for poly in scene.buildings:
                assert _shoelace(poly) > 0
                assert poly[:, 0].min() >= 4 and poly[:, 1].min() >= 4
                assert poly[:, 0].max() <= w - 4 and poly[:, 1].max() <= h - 4
                masks.append(frame_mask(poly, w, h))
            for i in range(len(masks)):
                for j in range(i + 1, len(masks)):
                    assert not np.any(masks[i] & masks[j])

    def test_placed_buildings_densifiable(self):
        """``generate_scene`` does not run ``densify``, so every building it
        places, over seeded sweeps of the sparse (one building) and dense
        (one to four) specs, must densify at 8 and at 64 vertices."""
        for cfg in (RunConfig(min_buildings=1, max_buildings=1), RunConfig()):
            spec = training.scene_spec_from_config(cfg)
            placed = 0
            for seed in range(200):
                scene = synth.generate_scene(seed, spec)
                for poly in scene.buildings:
                    for n in (8, 64):
                        assert densify(poly, n).points.shape == (n, 2), (seed, n)
                placed += len(scene.buildings)
            assert placed >= 200 * cfg.min_buildings - 10

    def test_impossible_packing_raises(self):
        # no building of at least 20 px fits a 32 px frame with 6 px margins
        spec = synth.SceneSpec(frame_dims=(32, 32))
        with pytest.raises(ValueError, match=re.escape(str(spec))):
            synth.generate_scene(0, spec)

    def test_packing_that_cannot_be_completed_keeps_placed_buildings(self, monkeypatch):
        monkeypatch.setattr(synth, "MAX_TRIES", 20)
        spec = synth.SceneSpec(frame_dims=(64, 64), n_buildings=(8, 8), size_range=(40.0, 48.0), noise_sigma=0.0)
        for seed in range(5):
            scene = synth.generate_scene(seed, spec)
            # a 40 px building leaves no room for a second one
            assert len(scene.buildings) == 1
            inside = frame_mask(scene.buildings[0], 64, 64)
            assert len(np.unique(scene.image[inside])) == 1
            assert scene.image[inside].min() > scene.image[~inside].max()


def assert_same_scene(got, want):
    assert np.array_equal(got.image, want.image)
    assert got.seed == want.seed
    assert len(got.buildings) == len(want.buildings)
    for a, b in zip(got.buildings, want.buildings):
        assert np.array_equal(a, b)


class TestPlacementAgainstReference:
    """Placement on Python floats against the numpy placement of
    ``conftest.reference_generate_scene``, bit for bit."""

    # the benchmark's specs: dense is the default spec, sparse one building
    # per scene; seeds 100,000 on are a benchmark pool's
    @pytest.mark.parametrize("overrides", [{}, {"min_buildings": 1, "max_buildings": 1}])
    def test_workload_specs_bit_identical(self, overrides):
        spec = training.scene_spec_from_config(RunConfig(**overrides))
        for seed in [*range(500), *range(100_000, 100_500)]:
            assert_same_scene(synth.generate_scene(seed, spec), reference_generate_scene(seed, spec))

    def test_partly_placed_seed_bit_identical(self):
        spec = training.scene_spec_from_config(RunConfig())
        scene = synth.generate_scene(182, spec)
        assert len(scene.buildings) == 3
        assert_same_scene(scene, reference_generate_scene(182, spec))

    def test_packing_that_cannot_be_completed_bit_identical(self, monkeypatch):
        monkeypatch.setattr(synth, "MAX_TRIES", 20)
        spec = synth.SceneSpec(frame_dims=(64, 64), n_buildings=(8, 8), size_range=(40.0, 48.0))
        for seed in range(20):
            assert_same_scene(synth.generate_scene(seed, spec), reference_generate_scene(seed, spec))

    def test_unplaceable_spec_raises_the_same_error(self):
        spec = synth.SceneSpec(frame_dims=(32, 32))
        with pytest.raises(ValueError) as got:
            synth.generate_scene(0, spec)
        with pytest.raises(ValueError) as want:
            reference_generate_scene(0, spec)
        assert str(got.value) == str(want.value)


class TestShapeMakers:
    """``generate_scene`` does not check that a building densifies, so the
    makers must never produce one ``densify`` rejects."""

    def test_extreme_settings_densifiable(self):
        spec = synth.SceneSpec()
        for maker, draws in maker_settings(spec):
            rng = ScriptedRng(*draws)
            assert_densifiable(maker(rng, spec))
            assert not rng.values

    def test_random_sweep_densifiable(self):
        rng = np.random.default_rng(31)
        spec = synth.SceneSpec()
        for _ in range(100):
            for maker in (synth._make_rect, synth._make_rot_rect, synth._make_l_shape):
                assert_densifiable(maker(rng, spec))


class TestMakeDataset:
    def test_partly_placed_seed_keeps_its_place(self):
        # seed 182 draws four buildings, and the fourth finds no place
        cfg = RunConfig()
        spec = training.scene_spec_from_config(cfg)
        assert len(synth.generate_scene(182, spec).buildings) == 3
        scenes = training.make_dataset(cfg, 3, seed_offset=175)
        assert [scene.seed for scene in scenes] == [182, 183, 184]
        for scene in scenes:
            expected = synth.generate_scene(scene.seed, spec)
            assert np.array_equal(scene.image, expected.image)
            assert len(scene.buildings) == len(expected.buildings)
            for a, b in zip(scene.buildings, expected.buildings):
                assert np.array_equal(a, b)

    def test_consecutive_seeds_when_none_fails(self):
        assert [scene.seed for scene in training.make_dataset(RunConfig(), 4)] == [7, 8, 9, 10]

    def test_gives_up_when_no_seed_can_be_placed(self):
        # no building of at least 20 px fits a 32 px frame with 6 px margins
        with pytest.raises(ValueError, match="SceneSpec"):
            training.make_dataset(RunConfig(frame_width=32, frame_height=32), 1)


class TestFeatureProvider:
    def test_constant_image_zero_gradients(self):
        image = np.full((64, 64), 128, dtype=np.uint8)
        grid = synth.feature_provider(image)
        assert grid.shape == (16, 16, 8)
        assert not grid[:, :, 1].any()
        assert not grid[:, :, 2].any()
        assert not grid[:, :, 3].any()

    def test_vertical_step_edge_peaks_gradient_magnitude(self):
        image = np.zeros((64, 64), dtype=np.uint8)
        image[:, 32:] = 200
        grid = synth.feature_provider(image)
        mag = grid[:, :, 3]
        peak_col = np.argmax(mag[8])
        assert peak_col in (7, 8)
        assert mag[8, peak_col] > 10 * mag[8, 2]

    def test_coordinate_channels_span_unit_interval(self):
        grid = synth.feature_provider(np.zeros((32, 48), dtype=np.uint8))
        assert grid[0, 0, 4] == 0.0 and grid[0, -1, 4] == 1.0
        assert grid[0, 0, 5] == 0.0 and grid[-1, 0, 5] == 1.0

    def test_translation_consistency_of_image_channels(self):
        rng = np.random.default_rng(0)
        base = (rng.random((192, 192)) * 255).astype(np.uint8)
        shifted = np.roll(base, (4, 4), axis=(0, 1))
        ga = synth.feature_provider(base)
        gb = synth.feature_provider(shifted)
        # image-derived channels shift by one cell away from the borders; the
        # sigma-3 blur feels the border up to its truncation radius (12 cells)
        # and the coordinate channels are absolute by construction
        interior = (slice(14, -14), slice(14, -14))
        for ch in (0, 1, 2, 3, 6, 7):
            assert np.allclose(
                gb[:, :, ch][interior], np.roll(ga[:, :, ch], (1, 1), axis=(0, 1))[interior],
                atol=1e-9,
            )

    def test_non_multiple_of_stride_dims(self):
        grid = synth.feature_provider(np.zeros((30, 45), dtype=np.uint8))
        assert grid.shape == (8, 12, 8)

    def test_uint8_scaled_by_dtype_not_by_maximum(self):
        # an image whose brightest pixel is 1 is still 0..255 data
        image = np.zeros((32, 32), dtype=np.uint8)
        image[:16] = 1
        grid = synth.feature_provider(image)
        assert grid[0, 0, 0] == 1.0 / 255.0
        assert grid[-1, 0, 0] == 0.0

    @pytest.mark.parametrize("dtype", [np.float64, np.uint16])
    def test_other_dtypes_rejected(self, dtype):
        with pytest.raises(ValueError, match=np.dtype(dtype).name):
            synth.feature_provider(np.zeros((32, 32), dtype=dtype))

    @pytest.mark.parametrize("dims", [(64, 64, 3), (64,), (1, 64, 64)])
    def test_non_2d_images_rejected(self, dims):
        expected = f"feature_provider reads 2-D grayscale images, got an image of shape {dims}"
        with pytest.raises(ValueError, match=re.escape(expected)):
            synth.feature_provider(np.zeros(dims, dtype=np.uint8))

    def test_matches_reference_bit_for_bit(self):
        # >= 200 scenes of the sparse (one building) and dense (one to four) specs
        for cfg in (RunConfig(min_buildings=1, max_buildings=1), RunConfig()):
            spec = training.scene_spec_from_config(cfg)
            checked = 0
            for seed in range(210):
                image = synth.generate_scene(seed, spec).image
                assert np.array_equal(synth.feature_provider(image), reference_feature_provider(image))
                checked += 1
            assert checked >= 200
        # a padded frame, and the smallest grids a gradient allows
        rng = np.random.default_rng(5)
        for dims in ((130, 126), (8, 8), (7, 5), (5, 64)):
            image = rng.integers(0, 256, dims, dtype=np.uint8)
            assert np.array_equal(synth.feature_provider(image), reference_feature_provider(image))

    def test_single_cell_grid_rejected_as_before(self):
        # a one-cell axis has no central difference; the message names the shape
        for dims in ((4, 4), (4, 64), (64, 3)):
            image = np.zeros(dims, dtype=np.uint8)
            with pytest.raises(ValueError):
                reference_feature_provider(image)
            expected = f"at least 5 px along each axis, got an image of shape {dims}"
            with pytest.raises(ValueError, match=re.escape(expected)):
                synth.feature_provider(image)

    def test_cached_coordinates_stay_unchanged(self):
        first = synth.feature_provider(np.zeros((32, 48), dtype=np.uint8))
        first[..., 4:6] = -1.0  # each grid owns its channels
        again = synth.feature_provider(np.zeros((32, 48), dtype=np.uint8))
        assert np.array_equal(again, reference_feature_provider(np.zeros((32, 48), dtype=np.uint8)))
