import numpy as np
import pytest

from polytrace import evolution as evo
from polytrace import pipeline
from polytrace.config import RunConfig
from polytrace.geometry import densify

from conftest import central_difference, relative_error

SQUARE = np.array([[20.0, 20.0], [60.0, 20.0], [60.0, 60.0], [20.0, 60.0]])


def tiny_params(rng, channels=3, width=8, random_heads=True):
    params = evo.EvolutionParams.initialize(channels, width=width, rng=rng)
    if random_heads:
        params.offset_w = rng.normal(scale=0.3, size=params.offset_w.shape)
        params.offset_b = rng.normal(scale=0.1, size=2)
        params.cls_w = rng.normal(scale=0.3, size=params.cls_w.shape)
        params.cls_b = rng.normal(scale=0.1, size=2)
    return params


def linear_probe_loss(features, params, a_off, a_pr):
    offsets, _, probs, _ = evo.forward(features, params)
    return float((a_off * offsets).sum() + (a_pr * probs).sum())


def probe_gradients(features, params, a_off, a_pr):
    offsets, logits, probs, cache = evo.forward(features, params)
    d_logits = evo.softmax_backward(probs, a_pr)
    return evo.backward(cache, params, d_offsets=a_off, d_logits=d_logits)


class TestCircularConv:
    def test_k1_identity(self, rng):
        x = rng.normal(size=(6, 4))
        kernel = np.eye(4)[:, :, None]
        out = evo.circular_conv1d(x, kernel, np.zeros(4))
        assert np.allclose(out, x)

    def test_k3_center_tap_identity(self, rng):
        x = rng.normal(size=(6, 4))
        kernel = np.zeros((4, 4, 3))
        kernel[:, :, 1] = np.eye(4)
        out = evo.circular_conv1d(x, kernel, np.zeros(4))
        assert np.allclose(out, x)

    def test_k3_left_tap_shifts(self, rng):
        x = rng.normal(size=(4, 1))
        kernel = np.zeros((1, 1, 3))
        kernel[0, 0, 0] = 1.0  # picks up vertex n-1
        out = evo.circular_conv1d(x, kernel, np.zeros(1))
        assert np.allclose(out, np.roll(x, 1, axis=0))

    def test_even_kernel_rejected(self, rng):
        with pytest.raises(ValueError):
            evo.circular_conv1d(np.zeros((4, 2)), np.zeros((2, 2, 4)), np.zeros(2))

    def test_commutes_with_rotation(self, rng):
        x = rng.normal(size=(16, 5))
        kernel = rng.normal(size=(3, 5, 9))
        bias = rng.normal(size=3)
        base = evo.circular_conv1d(x, kernel, bias)
        rolled = evo.circular_conv1d(np.roll(x, 5, axis=0), kernel, bias)
        assert np.array_equal(rolled, np.roll(base, 5, axis=0))


class TestSampling:
    def test_grid_node_exact(self, rng):
        grid = rng.normal(size=(8, 8, 3))
        out = evo.sample_features(grid, np.array([[8.0, 12.0]]))  # node (3, 2)
        assert np.allclose(out[0], grid[3, 2])

    def test_midpoint_interpolates(self):
        grid = np.zeros((4, 4, 1))
        grid[1, 2, 0] = 1.0
        out = evo.sample_features(grid, np.array([[6.0, 4.0]]))  # between (1,1) and (1,2)
        assert out[0, 0] == pytest.approx(0.5)

    def test_matches_four_corner_formula(self, rng):
        grid = rng.normal(size=(10, 12, 4))
        pts = rng.uniform(0, 4 * np.array([11, 9]), size=(30, 2))
        out = evo.sample_features(grid, pts)
        for p, got in zip(pts, out):
            gx, gy = p[0] / 4, p[1] / 4
            x0, y0 = int(np.floor(gx)), int(np.floor(gy))
            x0, y0 = min(x0, 10), min(y0, 8)
            fx, fy = gx - x0, gy - y0
            expected = (
                grid[y0, x0] * (1 - fx) * (1 - fy)
                + grid[y0, x0 + 1] * fx * (1 - fy)
                + grid[y0 + 1, x0] * (1 - fx) * fy
                + grid[y0 + 1, x0 + 1] * fx * fy
            )
            assert np.max(np.abs(got - expected)) < 1e-12

    def test_out_of_frame_clamped(self, rng):
        grid = rng.normal(size=(6, 6, 2))
        out = evo.sample_features(grid, np.array([[-10.0, -10.0], [1000.0, 1000.0]]))
        assert np.allclose(out[0], grid[0, 0])
        assert np.allclose(out[1], grid[5, 5])


class TestAssemble:
    def test_shape_and_layout(self, rng):
        sampled = rng.normal(size=(5, 1))
        rel = rng.uniform(-0.5, 0.5, size=(5, 2))
        feats = evo.assemble_vertex_features(sampled, rel)
        assert feats.shape == (5, 3)
        assert np.array_equal(feats[:, -2:], rel)
        assert np.array_equal(feats[:, :1], sampled)

    def test_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            evo.assemble_vertex_features(np.zeros((4, 2)), np.zeros((5, 2)))


def tiny_pipeline(rng, random_heads):
    cfg = RunConfig(n_vertices=16, feature_channels=3, encoder_width=16, allow_nonstandard=True)
    params = pipeline.PipelineParams.initialize(cfg, rng)
    params.evolution = tiny_params(rng, channels=3, width=16, random_heads=random_heads)
    return params


class TestForward:
    def test_zero_heads_leave_contour_unchanged(self, rng):
        params = tiny_pipeline(rng, random_heads=False)
        grid = rng.normal(size=(16, 16, 3))
        offmap = rng.normal(size=(16, 16, 32))
        stages, probs, _ = pipeline.evolve_contours(
            grid, offmap, np.array([[30.0, 30.0], [41.0, 22.0]]), params, 10.0
        )
        assert len(stages) == pipeline.EVOLUTION_ROUNDS + 1
        for stage in stages[1:]:
            assert np.array_equal(stage, stages[0])
        assert np.allclose(probs, 0.5)

    def test_update_is_additive_offset(self, rng):
        params = tiny_pipeline(rng, random_heads=True)
        grid = rng.normal(size=(16, 16, 3))
        offmap = rng.normal(size=(16, 16, 32))
        stages, _, _ = pipeline.evolve_contours(
            grid, offmap, np.array([[30.0, 30.0], [41.0, 22.0]]), params, 10.0
        )
        for before, after in zip(stages, stages[1:]):
            offsets, _, _, _ = evo.forward(evo.vertex_features(grid, before), params.evolution)
            assert np.array_equal(after, before + offsets)

    def test_batched_features_match_each_contour(self, rng):
        grid = rng.normal(size=(16, 16, 3))
        contour = densify(SQUARE, 16)
        feats = evo.assemble_vertex_features(
            evo.sample_features(grid, contour.points),
            evo.relative_coords(contour.points),
        )
        batch = evo.vertex_features(grid, np.stack([contour.points + 5.0, contour.points]))
        assert batch.shape == (2, 16, 5)
        assert np.array_equal(batch[1], feats)

    def test_rotation_equivariance_exact(self, rng):
        params = tiny_params(rng, channels=4, width=16)
        feats = rng.normal(size=(1, 24, 6))
        off_a, _, probs_a, _ = evo.forward(feats, params)
        shift = 7
        off_b, _, probs_b, _ = evo.forward(np.roll(feats, shift, axis=1), params)
        assert np.array_equal(off_b, np.roll(off_a, shift, axis=1))
        assert np.array_equal(probs_b, np.roll(probs_a, shift, axis=1))


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self, rng):
        params = tiny_params(rng)
        feats = rng.normal(size=(2, 8, 5))
        _, _, _, cache = evo.forward(feats, params)
        grads, d_feats = evo.backward(
            cache, params, d_offsets=np.zeros((2, 8, 2)), d_logits=np.zeros((2, 8, 2))
        )
        assert all(not g.any() for g in grads.values())
        assert not d_feats.any()

    def test_head_gradient_is_outer_product(self, rng):
        params = tiny_params(rng)
        feats = rng.normal(size=(1, 8, 5))
        d_off = rng.normal(size=(1, 8, 2))
        _, _, _, cache = evo.forward(feats, params)
        grads, _ = evo.backward(cache, params, d_offsets=d_off)
        f4 = cache["f4"]
        expected = np.einsum("bni,bnj->ij", d_off, f4)
        assert np.allclose(grads["offset_w"], expected)
        assert np.allclose(grads["offset_b"], d_off.sum(axis=(0, 1)))

    def test_every_parameter_against_finite_differences(self):
        rng = np.random.default_rng(42)
        params = tiny_params(rng, channels=3, width=8)
        feats = rng.normal(size=(1, 8, 5))
        a_off = rng.normal(size=(1, 8, 2))
        a_pr = rng.normal(size=(1, 8, 2))
        grads, _ = probe_gradients(feats, params, a_off, a_pr)
        for name, value in params.arrays():
            def f(arr, name=name, value=value):
                saved = value.copy()
                value[...] = arr
                try:
                    return linear_probe_loss(feats, params, a_off, a_pr)
                finally:
                    value[...] = saved
            fd = central_difference(f, value)
            assert relative_error(grads[name], fd) < 1e-6, name

    def test_input_feature_gradient_against_finite_differences(self):
        rng = np.random.default_rng(43)
        params = tiny_params(rng, channels=3, width=8)
        feats = rng.normal(size=(1, 10, 5))
        a_off = rng.normal(size=(1, 10, 2))
        a_pr = rng.normal(size=(1, 10, 2))
        _, d_feats = probe_gradients(feats, params, a_off, a_pr)
        fd = central_difference(lambda x: linear_probe_loss(x, params, a_off, a_pr), feats)
        assert relative_error(d_feats, fd) < 1e-6

    def test_directional_derivative_full_width(self):
        rng = np.random.default_rng(44)
        params = tiny_params(rng, channels=4, width=128)
        feats = rng.normal(size=(1, 16, 6))
        a_off = rng.normal(size=(1, 16, 2))
        a_pr = rng.normal(size=(1, 16, 2))
        grads, _ = probe_gradients(feats, params, a_off, a_pr)
        for trial in range(20):
            direction = {name: rng.normal(size=arr.shape) for name, arr in params.arrays()}
            norm = np.sqrt(sum(float((d**2).sum()) for d in direction.values()))
            direction = {name: d / norm for name, d in direction.items()}
            analytic = sum(float((grads[n] * d).sum()) for n, d in direction.items())
            h = 1e-5
            saved = {name: arr.copy() for name, arr in params.arrays()}
            for sign in (+1, -1):
                for name, arr in params.arrays():
                    arr[...] = saved[name] + sign * h * direction[name]
                if sign > 0:
                    fp = linear_probe_loss(feats, params, a_off, a_pr)
                else:
                    fm = linear_probe_loss(feats, params, a_off, a_pr)
            for name, arr in params.arrays():
                arr[...] = saved[name]
            fd = (fp - fm) / (2 * h)
            denom = max(abs(analytic), abs(fd), 1e-10)
            assert abs(analytic - fd) / denom < 1e-4

    def test_missing_cache_rejected(self, rng):
        params = tiny_params(rng)
        with pytest.raises(ValueError):
            evo.backward({}, params, d_offsets=np.zeros((1, 8, 2)))
