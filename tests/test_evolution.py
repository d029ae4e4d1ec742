import numpy as np
import pytest

from polytrace import evolution as evo
from polytrace import pipeline
from polytrace.config import RunConfig
from polytrace.geometry import densify

from conftest import central_difference, flipped_kernel, relative_error

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


def circular(x, kernel, bias):
    """The encoder's circular convolution of one (N, D_in) contour."""
    return evo.conv(x[None], kernel, bias, "wrap")[0]


class TestCircularConv:
    def test_k1_identity(self, rng):
        x = rng.normal(size=(6, 4))
        kernel = np.eye(4)[None]
        out = circular(x, kernel, np.zeros(4))
        assert np.allclose(out, x)

    def test_k3_center_tap_identity(self, rng):
        x = rng.normal(size=(6, 4))
        kernel = np.zeros((3, 4, 4))
        kernel[1] = np.eye(4)
        out = circular(x, kernel, np.zeros(4))
        assert np.allclose(out, x)

    def test_k3_left_tap_shifts(self, rng):
        x = rng.normal(size=(4, 1))
        kernel = np.zeros((3, 1, 1))
        kernel[0, 0, 0] = 1.0  # picks up vertex n-1
        out = circular(x, kernel, np.zeros(1))
        assert np.allclose(out, np.roll(x, 1, axis=0))

    def test_even_kernel_rejected(self, rng):
        with pytest.raises(ValueError):
            circular(np.zeros((4, 2)), np.zeros((4, 2, 2)), np.zeros(2))

    def test_commutes_with_rotation(self, rng):
        x = rng.normal(size=(16, 5))
        kernel = rng.normal(size=(9, 5, 3))
        bias = rng.normal(size=3)
        base = circular(x, kernel, bias)
        rolled = circular(np.roll(x, 5, axis=0), kernel, bias)
        assert np.array_equal(rolled, np.roll(base, 5, axis=0))


def nine_tap_conv(x, w, b):
    """Zero-padded 3x3 convolution of an (H, W, C_in) grid with a
    (3, 3, C_in, C_out) kernel, one tap at a time."""
    h, wd, _ = x.shape
    padded = np.pad(x, ((1, 1), (1, 1), (0, 0)))
    out = np.tile(b, (h, wd, 1))
    for dy in range(3):
        for dx in range(3):
            out += padded[dy : dy + h, dx : dx + wd] @ w[dy, dx]
    return out


def nine_tap_backward(d_out, x, w):
    """Gradients (d_x, d_w, d_b) of :func:`nine_tap_conv`, one tap at a time."""
    h, wd, cin = x.shape
    padded = np.pad(x, ((1, 1), (1, 1), (0, 0)))
    d_padded = np.zeros_like(padded)
    d_w = np.zeros_like(w)
    flat_dout = d_out.reshape(-1, w.shape[-1])
    for dy in range(3):
        for dx in range(3):
            patch = padded[dy : dy + h, dx : dx + wd]
            d_w[dy, dx] = patch.reshape(-1, cin).T @ flat_dout
            d_padded[dy : dy + h, dx : dx + wd] += d_out @ w[dy, dx].T
    return d_padded[1:-1, 1:-1], d_w, d_out.sum(axis=(0, 1))


def gather_columns(x, k):
    """Wrap-around im2col of a (B, N, D) batch along the vertex axis, tap by tap."""
    b, n, d = x.shape
    p = (k - 1) // 2
    padded = x[:, np.arange(-p, n + p) % n]
    cols = np.empty((b, n, k * d))
    for t in range(k):
        cols[:, :, t * d : (t + 1) * d] = padded[:, t : t + n]
    return cols


def gather_conv(x, kernel, bias):
    k, d_in, d_out = kernel.shape
    return gather_columns(x, k) @ kernel.reshape(k * d_in, d_out) + bias


def fold_backward(d_out, x, kernel):
    """Gradients of :func:`gather_conv`: column gradients folded back through
    the circular padding, by slices when p < N and by ``np.add.at`` otherwise."""
    k, d_in, d_out_ch = kernel.shape
    b, n, _ = x.shape
    p = (k - 1) // 2
    w = kernel.reshape(k * d_in, d_out_ch)
    d_cols = d_out @ w.T
    d_padded = np.zeros((b, n + 2 * p, d_in))
    for t in range(k):
        d_padded[:, t : t + n] += d_cols[:, :, t * d_in : (t + 1) * d_in]
    if p < n:
        d_x = d_padded[:, p : p + n].copy()
        d_x[:, n - p :] += d_padded[:, :p]
        d_x[:, :p] += d_padded[:, n + p :]
    else:
        d_x = np.zeros(x.shape)
        np.add.at(d_x, (slice(None), np.arange(-p, n + p) % n), d_padded)
    flat_cols = gather_columns(x, k).reshape(-1, k * d_in)
    flat_dout = d_out.reshape(-1, d_out_ch)
    d_w = (flat_cols.T @ flat_dout).reshape(k, d_in, d_out_ch)
    return d_x, d_w, flat_dout.sum(axis=0)


class TestConvAgainstReference:
    def test_zero_padded_grid_matches_nine_taps(self, rng):
        x = rng.normal(size=(5, 7, 3))
        w = rng.normal(size=(3, 3, 3, 4))
        b = rng.normal(size=4)
        d_out = rng.normal(size=(5, 7, 4))
        assert relative_error(evo.conv(x, w, b, "constant"), nine_tap_conv(x, w, b)) < 1e-12
        got = (evo.conv(d_out, flipped_kernel(w), 0.0, "constant"), *evo.conv_weight_grad(d_out, x, w, "constant"))
        for a, ref in zip(got, nine_tap_backward(d_out, x, w)):
            assert a.shape == ref.shape
            assert relative_error(a, ref) < 1e-12

    @pytest.mark.parametrize("k", [3, 9, 21])
    @pytest.mark.parametrize("n", [8, 64])
    def test_circular_batch_matches_gather_and_fold(self, rng, k, n):
        x = rng.normal(size=(3, n, 5))
        kernel = rng.normal(size=(k, 5, 4))
        bias = rng.normal(size=4)
        d_out = rng.normal(size=(3, n, 4))
        cols = evo._columns(x, (k,), "wrap")
        assert cols.flags.c_contiguous
        assert np.array_equal(cols, gather_columns(x, k))
        assert relative_error(evo.conv(x, kernel, bias, "wrap"), gather_conv(x, kernel, bias)) < 1e-12
        got = (evo.conv_input_grad(d_out, kernel), *evo.conv_weight_grad(d_out, x, kernel, "wrap"))
        for a, ref in zip(got, fold_backward(d_out, x, kernel)):
            assert a.shape == ref.shape
            assert relative_error(a, ref) < 1e-12


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
        grid = rng.normal(size=(8, 8, 1))
        points = rng.uniform(0.0, 32.0, size=(5, 2))
        feats = evo.vertex_features(grid, points)
        assert feats.shape == (5, 3)
        assert np.array_equal(feats[:, -2:], evo.relative_coords(points))
        assert np.array_equal(feats[:, :1], evo.sample_features(grid, points))


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
        feats = np.concatenate(
            [evo.sample_features(grid, contour.points), evo.relative_coords(contour.points)], axis=-1
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
