import numpy as np
import pytest

from polytrace import evolution as evo
from polytrace import pipeline
from polytrace.config import RunConfig
from polytrace.geometry import densify

from conftest import as_float64, central_difference, flipped_kernel, relative_error

SQUARE = np.array([[20.0, 20.0], [60.0, 20.0], [60.0, 60.0], [20.0, 60.0]])


def tiny_params(rng, channels=3, width=8, random_heads=True, **sizes):
    """Float64 parameters of a small network, for exact checks."""
    cfg = RunConfig(feature_channels=channels, encoder_width=width, **sizes)
    params = as_float64(pipeline.PipelineParams.initialize(cfg, rng))
    if random_heads:
        params.step_w = rng.normal(scale=0.3, size=params.step_w.shape)
        params.step_b = rng.normal(scale=0.1, size=2)
        params.cls_w = rng.normal(scale=0.3, size=params.cls_w.shape)
        params.cls_b = rng.normal(scale=0.1, size=2)
    return params


def linear_probe_loss(features, params, a_off, a_pr):
    offsets, probs, _ = evo.forward(features, params)
    return float((a_off * offsets).sum() + (a_pr * probs).sum())


def probe_gradients(features, params, a_off, a_pr):
    _, probs, cache = evo.forward(features, params)
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
        out = evo.sample_features(grid[None], 0, np.array([[8.0, 12.0]]))  # node (3, 2)
        assert np.allclose(out[0], grid[3, 2])

    def test_midpoint_interpolates(self):
        grid = np.zeros((4, 4, 1))
        grid[1, 2, 0] = 1.0
        out = evo.sample_features(grid[None], 0, np.array([[6.0, 4.0]]))  # between (1,1) and (1,2)
        assert out[0, 0] == pytest.approx(0.5)

    def test_matches_four_corner_formula(self, rng):
        grid = rng.normal(size=(10, 12, 4))
        pts = rng.uniform(0, 4 * np.array([11, 9]), size=(30, 2))
        out = evo.sample_features(grid[None], 0, pts)
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
        out = evo.sample_features(grid[None], 0, np.array([[-10.0, -10.0], [1000.0, 1000.0]]))
        assert np.allclose(out[0], grid[0, 0])
        assert np.allclose(out[1], grid[5, 5])


class TestAssemble:
    def test_shape_and_layout(self, rng):
        grid = rng.normal(size=(8, 8, 1))
        points = rng.uniform(0.0, 32.0, size=(5, 2))
        (feats,) = evo.vertex_features(grid[None], [0], points[None])
        assert feats.shape == (5, 3)
        assert np.array_equal(feats[:, -2:], evo.relative_coords(points))
        assert np.array_equal(feats[:, :1], evo.sample_features(grid[None], 0, points))

    def test_each_contour_samples_its_own_scene(self, rng):
        grids = rng.normal(size=(3, 8, 10, 2))
        points = rng.uniform(0.0, 36.0, size=(4, 6, 2))
        scenes = np.array([2, 0, 2, 1])
        feats = evo.vertex_features(grids, scenes, points)
        assert feats.shape == (4, 6, 4)
        for b, s in enumerate(scenes):
            assert np.array_equal(feats[b], evo.vertex_features(grids[s][None], [0], points[b][None])[0])


def tiny_pipeline(rng, random_heads):
    return tiny_params(rng, width=16, random_heads=random_heads, n_vertices=16, allow_nonstandard=True)


class TestForward:
    def test_zero_heads_leave_contour_unchanged(self, rng):
        params = tiny_pipeline(rng, random_heads=False)
        grid = rng.normal(size=(16, 16, 3))
        offsets = rng.normal(size=(2, 32))
        stages, probs, _ = pipeline.evolve_contours(
            grid[None], [0, 0], offsets, np.array([[30.0, 30.0], [41.0, 22.0]]), params, 10.0
        )
        assert len(stages) == pipeline.EVOLUTION_ROUNDS + 1
        for stage in stages[1:]:
            assert stage.shape == (2, 16, 2)
            assert np.array_equal(stage, stages[0])
        assert np.allclose(probs, 0.5)

    def test_update_is_additive_offset(self, rng):
        params = tiny_pipeline(rng, random_heads=True)
        grid = rng.normal(size=(16, 16, 3))
        offsets = rng.normal(size=(2, 32))
        stages, _, _ = pipeline.evolve_contours(
            grid[None], [0, 0], offsets, np.array([[30.0, 30.0], [41.0, 22.0]]), params, 10.0
        )
        for before, after in zip(stages, stages[1:]):
            assert after.shape == (2, 16, 2)
            step, _, _ = evo.forward(evo.vertex_features(grid[None], [0, 0], before), params)
            assert np.array_equal(after, before + step)

    def test_batched_features_match_each_contour(self, rng):
        grid = rng.normal(size=(16, 16, 3))
        contour = densify(SQUARE, 16)
        feats = np.concatenate(
            [evo.sample_features(grid[None], 0, contour.points), evo.relative_coords(contour.points)], axis=-1
        )
        batch = evo.vertex_features(grid[None], [0, 0], np.stack([contour.points + 5.0, contour.points]))
        assert batch.shape == (2, 16, 5)
        assert np.array_equal(batch[1], feats)

    def test_rotation_equivariance_exact(self, rng):
        params = tiny_params(rng, channels=4, width=16)
        feats = rng.normal(size=(1, 24, 6))
        off_a, probs_a, _ = evo.forward(feats, params)
        shift = 7
        off_b, probs_b, _ = evo.forward(np.roll(feats, shift, axis=1), params)
        assert np.array_equal(off_b, np.roll(off_a, shift, axis=1))
        assert np.array_equal(probs_b, np.roll(probs_a, shift, axis=1))


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self, rng):
        params = tiny_params(rng)
        feats = rng.normal(size=(2, 8, 5))
        _, _, cache = evo.forward(feats, params)
        grads = evo.backward(cache, params, d_offsets=np.zeros((2, 8, 2)), d_logits=np.zeros((2, 8, 2)))
        assert all(not g.any() for g in grads.values())

    def test_head_gradient_is_outer_product(self, rng):
        params = tiny_params(rng)
        feats = rng.normal(size=(1, 8, 5))
        d_off = rng.normal(size=(1, 8, 2))
        _, _, cache = evo.forward(feats, params)
        grads = evo.backward(cache, params, d_offsets=d_off)
        f4 = cache["f4"]
        expected = np.einsum("bni,bnj->ij", d_off, f4)
        assert np.allclose(grads["step_w"], expected)
        assert np.allclose(grads["step_b"], d_off.sum(axis=(0, 1)))
        assert "cls_w" not in grads and "cls_b" not in grads  # no upstream gradient, no entry

    def test_every_parameter_against_finite_differences(self):
        rng = np.random.default_rng(42)
        params = tiny_params(rng, channels=3, width=8)
        feats = rng.normal(size=(1, 8, 5))
        a_off = rng.normal(size=(1, 8, 2))
        a_pr = rng.normal(size=(1, 8, 2))
        grads = probe_gradients(feats, params, a_off, a_pr)
        assert len(grads) == 14  # every weight and bias of the micro-network
        for name in grads:
            value = getattr(params, name)

            def f(arr, value=value):
                saved = value.copy()
                value[...] = arr
                try:
                    return linear_probe_loss(feats, params, a_off, a_pr)
                finally:
                    value[...] = saved
            fd = central_difference(f, value)
            assert relative_error(grads[name], fd) < 1e-6, name

    def test_directional_derivative_full_width(self):
        rng = np.random.default_rng(44)
        params = tiny_params(rng, channels=4, width=128)
        feats = rng.normal(size=(1, 16, 6))
        a_off = rng.normal(size=(1, 16, 2))
        a_pr = rng.normal(size=(1, 16, 2))
        grads = probe_gradients(feats, params, a_off, a_pr)
        named = {name: getattr(params, name) for name in grads}
        for trial in range(20):
            direction = {name: rng.normal(size=arr.shape) for name, arr in named.items()}
            norm = np.sqrt(sum(float((d**2).sum()) for d in direction.values()))
            direction = {name: d / norm for name, d in direction.items()}
            analytic = sum(float((grads[n] * d).sum()) for n, d in direction.items())
            h = 1e-5
            saved = {name: arr.copy() for name, arr in named.items()}
            for sign in (+1, -1):
                for name, arr in named.items():
                    arr[...] = saved[name] + sign * h * direction[name]
                if sign > 0:
                    fp = linear_probe_loss(feats, params, a_off, a_pr)
                else:
                    fm = linear_probe_loss(feats, params, a_off, a_pr)
            for name, arr in named.items():
                arr[...] = saved[name]
            fd = (fp - fm) / (2 * h)
            denom = max(abs(analytic), abs(fd), 1e-10)
            assert abs(analytic - fd) / denom < 1e-4

    def test_missing_cache_rejected(self, rng):
        params = tiny_params(rng)
        with pytest.raises(ValueError):
            evo.backward({}, params, d_offsets=np.zeros((1, 8, 2)))


def test_float32_network_matches_float64():
    """The stored float32 network against the same arrays cast to float64, at
    the default sizes (N=64, W=128, k up to 21)."""
    rng = np.random.default_rng(46)
    params = pipeline.PipelineParams.initialize(RunConfig(), rng)
    params.step_w[...] = rng.normal(scale=0.3, size=params.step_w.shape)
    params.cls_w[...] = rng.normal(scale=0.3, size=params.cls_w.shape)
    reference = as_float64(params)
    feats = rng.normal(size=(5, 64, 10))
    a_off = rng.normal(size=(5, 64, 2))
    a_pr = rng.normal(size=(5, 64, 2))

    for got, want in zip(evo.forward(feats, params)[:2], evo.forward(feats, reference)[:2]):
        assert got.dtype == np.float32 and want.dtype == np.float64
        assert relative_error(got, want) < 1e-5

    grads = probe_gradients(feats, params, a_off, a_pr)
    expected = probe_gradients(feats, reference, a_off, a_pr)
    assert len(grads) == 14 and sorted(grads) == sorted(expected)
    for name, g in grads.items():
        assert getattr(params, name).dtype == np.float32, name
        assert g.dtype == np.float32 and expected[name].dtype == np.float64, name
        assert relative_error(g, expected[name]) < 1e-5, name
