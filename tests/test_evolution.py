import numpy as np
import pytest

from polytrace import evolution as evo
from polytrace import pipeline
from polytrace.config import RunConfig
from polytrace.geometry import densify
from polytrace.synth import FEATURE_CHANNELS

from conftest import (
    as_float64,
    central_difference,
    flipped_kernel,
    nine_tap_backward,
    nine_tap_conv,
    reference_evolution_backward,
    reference_evolution_forward,
    reference_valid_logit_grad,
    relative_error,
    tap_slices,
)

SQUARE = np.array([[20.0, 20.0], [60.0, 20.0], [60.0, 60.0], [20.0, 60.0]])
FEATURES = FEATURE_CHANNELS + 2  # sampled channels, then the relative coordinates


def tiny_params(rng, width=8, random_heads=True, **sizes):
    """Float64 parameters of a small network, for exact checks; it reads
    (B, N, FEATURES) vertex features."""
    cfg = RunConfig(encoder_width=width, **sizes)
    params = as_float64(pipeline.PipelineParams.initialize(cfg, rng))
    if random_heads:
        params.step_w = rng.normal(scale=0.3, size=params.step_w.shape)
        params.step_b = rng.normal(scale=0.1, size=2)
        params.cls_w = rng.normal(scale=0.3, size=params.cls_w.shape)
        params.cls_b = rng.normal(scale=0.1, size=2)
    return params


def linear_probe_loss(features, params, a_off, a_valid):
    offsets, valid, _ = evo.forward(features, params)
    return float((a_off * offsets).sum() + (a_valid * valid).sum())


def probe_gradients(features, params, a_off, a_valid):
    _, _, cache = evo.forward(features, params)
    return evo.backward(cache, params, d_offsets=a_off, d_valid=a_valid)


def circular(x, kernel, bias):
    """The encoder's circular convolution of one (N, D_in) contour."""
    return evo.conv(x[None], kernel, bias, 1)[0]


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


def gather_columns(x, k, d):
    """Wrap-around im2col of a (B, N, D) batch along the vertex axis at
    dilation d, tap by tap."""
    b, n, d_in = x.shape
    p = (k - 1) // 2 * d
    padded = x[:, np.arange(-p, n + p) % n]
    cols = np.empty((b, n, k * d_in))
    for t, taps in enumerate(tap_slices(k, d, n)):
        cols[:, :, t * d_in : (t + 1) * d_in] = padded[:, taps]
    return cols


def gather_conv(x, kernel, bias, d):
    k, d_in, d_out = kernel.shape
    return gather_columns(x, k, d) @ kernel.reshape(k * d_in, d_out) + bias


def fold_backward(d_out, x, kernel, d):
    """Gradients of :func:`gather_conv`: column gradients folded back through
    the circular padding, by slices when p < N and by ``np.add.at`` otherwise."""
    k, d_in, d_out_ch = kernel.shape
    b, n, _ = x.shape
    p = (k - 1) // 2 * d
    w = kernel.reshape(k * d_in, d_out_ch)
    d_cols = d_out @ w.T
    d_padded = np.zeros((b, n + 2 * p, d_in))
    for t, taps in enumerate(tap_slices(k, d, n)):
        d_padded[:, taps] += d_cols[:, :, t * d_in : (t + 1) * d_in]
    if p < n:
        d_x = d_padded[:, p : p + n].copy()
        d_x[:, n - p :] += d_padded[:, :p]
        d_x[:, :p] += d_padded[:, n + p :]
    else:
        d_x = np.zeros(x.shape)
        np.add.at(d_x, (slice(None), np.arange(-p, n + p) % n), d_padded)
    flat_cols = gather_columns(x, k, d).reshape(-1, k * d_in)
    flat_dout = d_out.reshape(-1, d_out_ch)
    d_w = (flat_cols.T @ flat_dout).reshape(k, d_in, d_out_ch)
    return d_x, d_w, flat_dout.sum(axis=0)


class TestConvAgainstReference:
    def test_zero_padded_grid_matches_nine_taps(self, rng):
        x = rng.normal(size=(2, 5, 7, 3))  # two scenes, so padding that bleeds between them fails
        w = rng.normal(size=(3, 3, 3, 4))
        b = rng.normal(size=4)
        d_out = rng.normal(size=(2, 5, 7, 4))
        cols = pipeline.grid_columns(x)
        assert cols.shape == (2, 5, 7, 27) and cols.flags.c_contiguous
        d_cols = pipeline.grid_columns(d_out)
        for s in range(2):
            assert relative_error(cols[s] @ evo.kernel_matrix(w) + b, nine_tap_conv(x[s], w, b)) < 1e-12
            got = (d_cols[s] @ evo.kernel_matrix(flipped_kernel(w)), *evo.kernel_grad(cols[s], d_out[s], w))
            for a, ref in zip(got, nine_tap_backward(d_out[s], x[s], w)):
                assert a.shape == ref.shape
                assert relative_error(a, ref) < 1e-12

    # (k-1)*d >= N aliases taps: k >= 9 at d=1 and every k at d=4 or 5 on N=8,
    # k=21 at d=4 or 5 on N=64
    @pytest.mark.parametrize("k", [3, 5, 9, 21])
    @pytest.mark.parametrize("d", [1, 4, 5])
    @pytest.mark.parametrize("n", [8, 64])
    def test_circular_batch_matches_gather_and_fold(self, rng, k, d, n):
        x = rng.normal(size=(3, n, 5))
        kernel = rng.normal(size=(k, 5, 4))
        bias = rng.normal(size=4)
        d_out = rng.normal(size=(3, n, 4))
        cols = evo._columns(x, k, d)
        assert cols.flags.c_contiguous
        assert np.array_equal(cols, gather_columns(x, k, d))
        assert relative_error(evo.conv(x, kernel, bias, d), gather_conv(x, kernel, bias, d)) < 1e-12
        got = (evo.conv_input_grad(d_out, kernel, d), *evo.conv_weight_grad(d_out, x, kernel, d))
        for a, ref in zip(got, fold_backward(d_out, x, kernel, d)):
            assert a.shape == ref.shape
            assert relative_error(a, ref) < 1e-12

    @pytest.mark.parametrize("n", [7, 16])  # 7 < (k-1)*d = 20: taps alias
    def test_dilated_gradients_against_finite_differences(self, n):
        rng = np.random.default_rng(45)
        x = rng.normal(size=(2, n, 3))
        kernel = rng.normal(size=(5, 3, 4))
        bias = rng.normal(size=4)
        probe = rng.normal(size=(2, n, 4))
        args = {"x": x, "kernel": kernel, "bias": bias}
        got = {
            "x": evo.conv_input_grad(probe, kernel, 5),
            **dict(zip(("kernel", "bias"), evo.conv_weight_grad(probe, x, kernel, 5))),
        }
        for name, value in args.items():

            def f(arr, name=name):
                return float((probe * evo.conv(**{**args, name: arr}, d=5)).sum())

            assert relative_error(got[name], central_difference(f, value)) < 1e-8, name


def test_each_layer_reaches_its_half_window():
    """An impulse at vertex 0 of a 64-vertex ring reaches every d-th output
    up to (k-1)*d/2 vertices to either side and no other: 1, 4 and 10 for
    the detail, local and global layers at their layout's k."""
    layout = pipeline.PipelineParams.layout(RunConfig())
    reach = {}
    for name, d in evo.DILATIONS.items():
        k = layout[f"{name}_w"][0][0]
        x = np.zeros((1, 64, 1))
        x[0, 0] = 1.0
        seen = np.flatnonzero(evo.conv(x, np.ones((k, 1, 1)), np.zeros(1), d)[0, :, 0])
        offsets = (seen + 32) % 64 - 32  # signed ring distance from vertex 0
        reach[name] = int(offsets.max())
        assert np.array_equal(np.sort(offsets), np.arange(-reach[name], reach[name] + 1, d)), name
    assert reach == {"detail": 1, "local": 4, "global": 10}


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
        grid = rng.normal(size=(16, 16, FEATURE_CHANNELS))
        offsets = rng.normal(size=(2, 32))
        stages, valid, _ = pipeline.evolve_contours(
            grid[None], [0, 0], offsets, np.array([[30.0, 30.0], [41.0, 22.0]]), params
        )
        assert len(stages) == pipeline.EVOLUTION_ROUNDS + 1
        for stage in stages[1:]:
            assert stage.shape == (2, 16, 2)
            assert np.array_equal(stage, stages[0])
        assert valid.shape == (2, 16) and np.allclose(valid, 0.5)

    def test_update_is_additive_offset(self, rng):
        params = tiny_pipeline(rng, random_heads=True)
        grid = rng.normal(size=(16, 16, FEATURE_CHANNELS))
        offsets = rng.normal(size=(2, 32))
        stages, _, _ = pipeline.evolve_contours(
            grid[None], [0, 0], offsets, np.array([[30.0, 30.0], [41.0, 22.0]]), params
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
        params = tiny_params(rng, width=16)
        feats = rng.normal(size=(1, 24, FEATURES))
        off_a, valid_a, _ = evo.forward(feats, params)
        shift = 7
        off_b, valid_b, _ = evo.forward(np.roll(feats, shift, axis=1), params)
        assert np.array_equal(off_b, np.roll(off_a, shift, axis=1))
        assert np.array_equal(valid_b, np.roll(valid_a, shift, axis=1))


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self, rng):
        params = tiny_params(rng)
        feats = rng.normal(size=(2, 8, FEATURES))
        _, _, cache = evo.forward(feats, params)
        grads = evo.backward(cache, params, d_offsets=np.zeros((2, 8, 2)), d_valid=np.zeros((2, 8)))
        assert all(not g.any() for g in grads.values())

    def test_head_gradient_is_outer_product(self, rng):
        params = tiny_params(rng)
        feats = rng.normal(size=(1, 8, FEATURES))
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
        params = tiny_params(rng, width=8)
        feats = rng.normal(size=(1, 8, FEATURES))
        a_off = rng.normal(size=(1, 8, 2))
        a_valid = rng.normal(size=(1, 8))
        grads = probe_gradients(feats, params, a_off, a_valid)
        assert len(grads) == 14  # every weight and bias of the micro-network
        for name in grads:
            value = getattr(params, name)

            def at(arr, read, value=value):
                saved = value.copy()
                value[...] = arr
                try:
                    return read()
                finally:
                    value[...] = saved

            def f(arr):
                return at(arr, lambda: linear_probe_loss(feats, params, a_off, a_valid))

            def kinks(arr):
                # the pieces of the network: every ReLU mask and the max-pool argmax
                cache = at(arr, lambda: evo.forward(feats, params)[2])
                masks = [cache[key] > 0 for key in ("z0", "detail_z", "local_z", "global_z", "z4")]
                return (*masks, cache["global_out"].argmax(axis=1))

            fd = central_difference(f, value, kinks=kinks)
            assert relative_error(grads[name], fd) < 1e-6, name

    def test_difference_steps_around_kinks(self):
        def f(x):
            return float(np.maximum(x, 0.0).sum())

        def kinks(x):
            return (x > 0,)

        # 1e-5 and 5e-6 cross the kink of the second coordinate, 2.5e-6 not
        assert np.allclose(central_difference(f, np.array([0.3, 3e-6, -3e-6]), kinks=kinks), [1, 1, 0])
        with pytest.raises(AssertionError, match="coordinate 1 crosses a kink"):
            central_difference(f, np.array([0.3, 0.0]), kinks=kinks)

    def test_directional_derivative_full_width(self):
        rng = np.random.default_rng(44)
        params = tiny_params(rng, width=128)
        feats = rng.normal(size=(1, 16, FEATURES))
        a_off = rng.normal(size=(1, 16, 2))
        a_valid = rng.normal(size=(1, 16))
        grads = probe_gradients(feats, params, a_off, a_valid)
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
                    fp = linear_probe_loss(feats, params, a_off, a_valid)
                else:
                    fm = linear_probe_loss(feats, params, a_off, a_valid)
            for name, arr in named.items():
                arr[...] = saved[name]
            fd = (fp - fm) / (2 * h)
            denom = max(abs(analytic), abs(fd), 1e-10)
            assert abs(analytic - fd) / denom < 1e-4

    def test_missing_cache_rejected(self, rng):
        params = tiny_params(rng)
        with pytest.raises(ValueError):
            evo.backward({}, params, d_offsets=np.zeros((1, 8, 2)))


def default_params(rng):
    """The stored float32 parameters at the default sizes (N=64, W=128, the
    global layer 5 taps 5 vertices apart), with random evolution heads."""
    params = pipeline.PipelineParams.initialize(RunConfig(), rng)
    params.step_w[...] = rng.normal(scale=0.3, size=params.step_w.shape)
    params.cls_w[...] = rng.normal(scale=0.3, size=params.cls_w.shape)
    return params


def test_float32_network_matches_float64():
    """The stored float32 network against the same arrays cast to float64."""
    rng = np.random.default_rng(46)
    params = default_params(rng)
    reference = as_float64(params)
    feats = rng.normal(size=(5, 64, 10))
    a_off = rng.normal(size=(5, 64, 2))
    a_valid = rng.normal(size=(5, 64))

    for got, want in zip(evo.forward(feats, params)[:2], evo.forward(feats, reference)[:2]):
        assert got.dtype == np.float32 and want.dtype == np.float64
        assert relative_error(got, want) < 1e-5

    grads = probe_gradients(feats, params, a_off, a_valid)
    expected = probe_gradients(feats, reference, a_off, a_valid)
    assert len(grads) == 14 and sorted(grads) == sorted(expected)
    for name, g in grads.items():
        assert getattr(params, name).dtype == np.float32, name
        assert g.dtype == np.float32 and expected[name].dtype == np.float64, name
        assert relative_error(g, expected[name]) < 1e-5, name


class TestFuseHalves:
    """The fuse layer as its per-vertex and pooled halves against the
    concatenated input of ``conftest.reference_evolution_forward``."""

    @staticmethod
    def params(rng):
        """:func:`default_params` with every evolution bias random too."""
        params = default_params(rng)
        for name in ("up_b", "detail_b", "local_b", "global_b", "fuse_b", "step_b", "cls_b"):
            getattr(params, name)[...] = rng.normal(scale=0.1, size=getattr(params, name).shape)
        return params

    @staticmethod
    def outputs(feats, params, a_off, a_valid):
        offsets, valid, cache = evo.forward(feats, params)
        grads = evo.backward(cache, params, d_offsets=a_off, d_valid=a_valid)
        return {"offsets": offsets, "valid": valid, **grads}

    @staticmethod
    def reference_outputs(feats, params, a_off, a_valid):
        """:meth:`outputs` of the reference, which takes the logit gradient
        of the zero-padded softmax gradient."""
        offsets, probs, cache = reference_evolution_forward(feats, params)
        d_logits = reference_valid_logit_grad(probs, a_valid)
        grads = reference_evolution_backward(cache, params, d_offsets=a_off, d_logits=d_logits)
        return {"offsets": offsets, "valid": probs[..., 1], **grads}

    @pytest.mark.parametrize("dtype, bound", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("batch", [1, 2, 5])
    def test_matches_concatenated_reference(self, dtype, bound, batch):
        rng = np.random.default_rng(48 + batch)
        params = self.params(rng)
        if dtype == np.float64:
            params = as_float64(params)
        feats = rng.normal(size=(batch, 64, 10))
        a_off = rng.normal(size=(batch, 64, 2)).astype(dtype)
        a_valid = rng.normal(size=(batch, 64)).astype(dtype)
        got = self.outputs(feats, params, a_off, a_valid)
        want = self.reference_outputs(feats, params, a_off, a_valid)
        assert len(got) == 16 and sorted(got) == sorted(want)
        for name, value in got.items():
            assert value.dtype == dtype and want[name].dtype == dtype, name
            assert value.shape == want[name].shape, name
            assert relative_error(value, want[name]) < bound, name

    def test_pooled_argmax_picks_the_maxima(self):
        rng = np.random.default_rng(49)
        params = self.params(rng)
        _, _, cache = evo.forward(rng.normal(size=(3, 64, 10)), params)
        f3 = cache["global_out"]
        picked = np.take_along_axis(f3, f3.argmax(axis=1)[:, None, :], axis=1)[:, 0]
        assert np.array_equal(picked, f3.max(axis=1))
        # the fuse layer adds the pooled half of those maxima onto every vertex
        width = f3.shape[-1]
        per_contour = picked[:, None, :] @ params.fuse_w[:, width:].T + params.fuse_b
        z4 = (f3.reshape(-1, width) @ params.fuse_w[:, :width].T).reshape(f3.shape) + per_contour
        assert np.array_equal(z4, cache["z4"])

    def test_contour_bits_do_not_depend_on_the_batch(self):
        rng = np.random.default_rng(50)
        params = self.params(rng)
        feats = rng.normal(size=(5, 64, 10))
        offsets, valid, _ = evo.forward(feats, params)
        for part in (slice(0, 1), slice(1, 3), slice(3, 5)):
            part_offsets, part_valid, _ = evo.forward(feats[part], params)
            assert np.array_equal(part_offsets, offsets[part])
            assert np.array_equal(part_valid, valid[part])

    def test_valid_gradient_is_the_zero_padded_softmax_gradient(self):
        """The float32 network and a float64 valid-probability gradient, as a
        training step passes them, against the reference fed the logit
        gradient of the zero-padded (B, N, 2) probability gradient, from one
        forward cache: the cls head's arrays bit for bit, every other array
        to float32 rounding, since the reference's fuse layer reads the
        concatenated input."""
        rng = np.random.default_rng(51)
        params = self.params(rng)
        feats = rng.normal(size=(3, 64, 10))
        d_valid = rng.normal(size=(3, 64))
        d_valid[0, :5] = 0.0  # clamped vertices, whose classification gradient is zero
        _, _, cache = evo.forward(feats, params)
        grads = evo.backward(cache, params, d_valid=d_valid)
        f3 = cache["global_out"]
        pooled = np.broadcast_to(f3.max(axis=1)[:, None, :], f3.shape)
        reference_cache = {**cache, "cat": np.concatenate([f3, pooled], axis=2), "pooled_argmax": f3.argmax(axis=1)}
        d_logits = reference_valid_logit_grad(cache["probs"], d_valid)
        assert d_logits.dtype == np.float64
        want = reference_evolution_backward(reference_cache, params, d_logits=d_logits)
        assert len(grads) == 12 and sorted(grads) == sorted(want)
        for name, value in want.items():
            assert grads[name].dtype == value.dtype == np.float32, name
            if name.startswith("cls_"):
                assert np.array_equal(grads[name], value), name
            else:
                assert relative_error(grads[name], value) < 1e-5, name
