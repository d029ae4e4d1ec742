import json

import numpy as np
import pytest

from polytrace import detection, pipeline, training
from polytrace import evolution as evo
from polytrace.config import RunConfig
from polytrace.synth import feature_provider

from conftest import as_float64, central_difference, flipped_kernel, relative_error

TINY = dict(
    n_vertices=16,
    encoder_width=16,
    center_hidden=8,
    offset_hidden=8,
    frame_width=64,
    frame_height=64,
    min_buildings=2,
    max_buildings=3,
    size_min=12.0,
    size_max=20.0,
    peak_threshold=0.05,
    max_detections=4,
    epochs_total=3,
    epochs_init=1,
    decay_epoch_1=2,
    decay_epoch_2=3,
    allow_nonstandard=True,
)


@pytest.fixture
def cfg():
    return RunConfig(**TINY)


@pytest.fixture
def params(cfg):
    """Untrained weights with random offset and evolution heads, so every
    stage moves the contour."""
    rng = np.random.default_rng(11)
    p = pipeline.PipelineParams.initialize(cfg, rng)
    p.offset_w3[...] = rng.normal(scale=0.1, size=p.offset_w3.shape)
    p.step_w[...] = rng.normal(scale=0.3, size=p.step_w.shape)
    p.cls_w[...] = rng.normal(scale=0.3, size=p.cls_w.shape)
    return p


def reference_predict(image, params, cfg):
    """One detection at a time: compose its contour, then evolve a batch of one.
    The offsets of every detection come from one :func:`pipeline.offset_forward`."""
    grid = feature_provider(image)
    heat, _ = pipeline.center_forward(grid, params)
    detections = detection.decode_peaks(heat, cfg.peak_threshold, cfg.max_detections)
    offsets, _ = pipeline.offset_forward(grid, [det.position for det in detections], params)
    out = []
    for det, off in zip(detections, offsets):
        pts = pipeline.initial_contours(off[None], det.position, cfg.expansion_factor)[0]
        for _ in range(2):
            feats = np.concatenate([evo.sample_features(grid[None], 0, pts), evo.relative_coords(pts)], axis=-1)
            offsets, probs, _ = evo.forward(feats[None], params)
            pts = pts + offsets[0]
        out.append((pts, probs[0, :, 1], det.score))
    return out


def test_predict_scene_matches_per_detection_reference(cfg, params):
    scene = training.make_dataset(cfg, 1)[0]
    preds = pipeline.predict_scene(scene.image, params, cfg)
    expected = reference_predict(scene.image, params, cfg)
    assert len(preds) >= 2
    assert len(preds) == len(expected)
    for pred, (points, valid, score) in zip(preds, expected):
        assert np.array_equal(pred.points, points)
        assert np.array_equal(pred.vertex_scores, valid)
        assert pred.score == score


def test_predict_scene_rejects_non_finite_contours(cfg, params):
    params.step_b[:] = np.nan
    scene = training.make_dataset(cfg, 1)[0]
    with pytest.raises(ValueError), np.errstate(invalid="ignore"):
        pipeline.predict_scene(scene.image, params, cfg)


def test_training_and_inference_share_stage_points(cfg, params, monkeypatch):
    bundle = training.prepare_scene(training.make_dataset(cfg, 1)[0], cfg)
    centers = [inst.center for inst in bundle.instances]
    seen = []

    def recording(*args, **kwargs):
        seen.append(pipeline.evolve_contours(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(training, "evolve_contours", recording)
    training.scene_loss([bundle], params, cfg)
    (stages, probs, _), = seen

    # inference decoding the same centers evolves the same contours
    detections = [detection.CenterDetection(c, 0.5) for c in centers]
    monkeypatch.setattr(pipeline, "decode_peaks", lambda *args: detections)
    image = training.make_dataset(cfg, 1)[0].image
    preds = pipeline.predict_scene(image, params, cfg)
    assert np.array_equal(np.stack([p.points for p in preds]), stages[-1])
    assert np.array_equal(np.stack([p.vertex_scores for p in preds]), probs[:, :, 1])
    offsets, _ = pipeline.offset_forward(bundle.features, centers, params)
    assert np.array_equal(stages[0], pipeline.initial_contours(offsets, centers, cfg.expansion_factor))


def test_checkpoint_round_trip_is_byte_identical(cfg, params, tmp_path):
    first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    pipeline.save_checkpoint(params, first, {"seed": 3})
    loaded, meta = pipeline.load_checkpoint(first, cfg)
    pipeline.save_checkpoint(loaded, second, meta)
    assert meta == {"seed": 3}
    assert first.read_bytes() == second.read_bytes()
    for (name, a), (_, b) in zip(params.arrays(), loaded.arrays()):
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


def test_checkpoint_stores_each_array_in_its_dtype(cfg, params, tmp_path):
    path = tmp_path / "a.ckpt"
    pipeline.save_checkpoint(params, path)
    magic, header, body = path.read_bytes().split(b"\n", 2)
    entries = {entry["name"]: entry for entry in json.loads(header)["arrays"]}
    assert magic == b"PTCK0004"
    for name, arr in params.arrays():
        assert entries[name]["dtype"] == ("<f8" if name.startswith(("center_", "offset_")) else "<f4"), name
    assert len(body) == sum(arr.nbytes for _, arr in params.arrays())
    loaded, _ = pipeline.load_checkpoint(path, cfg)
    for name, arr in loaded.arrays():
        assert arr.dtype == getattr(params, name).dtype, name


def test_checkpoint_of_another_dtype_rejected(cfg, params, tmp_path):
    path = tmp_path / "a.ckpt"
    params.global_w = params.global_w.astype(np.float64)
    pipeline.save_checkpoint(params, path)
    with pytest.raises(ValueError, match="'global_w'.*<f8.*<f4"):
        pipeline.load_checkpoint(path, cfg)


@pytest.mark.parametrize(
    "field, value, array", [("n_vertices", 32, "offset_b3"), ("feature_channels", 5, "center_w1")]
)
def test_checkpoint_of_another_config_rejected(params, tmp_path, field, value, array):
    path = tmp_path / "a.ckpt"
    pipeline.save_checkpoint(params, path)
    with pytest.raises(ValueError, match=f"'{array}'"):
        pipeline.load_checkpoint(path, RunConfig(**{**TINY, field: value}))


def test_checkpoint_missing_an_array_rejected(cfg, params, tmp_path):
    path = tmp_path / "a.ckpt"
    pipeline.save_checkpoint(params, path)
    magic, header, body = path.read_bytes().split(b"\n", 2)
    meta = json.loads(header)
    dropped = meta["arrays"].pop()
    size = np.dtype(dropped["dtype"]).itemsize * int(np.prod(dropped["shape"]))
    path.write_bytes(b"\n".join([magic, json.dumps(meta).encode(), body[:-size]]))
    with pytest.raises(ValueError, match=dropped["name"]):
        pipeline.load_checkpoint(path, cfg)


@pytest.mark.parametrize("magic", [b"PTCK0001", b"PTCK0002", b"PTCK0003"])
def test_older_checkpoint_versions_rejected(tmp_path, magic):
    # the shape check alone would pass: every kernel here is (3, 3, 3, 3) in either layout
    small = RunConfig(**{**TINY, "feature_channels": 3, "center_hidden": 3, "offset_hidden": 3, "encoder_width": 3})
    path = tmp_path / "a.ckpt"
    pipeline.save_checkpoint(pipeline.PipelineParams.initialize(small, np.random.default_rng(0)), path)
    path.write_bytes(path.read_bytes().replace(pipeline.CHECKPOINT_MAGIC, magic, 1))
    with pytest.raises(ValueError, match=f"{magic.decode()}.*PTCK0004"):
        pipeline.load_checkpoint(path, small)


def reference_initialize(cfg, rng):
    """Every array of a fresh model, drawn in the order of the two-part
    parameter layout: center and offset head kernels, then the evolution
    network's. Each kernel is drawn as (C_out, C_in, *window) and stored
    transposed."""
    c, h1, h2, n, w = (
        cfg.feature_channels, cfg.center_hidden, cfg.offset_hidden, cfg.n_vertices, cfg.encoder_width
    )

    def uniform(shape, fan):
        return rng.uniform(-np.sqrt(1.0 / fan), np.sqrt(1.0 / fan), size=shape)

    named = {"center_w1": uniform((h1, c, 3, 3), 9 * c).transpose(2, 3, 1, 0)}
    named["center_w2"] = uniform((1, h1), h1)
    named["offset_w1"] = uniform((h2, c, 3, 3), 9 * c).transpose(2, 3, 1, 0)
    named["offset_w2"] = uniform((h2, h2, 3, 3), 9 * h2).transpose(2, 3, 1, 0)
    named["up_w"] = uniform((w, c + 2), c + 2)
    for name, k in (("detail", 3), ("local", 9), ("global", 21)):
        named[f"{name}_w"] = uniform((w, w, k), k * w).transpose(2, 1, 0)
    named["fuse_w"] = uniform((w, 2 * w), 2 * w)
    named.update(
        center_b1=np.zeros(h1), center_b2=np.full(1, np.log(0.1 / 0.9)),
        offset_b1=np.zeros(h2), offset_b2=np.zeros(h2),
        offset_w3=np.zeros((2 * n, h2)), offset_b3=np.zeros(2 * n),
        step_w=np.zeros((2, w)), step_b=np.zeros(2), cls_w=np.zeros((2, w)), cls_b=np.zeros(2),
    )
    named.update({f"{name}_b": np.zeros(w) for name in ("up", "detail", "local", "global", "fuse")})
    return named


def test_initialize_draws_in_the_reference_order(cfg):
    named = dict(pipeline.PipelineParams.initialize(cfg, np.random.default_rng(3)).arrays())
    expected = reference_initialize(cfg, np.random.default_rng(3))
    assert len(named) == 24
    assert sorted(named) == sorted(expected)
    for name, arr in named.items():
        # the heads are stored in float64, the evolution network in float32
        dtype = np.float64 if name.startswith(("center_", "offset_")) else np.float32
        assert arr.dtype == dtype, name
        assert np.array_equal(arr, expected[name].astype(dtype)), name


KERNELS = ("center_w1", "offset_w1", "offset_w2", "detail_w", "local_w", "global_w")


def test_kernels_are_stored_in_gemm_layout(cfg, params):
    named = dict(params.arrays())
    assert sorted(name for name, arr in named.items() if arr.ndim > 2) == sorted(KERNELS)
    for name in KERNELS:
        assert np.shares_memory(evo.kernel_matrix(named[name]), named[name]), name
    bundle = training.prepare_scene(training.make_dataset(cfg, 1)[0], cfg)
    _, grads = training.scene_loss([bundle], params, cfg)
    for name in KERNELS:
        assert grads[name].shape == named[name].shape, name
        assert grads[name].flags.c_contiguous, name


def reference_optimizer_steps(kind, named, grad_steps, learning_rate):
    """The optimizers' update formulas, each step building new state arrays."""
    first, second = {}, {}
    for t, grads in enumerate(grad_steps, start=1):
        for name, arr in named.items():
            g = grads[name]
            if kind == "momentum":
                vel = first.get(name, np.zeros_like(arr))
                vel = 0.9 * vel + g
                first[name] = vel
                arr -= learning_rate * vel
            else:
                b1, b2 = 0.9, 0.999
                m = first.get(name, np.zeros_like(arr))
                v = second.get(name, np.zeros_like(arr))
                m = b1 * m + (1 - b1) * g
                v = b2 * v + (1 - b2) * g * g
                first[name], second[name] = m, v
                m_hat = m / (1 - b1**t)
                v_hat = v / (1 - b2**t)
                arr -= learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)


@pytest.mark.parametrize("kind", ["momentum", "adam"])
def test_optimizer_steps_match_reference_formulas(params, kind):
    rng = np.random.default_rng(5)
    named = {name: arr.copy() for name, arr in params.arrays()}
    grad_steps = [
        {name: rng.normal(size=arr.shape).astype(arr.dtype) for name, arr in named.items()} for _ in range(3)
    ]
    if kind == "momentum":
        optimizer = training.MomentumSGD(0.01, momentum=0.9)
    else:
        optimizer = training.Adam(0.01, beta1=0.9, beta2=0.999, eps=1e-8)
    for grads in grad_steps:
        optimizer.step(params, grads)
    reference_optimizer_steps(kind, named, grad_steps, 0.01)
    for name, arr in params.arrays():
        assert arr.dtype == named[name].dtype, name
        assert np.array_equal(arr, named[name]), name


def test_train_step_keeps_every_dtype(cfg, params):
    dtypes = {name: arr.dtype for name, arr in params.arrays()}
    bundles = [training.prepare_scene(s, cfg, i) for i, s in enumerate(training.make_dataset(cfg, 2))]
    for kind in ("momentum", "adam"):
        training.train_step(bundles, params, training.make_optimizer(RunConfig(**TINY, optimizer=kind)), cfg)
        for name, arr in params.arrays():
            assert arr.dtype == dtypes[name], (kind, name)
    assert {dtypes[name] for name in head_names(params)} == {np.dtype(np.float64)}
    assert {dtypes[name] for name, _ in params.arrays() if name not in head_names(params)} == {np.dtype(np.float32)}


def two_bundles(cfg):
    """Prepared bundles of the first two scenes of the config's dataset
    whose building counts differ."""
    scenes = training.make_dataset(cfg, 6)
    first = scenes[0]
    second = next(s for s in scenes if len(s.buildings) != len(first.buildings))
    return [training.prepare_scene(s, cfg, i) for i, s in enumerate((first, second))]


@pytest.mark.parametrize("train_evolution", [True, False])
def test_step_batch_equals_mean_of_single_scenes(cfg, params, train_evolution):
    """All contours of a step evolved as one batch give the mean of the
    scenes' losses and gradients, each scene taken alone."""
    wide = as_float64(params)
    bundles = two_bundles(cfg)
    assert len(bundles[0].instances) != len(bundles[1].instances)
    components, grads = training.scene_loss(bundles, wide, cfg, train_evolution)
    alone = [training.scene_loss([b], wide, cfg, train_evolution) for b in bundles]
    for name, value in components.items():
        assert relative_error(value, np.mean([c[name] for c, _ in alone])) < 1e-12, name
    assert sorted(grads) == sorted(alone[0][1]) == sorted(alone[1][1])
    if not train_evolution:
        assert sorted(grads) == sorted(head_names(params))
    for name, g in grads.items():
        assert g.dtype == np.float64, name
        assert relative_error(g, (alone[0][1][name] + alone[1][1][name]) / 2) < 1e-12, name


def test_train_step_runs_one_evolution_pass_per_round(cfg, params, monkeypatch):
    calls = {"forward": 0, "backward": 0}

    def counted(name):
        original = getattr(evo, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(evo, name, counted(name))
    training.train_step(two_bundles(cfg), params, training.make_optimizer(cfg), cfg)
    assert calls == {"forward": pipeline.EVOLUTION_ROUNDS, "backward": pipeline.EVOLUTION_ROUNDS}


def test_step_evolution_gradient_sums_both_rounds(cfg, params, monkeypatch):
    backward, rounds = evo.backward, []

    def recording(*args, **kwargs):
        grads = backward(*args, **kwargs)
        rounds.append({name: g.copy() for name, g in grads.items()})
        return grads

    monkeypatch.setattr(evo, "backward", recording)
    _, grads = training.scene_loss(two_bundles(cfg), params, cfg)
    last, first = rounds  # the last round is backpropagated first
    assert sorted(first) == sorted(set(last) - {"cls_w", "cls_b"})
    for name, g in last.items():
        assert np.array_equal(grads[name], g + first[name] if name in first else g), name
    assert np.any(first["step_w"]) and np.any(last["step_w"])


def test_large_evolution_gradient_is_scaled_to_the_norm_bound(cfg, params, monkeypatch):
    wide = as_float64(params)
    bundles = two_bundles(cfg)
    _, grads = training.scene_loss(bundles, wide, cfg)
    evolution = [name for name in grads if name not in head_names(params)]
    norm = np.sqrt(sum(np.vdot(grads[name], grads[name]) for name in evolution))
    assert norm < training.EVOLUTION_GRAD_NORM_MAX
    monkeypatch.setattr(training, "EVOLUTION_GRAD_NORM_MAX", norm / 4)
    _, clipped = training.scene_loss(bundles, wide, cfg)
    for name in head_names(params):
        assert np.array_equal(clipped[name], grads[name]), name
    for name in evolution:
        assert relative_error(clipped[name], grads[name] / 4) < 1e-12, name


def test_scene_loss_rejects_a_scene_without_buildings(cfg, params):
    bundle = training.prepare_scene(training.make_dataset(cfg, 1)[0], cfg)
    bundle.instances = []
    bundle.heat_target = np.zeros_like(bundle.heat_target)
    with pytest.raises(ValueError, match="no keypoints"):
        training.scene_loss([bundle], params, cfg)


def test_head_training_does_not_depend_on_the_evolution_network(cfg, params):
    bundles = [training.prepare_scene(s, cfg, i) for i, s in enumerate(training.make_dataset(cfg, 2))]
    perturbed = pipeline.PipelineParams.from_arrays({name: arr.copy() for name, arr in params.arrays()})
    rng = np.random.default_rng(3)
    for name, arr in perturbed.arrays():
        if name not in head_names(params):
            arr += rng.normal(scale=0.05, size=arr.shape).astype(arr.dtype)
    fitted, _ = training.fit(bundles, cfg, params=params)
    other, _ = training.fit(bundles, cfg, params=perturbed)
    assert cfg.epochs_init < cfg.epochs_total  # the evolution network trains too
    for name in head_names(params):
        assert np.array_equal(getattr(fitted, name), getattr(other, name)), name
    assert not np.array_equal(fitted.step_w, other.step_w)


def test_float32_fit_matches_float64_fit(cfg, params):
    """A fit of the stored float32 evolution network against one of the
    same arrays cast to float64; both start from the same weights."""
    bundles = [training.prepare_scene(s, cfg, i) for i, s in enumerate(training.make_dataset(cfg, 2))]
    wide = as_float64(params)
    _, history = training.fit(bundles, cfg, params=params)
    _, expected = training.fit(bundles, cfg, params=wide)
    assert len(history) == cfg.epochs_total
    assert relative_error(history, expected) < 1e-6


def test_fit_is_deterministic_for_a_seed(cfg, tmp_path):
    bundles = [training.prepare_scene(s, cfg, i) for i, s in enumerate(training.make_dataset(cfg, 2))]
    paths = []
    for run in range(2):
        model, history = training.fit(bundles, cfg)
        assert len(history) == cfg.epochs_total and np.all(np.isfinite(history))
        paths.append(tmp_path / f"fit{run}.ckpt")
        pipeline.save_checkpoint(model, paths[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes()


def cell_centers(cells, rng):
    """Full-resolution centers at random positions inside the (row, col) cells."""
    cells = np.asarray(cells, dtype=float)
    return (cells[:, ::-1] + rng.uniform(0.0, 1.0, size=cells.shape)) * detection.STRIDE


def full_grid_offsets(grid, centers, params):
    """The offset head run over the whole grid and read at the center cells;
    returns (offsets, cache)."""
    z1 = evo.conv(grid, params.offset_w1, params.offset_b1, "constant")
    a1 = np.maximum(z1, 0.0)
    z2 = evo.conv(a1, params.offset_w2, params.offset_b2, "constant")
    a2 = np.maximum(z2, 0.0)
    offmap = a2 @ params.offset_w3.T + params.offset_b3
    return offmap[pipeline.center_cells(centers)], (grid, z1, a1, z2, a2)


def full_grid_backward(cache, centers, params, d_offsets):
    """Gradients of :func:`full_grid_offsets`: the rows scattered into a zero
    offset map, a shared cell accumulating, then backpropagated over the grid."""
    grid, z1, a1, z2, a2 = cache
    d_offmap = np.zeros(a2.shape[:2] + d_offsets.shape[1:])
    np.add.at(d_offmap, pipeline.center_cells(centers), d_offsets)
    grads = {
        "offset_w3": d_offmap.reshape(-1, d_offsets.shape[1]).T @ a2.reshape(-1, a2.shape[-1]),
        "offset_b3": d_offmap.sum(axis=(0, 1)),
    }
    d_z2 = (d_offmap @ params.offset_w3) * (z2 > 0)
    grads["offset_w2"], grads["offset_b2"] = evo.conv_weight_grad(d_z2, a1, params.offset_w2, "constant")
    d_z1 = evo.conv(d_z2, flipped_kernel(params.offset_w2), 0.0, "constant") * (z1 > 0)
    grads["offset_w1"], grads["offset_b1"] = evo.conv_weight_grad(d_z1, grid, params.offset_w1, "constant")
    return grads


def random_head(rng, **sizes):
    """Parameters whose offset head has random weights and biases, so that
    some ReLUs are off at every layer."""
    cfg = RunConfig(allow_nonstandard=True, **sizes)
    params = pipeline.PipelineParams.initialize(cfg, rng)
    for name, value in params.arrays():
        if name.startswith("offset_"):
            value[...] = rng.normal(scale=0.5, size=value.shape)
    return params


def head_names(params):
    """Names of the center and offset head parameters."""
    return [name for name, _ in params.arrays() if name.startswith(("center_", "offset_"))]


def test_sparse_offset_head_matches_full_grid_head():
    rng = np.random.default_rng(8)
    params = random_head(rng, n_vertices=8, feature_channels=3, offset_hidden=5)
    grid = rng.normal(size=(5, 7, 3))  # non-square, so a swapped axis or a wrong border fails
    # every cell, corners included, then a second center in a corner cell and in an inner cell
    cells = [(r, c) for r in range(5) for c in range(7)] + [(4, 0), (2, 3)]
    centers = cell_centers(cells, rng)
    offsets, cache = pipeline.offset_forward(grid, centers, params)
    expected, ref_cache = full_grid_offsets(grid, centers, params)
    assert offsets.shape == (len(cells), 16)
    assert relative_error(offsets, expected) < 1e-12

    d_offsets = rng.normal(size=offsets.shape)
    grads = pipeline.offset_backward(cache, params, d_offsets)
    ref = full_grid_backward(ref_cache, centers, params, d_offsets)
    assert sorted(grads) == sorted(ref)
    for name, g in ref.items():
        assert grads[name].shape == g.shape
        assert relative_error(grads[name], g) < 1e-12, name


def test_head_gradients_against_finite_differences():
    rng = np.random.default_rng(45)
    params = random_head(rng, n_vertices=4, feature_channels=3, center_hidden=4, offset_hidden=4)
    grid = rng.normal(size=(5, 7, 3))  # non-square, so a swapped axis or a wrong border fails
    # two corner cells, an edge cell, and an inner cell read by two centers
    centers = cell_centers([(0, 0), (4, 6), (3, 0), (2, 3), (2, 3)], rng)
    a_heat = rng.normal(size=(5, 7))
    a_off = rng.normal(size=(5, 8))

    def probe_loss():
        heat, _ = pipeline.center_forward(grid, params)
        offsets, _ = pipeline.offset_forward(grid, centers, params)
        return float((a_heat * heat).sum() + (a_off * offsets).sum())

    _, c_cache = pipeline.center_forward(grid, params)
    _, o_cache = pipeline.offset_forward(grid, centers, params)
    grads = pipeline.center_backward(c_cache, params, a_heat)
    grads.update(pipeline.offset_backward(o_cache, params, a_off))
    assert len(head_names(params)) == 10
    assert sorted(grads) == sorted(head_names(params))
    for name in head_names(params):
        value = getattr(params, name)

        def f(arr, value=value):
            saved = value.copy()
            value[...] = arr
            try:
                return probe_loss()
            finally:
                value[...] = saved

        assert relative_error(grads[name], central_difference(f, value)) < 1e-6, name
