"""Detection heads, the model parameters, the contour forward, checkpoint
files and whole-image inference.

The trainable model is three pieces sharing the handcrafted feature grid:
a center head (3x3 conv, ReLU, 1x1 conv, sigmoid) producing the keypoint
heatmap over the whole grid, an offset head (two 3x3 convs with ReLU, then
a 2N-channel 1x1) producing each initial contour's offsets from the
features around its center cell, and the contour-evolution micro-network
applied for ``EVOLUTION_ROUNDS`` rounds. Their weights are the fields of
one flat :class:`PipelineParams`, whose :meth:`~PipelineParams.layout`
gives every shape and dtype: the heads are float64, the evolution network
float32. Every 3x3 kernel is stored as (3, 3, C_in, C_out), the layout
:func:`evolution.kernel_matrix` reads. The center head's 3x3 layer is
:func:`evolution.conv` with zero padding and takes only
:func:`evolution.conv_weight_grad`, since nothing uses the gradient of the
feature grid. The offset head is evaluated only at the center cells, in
training and inference alike: its first layer at the 3x3 neighbours of
each cell, from the 5x5 zero-padded patch around it, and the rest at the
cell, so its cost grows with the number of centers, not the grid.

:func:`evolve_contours` is the one contour forward of training and
inference. It composes every initial contour as
``center + gamma * STRIDE * offset`` and evolves all of them as one
(B, N, 2) batch, each contour sampling the feature grid of its own scene
from a stack of grids. Training passes the ground-truth bbox centers of
every scene of a step, so a step runs one evolution forward and one
backward per round, and backpropagates through the returned caches;
:func:`predict_scene` passes its one grid as a stack of one and the decoded
peak positions, and runs the offset head for those only.

Checkpoint format (version 4): the ASCII magic line ``PTCK0004``, one JSON
header line listing array names, shapes and dtypes (``<f4`` or ``<f8``)
plus free-form metadata, then the raw row-major little-endian buffers, each
in its own dtype, concatenated in header order and named as the
:class:`PipelineParams` fields. Loading checks the magic, then the header
against the names, shapes and dtypes :meth:`PipelineParams.layout` gives
for the run configuration. Older versions are rejected: version 1 stored
kernels as (C_out, C_in, *window), which a shape check cannot tell apart
when a kernel's dimensions coincide, version 2 named the evolution arrays
``evolution.*``, and version 3 stored every array as float64.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from . import evolution as evo
from .config import RunConfig
from .detection import STRIDE, decode_peaks
from .synth import feature_provider

CHECKPOINT_MAGIC = b"PTCK0004"

# the training objective supervises exactly two rounds: smooth L1 after the
# first, dynamic matching and vertex classification after the second
EVOLUTION_ROUNDS = 2


# The evolution network computes in the dtype of its arrays (see
# :mod:`evolution`); float32 halves the bytes its GEMMs move. The center and
# offset heads stay float64: decode_peaks breaks no plateau ties, so heads
# rounded to float32 could change which cells are detected.
HEAD_DTYPE = np.float64
EVOLUTION_DTYPE = np.float32


@dataclass
class PipelineParams:
    """Every weight of the model; :meth:`layout` gives their shapes and
    dtypes. Every 3x3 kernel is (3, 3, C_in, C_out) and every circular
    kernel (k, W_in, W_out); ``fuse_w`` reads the pooled vector in the
    second half of its 2W inputs."""

    center_w1: np.ndarray
    center_b1: np.ndarray
    center_w2: np.ndarray
    center_b2: np.ndarray
    offset_w1: np.ndarray
    offset_b1: np.ndarray
    offset_w2: np.ndarray
    offset_b2: np.ndarray
    offset_w3: np.ndarray
    offset_b3: np.ndarray
    up_w: np.ndarray
    up_b: np.ndarray
    detail_w: np.ndarray
    detail_b: np.ndarray
    local_w: np.ndarray
    local_b: np.ndarray
    global_w: np.ndarray
    global_b: np.ndarray
    fuse_w: np.ndarray
    fuse_b: np.ndarray
    step_w: np.ndarray
    step_b: np.ndarray
    cls_w: np.ndarray
    cls_b: np.ndarray

    @staticmethod
    def layout(cfg: RunConfig) -> dict:
        """Field name -> (shape, dtype) of every array, in field order, for C
        feature channels, head widths H1 and H2, N vertices and evolution
        encoder width W; the heads are ``HEAD_DTYPE``, the evolution network
        ``EVOLUTION_DTYPE``."""
        c = cfg.feature_channels
        h1, h2 = cfg.center_hidden, cfg.offset_hidden
        n, w = cfg.n_vertices, cfg.encoder_width
        heads = dict(
            center_w1=(3, 3, c, h1), center_b1=(h1,), center_w2=(1, h1), center_b2=(1,),
            offset_w1=(3, 3, c, h2), offset_b1=(h2,), offset_w2=(3, 3, h2, h2), offset_b2=(h2,),
            offset_w3=(2 * n, h2), offset_b3=(2 * n,),
        )
        evolution = dict(
            up_w=(w, c + 2), up_b=(w,), detail_w=(3, w, w), detail_b=(w,),
            local_w=(9, w, w), local_b=(w,), global_w=(21, w, w), global_b=(w,),
            fuse_w=(w, 2 * w), fuse_b=(w,), step_w=(2, w), step_b=(2,), cls_w=(2, w), cls_b=(2,),
        )
        return {
            **{name: (shape, np.dtype(HEAD_DTYPE)) for name, shape in heads.items()},
            **{name: (shape, np.dtype(EVOLUTION_DTYPE)) for name, shape in evolution.items()},
        }

    @classmethod
    def initialize(cls, cfg: RunConfig, rng=None) -> "PipelineParams":
        """Fresh parameters drawn in float64 in field order, then stored in
        their :meth:`layout` dtype: weights uniform in +-sqrt(1/fan_in);
        biases, the last offset layer and both evolution heads zero, so the
        first evolution step is the identity."""
        rng = np.random.default_rng() if rng is None else rng
        named = {}
        for name, (shape, dtype) in cls.layout(cfg).items():
            if "_b" in name or name in ("offset_w3", "step_w", "cls_w"):
                drawn = np.zeros(shape)
            elif len(shape) > 2:
                # a (*window, C_in, C_out) kernel is drawn in (C_out, C_in, *window) order,
                # so a seed gives the same weights in either layout
                a = np.sqrt(1.0 / np.prod(shape[:-1]))
                drawn = rng.uniform(-a, a, size=(shape[-1], shape[-2], *shape[:-2]))
                drawn = drawn.transpose(*range(2, len(shape)), 1, 0)
            else:
                a = np.sqrt(1.0 / shape[1])
                drawn = rng.uniform(-a, a, size=shape)
            named[name] = np.ascontiguousarray(drawn, dtype=dtype)
        # bias the sigmoid toward the background prior of 0.1
        named["center_b2"][:] = np.log(0.1 / 0.9)
        return cls(**named)

    def arrays(self):
        """Ordered (name, array) pairs over the whole model."""
        for f in fields(self):
            yield f.name, getattr(self, f.name)

    @classmethod
    def from_arrays(cls, named: dict) -> "PipelineParams":
        """Parameters from a name -> array mapping; every array keeps its dtype."""
        return cls(**{f.name: np.asarray(named[f.name]) for f in fields(cls)})


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def center_forward(grid, params: PipelineParams):
    """Feature grid -> keypoint heatmap in (0, 1); returns (heatmap, cache)."""
    z1 = evo.conv(grid, params.center_w1, params.center_b1, "constant")
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ params.center_w2.T + params.center_b2
    heat = _sigmoid(z2[..., 0])
    return heat, {"grid": grid, "z1": z1, "a1": a1, "heat": heat}


def center_backward(cache, params: PipelineParams, d_heat):
    heat = cache["heat"]
    d_z2 = (d_heat * heat * (1.0 - heat))[..., None]
    a1 = cache["a1"]
    grads = {
        "center_w2": d_z2.reshape(-1, 1).T @ a1.reshape(-1, a1.shape[-1]),
        "center_b2": d_z2.sum(axis=(0, 1)),
    }
    d_a1 = d_z2 @ params.center_w2
    d_z1 = d_a1 * (cache["z1"] > 0)
    d_w1, d_b1 = evo.conv_weight_grad(d_z1, cache["grid"], params.center_w1, "constant")
    grads["center_w1"] = d_w1
    grads["center_b1"] = d_b1
    return grads


def _neighbourhood_columns(grid, rows, cols) -> np.ndarray:
    """(9B, 9C) im2col columns of a 3x3 layer at the 3x3 neighbours of each
    cell (rows[b], cols[b]) of an (R, W, C) grid, neighbour-major: the 5x5
    zero-padded patch around the cell that one output of two stacked 3x3
    layers sees."""
    padded = np.pad(grid, ((2, 2), (2, 2), (0, 0)))
    span = np.arange(3)
    # neighbour (i, j) of cell (r, c) reads its tap (dy, dx) at padded[r + i + dy, c + j + dx]
    r = rows[:, None, None, None, None] + span[:, None, None, None] + span[:, None]
    c = cols[:, None, None, None, None] + span[:, None, None] + span
    return padded[r, c].reshape(9 * rows.size, 9 * grid.shape[-1])


def _neighbours_inside(rows, cols, shape) -> np.ndarray:
    """(9B, 1) mask of the 3x3 neighbours of each cell that lie in the grid."""
    span = np.arange(-1, 2)
    r, c = rows[:, None] + span, cols[:, None] + span
    inside = ((r >= 0) & (r < shape[0]))[:, :, None] & ((c >= 0) & (c < shape[1]))[:, None, :]
    return inside.reshape(-1, 1)


def offset_forward(grid, centers, params: PipelineParams):
    """(B, 2N) offsets of the initial contours of (B, 2) full-resolution
    centers, read at their :func:`center_cells`; returns (offsets, cache).

    The head is evaluated only where its output is read: the 1x1 layer and
    the second 3x3 layer at each center cell, the first 3x3 layer at that
    cell's 3x3 neighbours. A neighbour outside the grid reads zero, as the
    zero padding of a full-grid convolution makes it. Two centers in one
    cell get one row each.
    """
    rows, cols = center_cells(centers)
    cols1 = _neighbourhood_columns(grid, rows, cols)
    z1 = cols1 @ evo.kernel_matrix(params.offset_w1) + params.offset_b1
    a1 = np.where(_neighbours_inside(rows, cols, grid.shape), np.maximum(z1, 0.0), 0.0)
    z2 = a1.reshape(rows.size, 9 * a1.shape[-1]) @ evo.kernel_matrix(params.offset_w2) + params.offset_b2
    a2 = np.maximum(z2, 0.0)
    offsets = a2 @ params.offset_w3.T + params.offset_b3
    return offsets, {"cols1": cols1, "a1": a1, "a2": a2}


def offset_backward(cache, params: PipelineParams, d_offsets):
    """Head gradients from the (B, 2N) gradient of :func:`offset_forward`'s
    offsets; the rows of centers sharing a cell add up."""
    a1, a2 = cache["a1"], cache["a2"]
    grads = {"offset_w3": d_offsets.T @ a2, "offset_b3": d_offsets.sum(axis=0)}
    d_z2 = (d_offsets @ params.offset_w3) * (a2 > 0)
    cols2 = a1.reshape(a2.shape[0], 9 * a1.shape[-1])
    grads["offset_w2"], grads["offset_b2"] = evo.kernel_grad(cols2, d_z2, params.offset_w2)
    d_a1 = (d_z2 @ evo.kernel_matrix(params.offset_w2).T).reshape(a1.shape)
    d_z1 = d_a1 * (a1 > 0)
    grads["offset_w1"], grads["offset_b1"] = evo.kernel_grad(cache["cols1"], d_z1, params.offset_w1)
    return grads


def center_cells(centers) -> tuple:
    """(rows, cols) of the stride-4 cells containing (B, 2) full-resolution
    centers; the cells at which the offset head composes the initial contours."""
    c = np.asarray(centers, dtype=float).reshape(-1, 2)
    return (c[:, 1] // STRIDE).astype(int), (c[:, 0] // STRIDE).astype(int)


def initial_contours(offsets, centers, gamma: float) -> np.ndarray:
    """(B, N, 2) initial contours around (B, 2) full-resolution centers from
    their (B, 2N) stride-4 offsets; offsets become pixels through the stride
    and the expansion factor."""
    c = np.asarray(centers, dtype=float).reshape(-1, 2)
    return c[:, None, :] + (gamma * STRIDE) * offsets.reshape(c.shape[0], -1, 2)


def evolve_contours(grids, scenes, offsets, centers, params: PipelineParams, gamma: float):
    """Compose the initial contours at ``centers`` from their (B, 2N)
    :func:`offset_forward` offsets and evolve them as a batch.

    ``grids`` is the (S, R, W, C) stack of the feature grids of the scenes
    the contours come from, and ``scenes`` the (B,) index into it of each
    contour's scene, whose grid that contour samples. Returns (stages, probs,
    caches): ``stages`` holds the (B, N, 2) points of the initial contours
    and of every round, ``probs`` the (B, N, 2) vertex class probabilities
    of the last round (valid class last), and ``caches`` the
    :func:`evolution.forward` cache of every round.
    """
    stages = [initial_contours(offsets, centers, gamma)]
    caches = []
    for _ in range(EVOLUTION_ROUNDS):
        feats = evo.vertex_features(grids, scenes, stages[-1])
        step, probs, cache = evo.forward(feats, params)
        stages.append(stages[-1] + step)
        caches.append(cache)
    return stages, probs, caches


def save_checkpoint(params: PipelineParams, path, meta: dict | None = None):
    """Write a version-4 checkpoint; byte output is deterministic."""
    entries = []
    buffers = []
    for name, arr in params.arrays():
        a = np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))
        entries.append({"name": name, "shape": list(a.shape), "dtype": a.dtype.str})
        buffers.append(a.tobytes())
    header = json.dumps({"arrays": entries, "meta": meta or {}}, sort_keys=True)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + b"\n")
        fh.write(header.encode("utf-8") + b"\n")
        for buf in buffers:
            fh.write(buf)


def load_checkpoint(path, cfg: RunConfig):
    """Read a checkpoint; returns (PipelineParams, meta).

    Raises ValueError when the magic line is not this version's, naming
    both, and, naming the array, when the checkpoint's array names, shapes
    or dtypes differ from the :meth:`PipelineParams.layout` of ``cfg``.
    """
    layout = PipelineParams.layout(cfg)
    expected = {name: (shape, dtype.newbyteorder("<").str) for name, (shape, dtype) in layout.items()}
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"unsupported checkpoint magic {magic!r}: only {CHECKPOINT_MAGIC!r} is read")
        header = json.loads(fh.readline().decode("utf-8"))
        found = {entry["name"]: (tuple(entry["shape"]), entry.get("dtype")) for entry in header["arrays"]}
        for name in sorted(expected.keys() | found.keys()):
            got_shape, got_dtype = found.get(name, ("missing", None))
            want_shape, want_dtype = expected.get(name, ("none", None))
            if got_shape != want_shape:
                raise ValueError(
                    f"checkpoint array {name!r} does not fit the config: shape"
                    f" {got_shape} in the file, {want_shape} expected"
                )
            if got_dtype != want_dtype:
                raise ValueError(
                    f"checkpoint array {name!r} does not fit the model: dtype"
                    f" {got_dtype} in the file, {want_dtype} expected"
                )
        named = {}
        for entry in header["arrays"]:
            name, shape = entry["name"], tuple(entry["shape"])
            stored = np.dtype(entry["dtype"])
            size = int(np.prod(shape)) * stored.itemsize
            buf = fh.read(size)
            if len(buf) != size:
                raise ValueError(f"checkpoint truncated at array {name!r}")
            named[name] = np.frombuffer(buf, dtype=stored).reshape(shape).astype(layout[name][1])
    return PipelineParams.from_arrays(named), header.get("meta", {})


@dataclass
class ScenePrediction:
    """One detected building: evolved ring, vertex scores, detection score."""

    points: np.ndarray          # (N, 2)
    vertex_scores: np.ndarray   # (N,)
    score: float


def predict_scene(image, params: PipelineParams, cfg: RunConfig) -> list:
    """Detect centers, compose initial contours, evolve them.

    Returns predictions sorted by descending detection score (the decoding
    order), one per surviving heatmap peak; every detection of the image is
    evolved in one batch.
    """
    grid = feature_provider(image)
    heat, _ = center_forward(grid, params)
    detections = decode_peaks(heat, cfg.peak_threshold, cfg.max_detections)
    if not detections:
        return []
    centers = np.stack([det.position for det in detections])
    offsets, _ = offset_forward(grid, centers, params)
    scenes = np.zeros(len(detections), dtype=int)
    stages, probs, _ = evolve_contours(grid[None], scenes, offsets, centers, params, cfg.expansion_factor)
    if not np.all(np.isfinite(stages[-1])):
        raise ValueError("evolved contours have non-finite coordinates")
    return [
        ScenePrediction(points, valid, det.score)
        for points, valid, det in zip(stages[-1], probs[:, :, 1], detections)
    ]
