"""Detection heads, the model parameters, the contour forward and
whole-image inference.

The trainable model is three pieces sharing the handcrafted feature grid:
a center head (3x3 conv, ReLU, 1x1 conv, sigmoid) producing the keypoint
heatmap over the whole grid, an offset head (two 3x3 convs with ReLU, then
a 2N-channel 1x1) producing each initial contour's offsets from the
features around its center cell, and the contour-evolution micro-network
applied for ``EVOLUTION_ROUNDS`` rounds. Their weights are the fields of
one flat :class:`PipelineParams`, whose :meth:`~PipelineParams.layout`
gives every shape and dtype: the heads are float64, the evolution network
float32. Every 3x3 kernel is stored as (3, 3, C_in, C_out), the layout
:func:`evolution.kernel_matrix` reads. Both heads read one zero-padded
im2col of a stack of grids, :func:`grid_columns`. The center head runs
over every cell and takes only weight gradients, since nothing uses the
gradient of the feature grid. The offset head is evaluated only at the
center cells, in training and inference alike: its first layer at the 3x3
neighbours of each cell, whose rows it gathers from those columns, and the
rest at the cell, so its cost grows with the number of centers, not the grid.

:func:`evolve_contours` is the one contour forward of training and
inference. It composes every initial contour as
``center + EXPANSION_FACTOR * STRIDE * offset`` and evolves all of them as
one (B, N, 2) batch, each contour sampling the feature grid of its own
scene from a stack of grids. Training passes the ground-truth bbox centers of
every scene of a step, so a step runs one evolution forward and one
backward per round, and backpropagates through the returned caches;
:func:`predict_scene` passes its one grid as a stack of one and the (K, 2)
centers that :func:`detect` returns with their (K,) scores: the cell centers
of the center head's peaks. It runs the offset head for those only.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import evolution as evo
from .config import RunConfig
from .detection import STRIDE, cell_centers, center_cells, decode_peaks
from .synth import FEATURE_CHANNELS, feature_provider

# the training objective supervises exactly two rounds: smooth L1 after the
# first, dynamic matching and vertex classification after the second
EVOLUTION_ROUNDS = 2

# the offset head's outputs are in units of this many stride-4 cells
EXPANSION_FACTOR = 10.0

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
    second half of its 2W inputs, and :func:`evolution.forward` reads its
    per-vertex and pooled halves as two (W, W) views."""

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
        """Field name -> (shape, dtype) of every array, in field order, for C =
        ``synth.FEATURE_CHANNELS`` feature channels, head widths H1 and H2, N
        vertices and evolution encoder width W; the heads are ``HEAD_DTYPE``,
        the evolution network ``EVOLUTION_DTYPE``. Each circular kernel is
        read at the dilation :data:`evolution.DILATIONS` gives its layer."""
        c = FEATURE_CHANNELS
        h1, h2 = cfg.center_hidden, cfg.offset_hidden
        n, w = cfg.n_vertices, cfg.encoder_width
        heads = dict(
            center_w1=(3, 3, c, h1), center_b1=(h1,), center_w2=(1, h1), center_b2=(1,),
            offset_w1=(3, 3, c, h2), offset_b1=(h2,), offset_w2=(3, 3, h2, h2), offset_b2=(h2,),
            offset_w3=(2 * n, h2), offset_b3=(2 * n,),
        )
        evolution = dict(
            up_w=(w, c + 2), up_b=(w,), detail_w=(3, w, w), detail_b=(w,),
            local_w=(9, w, w), local_b=(w,), global_w=(5, w, w), global_b=(w,),
            fuse_w=(w, 2 * w), fuse_b=(w,), step_w=(2, w), step_b=(2,), cls_w=(2, w), cls_b=(2,),
        )
        return {
            **{name: (shape, np.dtype(HEAD_DTYPE)) for name, shape in heads.items()},
            **{name: (shape, np.dtype(EVOLUTION_DTYPE)) for name, shape in evolution.items()},
        }

    @classmethod
    def initialize(cls, cfg: RunConfig, rng) -> "PipelineParams":
        """Fresh parameters drawn in float64 in field order, then stored in
        their :meth:`layout` dtype: weights uniform in +-sqrt(1/fan_in);
        biases, the last offset layer and both evolution heads zero, so the
        first evolution step is the identity."""
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


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def grid_columns(grids) -> np.ndarray:
    """Zero-padded 3x3 im2col of an (S, R, W, C) stack of feature grids:
    (S, R, W, 9C), tap-major like :func:`evolution.kernel_matrix`, each
    scene padded on its own. Both heads' first layers read these columns."""
    g = np.asarray(grids, dtype=HEAD_DTYPE)
    padded = np.pad(g, ((0, 0), (1, 1), (1, 1), (0, 0)))
    view = np.lib.stride_tricks.sliding_window_view(padded, (3, 3), axis=(1, 2))
    return np.ascontiguousarray(np.moveaxis(view, 3, -1)).reshape(*g.shape[:-1], -1)


def center_forward(cols, params: PipelineParams):
    """:func:`grid_columns` of S grids -> (S, R, W) keypoint heatmaps in
    (0, 1), one GEMM per layer over every cell; returns (heatmap, cache)."""
    z1 = cols @ evo.kernel_matrix(params.center_w1) + params.center_b1
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ params.center_w2.T + params.center_b2
    heat = _sigmoid(z2[..., 0])
    return heat, {"cols": cols, "z1": z1, "a1": a1, "heat": heat}


def center_backward(cache, params: PipelineParams, d_heat):
    """Head gradients from the gradient of :func:`center_forward`'s heatmaps."""
    heat, a1 = cache["heat"], cache["a1"]
    d_z2 = (d_heat * heat * (1.0 - heat))[..., None]
    grads = {
        "center_w2": d_z2.reshape(-1, 1).T @ a1.reshape(-1, a1.shape[-1]),
        "center_b2": d_z2.reshape(-1, 1).sum(axis=0),
    }
    d_z1 = (d_z2 @ params.center_w2) * (cache["z1"] > 0)
    grads["center_w1"], grads["center_b1"] = evo.kernel_grad(cache["cols"], d_z1, params.center_w1)
    return grads


def offset_forward(cols, scenes, centers, params: PipelineParams):
    """(B, 2N) offsets of the initial contours of (B, 2) full-resolution
    centers, read at their :func:`detection.center_cells` in grid
    ``scenes[b]`` of the :func:`grid_columns` ``cols``; returns (offsets,
    cache).

    The head is evaluated only where its output is read: the 1x1 layer and
    the second 3x3 layer at each center cell, the first 3x3 layer at that
    cell's 3x3 neighbours, whose rows it takes from ``cols``. A neighbour
    outside the grid reads zero, as the zero padding of a full-grid
    convolution makes it. Two centers in one cell get one row each.
    """
    cy, cx = center_cells(centers)
    span = np.arange(-1, 2)
    r, c = cy[:, None, None] + span[:, None], cx[:, None, None] + span
    inside = (r >= 0) & (r < cols.shape[1]) & (c >= 0) & (c < cols.shape[2])
    r, c = np.clip(r, 0, cols.shape[1] - 1), np.clip(c, 0, cols.shape[2] - 1)
    cols1 = cols[np.asarray(scenes)[:, None, None], r, c].reshape(-1, cols.shape[-1])
    z1 = cols1 @ evo.kernel_matrix(params.offset_w1) + params.offset_b1
    cols2 = np.where(inside.reshape(-1, 1), np.maximum(z1, 0.0), 0.0).reshape(cy.size, -1)
    z2 = cols2 @ evo.kernel_matrix(params.offset_w2) + params.offset_b2
    a2 = np.maximum(z2, 0.0)
    offsets = a2 @ params.offset_w3.T + params.offset_b3
    return offsets, {"cols1": cols1, "cols2": cols2, "a2": a2}


def offset_backward(cache, params: PipelineParams, d_offsets):
    """Head gradients from the (B, 2N) gradient of :func:`offset_forward`'s
    offsets; the rows of centers sharing a cell add up."""
    cols2, a2 = cache["cols2"], cache["a2"]
    grads = {"offset_w3": d_offsets.T @ a2, "offset_b3": d_offsets.sum(axis=0)}
    d_z2 = (d_offsets @ params.offset_w3) * (a2 > 0)
    grads["offset_w2"], grads["offset_b2"] = evo.kernel_grad(cols2, d_z2, params.offset_w2)
    d_z1 = (d_z2 @ evo.kernel_matrix(params.offset_w2).T) * (cols2 > 0)
    grads["offset_w1"], grads["offset_b1"] = evo.kernel_grad(cache["cols1"], d_z1, params.offset_w1)
    return grads


def initial_contours(offsets, centers) -> np.ndarray:
    """(B, N, 2) initial contours around (B, 2) full-resolution centers from
    their (B, 2N) stride-4 offsets; offsets become pixels through the stride
    and ``EXPANSION_FACTOR``."""
    c = np.asarray(centers, dtype=float).reshape(-1, 2)
    return c[:, None, :] + (EXPANSION_FACTOR * STRIDE) * offsets.reshape(c.shape[0], -1, 2)


def evolve_contours(grids, scenes, offsets, centers, params: PipelineParams):
    """Compose the initial contours at ``centers`` from their (B, 2N)
    :func:`offset_forward` offsets and evolve them as a batch.

    ``grids`` is the (S, R, W, C) stack of the feature grids of the scenes
    the contours come from, and ``scenes`` the (B,) index into it of each
    contour's scene, whose grid that contour samples. Returns (stages, valid,
    caches): ``stages`` holds the (B, N, 2) points of the initial contours
    and of every round, ``valid`` the (B, N) probabilities of the last round
    that each vertex is a corner, and ``caches`` the
    :func:`evolution.forward` cache of every round.
    """
    stages = [initial_contours(offsets, centers)]
    caches = []
    for _ in range(EVOLUTION_ROUNDS):
        feats = evo.vertex_features(grids, scenes, stages[-1])
        step, valid, cache = evo.forward(feats, params)
        stages.append(stages[-1] + step)
        caches.append(cache)
    return stages, valid, caches


@dataclass
class ScenePrediction:
    """One detected building: evolved ring, each vertex's probability of
    being a corner (which reduction thresholds), detection score."""

    points: np.ndarray          # (N, 2)
    vertex_scores: np.ndarray   # (N,)
    score: float


def detect(grids, params: PipelineParams, cfg: RunConfig) -> tuple:
    """(grid columns, (K, 2) centers, (K,) scores) of a one-scene stack of
    feature grids: the center head's peaks by descending score, at their
    :func:`detection.cell_centers`, with their heatmap values. Only the grid
    and the center head decide them."""
    cols = grid_columns(grids)
    heat, _ = center_forward(cols, params)
    cells = decode_peaks(heat[0], cfg.peak_threshold, cfg.max_detections)
    return cols, cell_centers(cells), heat[0][cells[:, 0], cells[:, 1]]


def predict_scene(image, params: PipelineParams, cfg: RunConfig) -> list:
    """Detect centers, compose initial contours, evolve them.

    Returns predictions sorted by descending detection score (the decoding
    order), one per surviving heatmap peak; every detection of the image is
    evolved in one batch.
    """
    grids = feature_provider(image)[None]
    cols, centers, scores = detect(grids, params, cfg)
    if not len(scores):
        return []
    scenes = np.zeros(len(scores), dtype=int)
    offsets, _ = offset_forward(cols, scenes, centers, params)
    stages, valid, _ = evolve_contours(grids, scenes, offsets, centers, params)
    if not np.all(np.isfinite(stages[-1])):
        raise ValueError("evolved contours have non-finite coordinates")
    return [ScenePrediction(*prediction) for prediction in zip(stages[-1], valid, scores.tolist())]
