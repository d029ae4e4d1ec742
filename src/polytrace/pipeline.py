"""Detection heads, the assembled model parameters, the contour forward,
checkpoint files and whole-image inference.

The trainable model is three pieces sharing the handcrafted feature grid:
a center head (3x3 conv, ReLU, 1x1 conv, sigmoid) producing the keypoint
heatmap, an offset head (two 3x3 convs with ReLU, then 1x1) producing a
2N-channel offset map read at center cells, and the contour-evolution
micro-network applied for ``EVOLUTION_ROUNDS`` rounds. The 3x3 head
convolutions and their gradients are :func:`evolution.conv` and
:func:`evolution.conv_backward` with zero padding; the first layer of each
head takes only :func:`evolution.conv_weight_grad`, since nothing uses the
gradient of the feature grid.

:func:`evolve_contours` is the one contour forward of training and
inference. It composes every initial contour of an image as
``center + gamma * STRIDE * offset``, with the offset read at the center's
cell, and evolves all of them as one (B, N, 2) batch. Training passes the
ground-truth bbox centers and backpropagates through the returned caches;
:func:`predict_scene` passes the decoded peak positions.

Checkpoint format (version 1): the ASCII magic line ``PTCK0001``, one JSON
header line listing array names/shapes plus free-form metadata, then the
raw row-major float64 little-endian buffers concatenated in header order.
Loading checks the header against the arrays the run configuration builds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import evolution as evo
from .config import RunConfig
from .detection import STRIDE, decode_peaks
from .synth import feature_provider

CHECKPOINT_MAGIC = b"PTCK0001"

# the training objective supervises exactly two rounds: smooth L1 after the
# first, dynamic matching and vertex classification after the second
EVOLUTION_ROUNDS = 2


@dataclass
class PipelineParams:
    center_w1: np.ndarray   # (H1, C, 3, 3)
    center_b1: np.ndarray
    center_w2: np.ndarray   # (1, H1)
    center_b2: np.ndarray
    offset_w1: np.ndarray   # (H2, C, 3, 3)
    offset_b1: np.ndarray
    offset_w2: np.ndarray   # (H2, H2, 3, 3)
    offset_b2: np.ndarray
    offset_w3: np.ndarray   # (2N, H2)
    offset_b3: np.ndarray
    evolution: evo.EvolutionParams

    HEAD_FIELDS = (
        "center_w1", "center_b1", "center_w2", "center_b2",
        "offset_w1", "offset_b1", "offset_w2", "offset_b2",
        "offset_w3", "offset_b3",
    )

    @classmethod
    def initialize(cls, cfg: RunConfig, rng=None) -> "PipelineParams":
        rng = np.random.default_rng() if rng is None else rng
        c = cfg.feature_channels
        h1, h2 = cfg.center_hidden, cfg.offset_hidden
        n = cfg.n_vertices

        def uniform(shape, fan):
            a = np.sqrt(1.0 / fan)
            return rng.uniform(-a, a, size=shape)

        return cls(
            center_w1=uniform((h1, c, 3, 3), 9 * c),
            center_b1=np.zeros(h1),
            center_w2=uniform((1, h1), h1),
            # bias the sigmoid toward the background prior of 0.1
            center_b2=np.full(1, float(np.log(0.1 / 0.9))),
            offset_w1=uniform((h2, c, 3, 3), 9 * c),
            offset_b1=np.zeros(h2),
            offset_w2=uniform((h2, h2, 3, 3), 9 * h2),
            offset_b2=np.zeros(h2),
            offset_w3=np.zeros((2 * n, h2)),
            offset_b3=np.zeros(2 * n),
            evolution=evo.EvolutionParams.initialize(c, width=cfg.encoder_width, rng=rng),
        )

    def arrays(self):
        """Ordered (name, array) pairs over the whole model."""
        for name in self.HEAD_FIELDS:
            yield name, getattr(self, name)
        for name, arr in self.evolution.arrays():
            yield f"evolution.{name}", arr

    @classmethod
    def from_arrays(cls, named: dict) -> "PipelineParams":
        head = {name: np.asarray(named[name], dtype=float) for name in cls.HEAD_FIELDS}
        evo_named = {
            name.split(".", 1)[1]: arr
            for name, arr in named.items()
            if name.startswith("evolution.")
        }
        return cls(**head, evolution=evo.EvolutionParams.from_arrays(evo_named))


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


def offset_forward(grid, params: PipelineParams):
    """Feature grid -> (rows, cols, 2N) offset map; returns (map, cache)."""
    z1 = evo.conv(grid, params.offset_w1, params.offset_b1, "constant")
    a1 = np.maximum(z1, 0.0)
    z2 = evo.conv(a1, params.offset_w2, params.offset_b2, "constant")
    a2 = np.maximum(z2, 0.0)
    offmap = a2 @ params.offset_w3.T + params.offset_b3
    return offmap, {"grid": grid, "z1": z1, "a1": a1, "z2": z2, "a2": a2}


def offset_backward(cache, params: PipelineParams, d_offmap):
    a2 = cache["a2"]
    grads = {
        "offset_w3": d_offmap.reshape(-1, d_offmap.shape[-1]).T @ a2.reshape(-1, a2.shape[-1]),
        "offset_b3": d_offmap.sum(axis=(0, 1)),
    }
    d_a2 = d_offmap @ params.offset_w3
    d_z2 = d_a2 * (cache["z2"] > 0)
    d_a1, d_w2, d_b2 = evo.conv_backward(d_z2, cache["a1"], params.offset_w2, "constant")
    grads["offset_w2"] = d_w2
    grads["offset_b2"] = d_b2
    d_z1 = d_a1 * (cache["z1"] > 0)
    d_w1, d_b1 = evo.conv_weight_grad(d_z1, cache["grid"], params.offset_w1, "constant")
    grads["offset_w1"] = d_w1
    grads["offset_b1"] = d_b1
    return grads


def center_cells(centers) -> tuple:
    """(rows, cols) of the stride-4 cells containing (B, 2) full-resolution
    centers; the cells whose offset-map entries compose the initial contours."""
    c = np.asarray(centers, dtype=float).reshape(-1, 2)
    return (c[:, 1] // STRIDE).astype(int), (c[:, 0] // STRIDE).astype(int)


def initial_contours(offmap, centers, gamma: float) -> np.ndarray:
    """(B, N, 2) initial contours around (B, 2) full-resolution centers.

    Each center reads the offset map at the stride-4 cell containing it;
    offsets become pixels through the stride and the expansion factor.
    """
    c = np.asarray(centers, dtype=float).reshape(-1, 2)
    offsets = offmap[center_cells(c)].reshape(c.shape[0], -1, 2)
    return c[:, None, :] + (gamma * STRIDE) * offsets


def evolve_contours(grid, offmap, centers, params: PipelineParams, gamma: float):
    """Compose the initial contours at ``centers`` and evolve them as a batch.

    Returns (stages, probs, caches): ``stages`` holds the (B, N, 2) points of
    the initial contours and of every round, ``probs`` the (B, N, 2) vertex
    class probabilities of the last round (valid class last), and
    ``caches`` the :func:`evolution.forward` cache of every round.
    """
    stages = [initial_contours(offmap, centers, gamma)]
    caches = []
    for _ in range(EVOLUTION_ROUNDS):
        feats = evo.vertex_features(grid, stages[-1])
        offsets, _, probs, cache = evo.forward(feats, params.evolution)
        stages.append(stages[-1] + offsets)
        caches.append(cache)
    return stages, probs, caches


def save_checkpoint(params: PipelineParams, path, meta: dict | None = None):
    """Write a version-1 checkpoint; byte output is deterministic."""
    names = []
    buffers = []
    for name, arr in params.arrays():
        a = np.ascontiguousarray(arr, dtype="<f8")
        names.append({"name": name, "shape": list(a.shape)})
        buffers.append(a.tobytes())
    header = json.dumps({"arrays": names, "meta": meta or {}}, sort_keys=True)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + b"\n")
        fh.write(header.encode("utf-8") + b"\n")
        for buf in buffers:
            fh.write(buf)


def load_checkpoint(path, cfg: RunConfig):
    """Read a checkpoint; returns (PipelineParams, meta).

    Raises ValueError, naming the array, when the checkpoint's array names
    or shapes differ from those :meth:`PipelineParams.initialize` builds for
    ``cfg``.
    """
    expected = {name: arr.shape for name, arr in PipelineParams.initialize(cfg).arrays()}
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"not a checkpoint file (magic {magic!r})")
        header = json.loads(fh.readline().decode("utf-8"))
        found = {entry["name"]: tuple(entry["shape"]) for entry in header["arrays"]}
        for name in sorted(expected.keys() | found.keys()):
            if found.get(name) != expected.get(name):
                raise ValueError(
                    f"checkpoint array {name!r} does not fit the config: shape"
                    f" {found.get(name, 'missing')} in the file, {expected.get(name, 'none')} expected"
                )
        named = {}
        for entry in header["arrays"]:
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            buf = fh.read(count * 8)
            if len(buf) != count * 8:
                raise ValueError(f"checkpoint truncated at array {entry['name']!r}")
            named[entry["name"]] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
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
    offmap, _ = offset_forward(grid, params)
    centers = np.stack([det.position for det in detections])
    stages, probs, _ = evolve_contours(grid, offmap, centers, params, cfg.expansion_factor)
    if not np.all(np.isfinite(stages[-1])):
        raise ValueError("evolved contours have non-finite coordinates")
    return [
        ScenePrediction(points, valid, det.score)
        for points, valid, det in zip(stages[-1], probs[:, :, 1], detections)
    ]
