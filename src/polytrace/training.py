"""End-to-end training: the losses of a step, their gradients and the fit loop.

One training step processes a small batch of scenes. The center head is
supervised by the focal heatmap loss and the offset head by the
initial-contour loss at ground-truth centers. The evolution network is
supervised by the per-stage contour losses: smooth L1 against the
statically ordered densified ground truth after the first round, the
dynamic matching loss plus the vertex classification loss after the
second. Both heads read one :func:`pipeline.grid_columns` of the step's
stacked feature grids and run once per step; the initial contours of every
scene then go through :func:`pipeline.evolve_contours`, the forward
inference runs too, as one batch, so a step runs one evolution forward and
one backward per round, whatever its number of scenes. Vertex coordinates are
treated as constants per stage, so gradients never cross stage boundaries
through the sampling path. Every gradient and every optimizer state array
takes its parameter's dtype, and the optimizers update in place, so a step
keeps the float32 evolution arrays float32.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import evolution as evo
from . import losses
from .assignment import hungarian, match_cost
from .config import RunConfig
from .detection import build_heatmap_target
from .geometry import bounding_box, densify
from .pipeline import (
    OFFSET_SCALE,
    PipelineParams,
    center_backward,
    center_forward,
    evolve_contours,
    grid_columns,
    initial_contours,
    offset_backward,
    offset_forward,
)
from .synth import SceneSpec, SyntheticScene, feature_provider, generate_scene

# the learning rate is multiplied by this at each of the two decay epochs
DECAY_FACTOR = 0.2

# scenes per training step
BATCH_SCENES = 2

# velocity decay of momentum SGD, and Adam's moment decays and denominator floor
MOMENTUM = 0.9
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# Largest joint L2 norm of the evolution network's gradients in one step; a
# larger gradient is scaled down to it (Pascanu et al., 2013,
# arXiv:1211.5063). The network's step and class outputs are unbounded, so
# under momentum SGD a few large gradients can grow its weights, and with
# them the next gradients, until the contours overflow. The default fit on
# 32 scenes stays below 63.
EVOLUTION_GRAD_NORM_MAX = 100.0


@dataclass
class SceneBundle:
    features: np.ndarray
    heat_target: np.ndarray
    rings: np.ndarray    # (n, N, 2) densified ground-truth rings, one per building
    centers: np.ndarray  # (n, 2) bbox centers, full-resolution pixels
    corners: list        # n (M, 2) ground-truth corner polygons
    frame_dims: tuple
    image_id: int = 0


def prepare_scene(scene: SyntheticScene, cfg: RunConfig, image_id: int = 0) -> SceneBundle:
    """Precompute everything reusable across epochs for one scene.

    Raises ValueError for a footprint ``geometry.densify`` rejects, such as
    one whose bbox center lies on its boundary (every axis-aligned right
    triangle). ``synth.generate_scene`` does not check for one; its shape
    makers never make one, as ``tests/test_synth.py`` checks.
    """
    features = feature_provider(scene.image)
    height, width = np.asarray(scene.image).shape
    corners = [np.asarray(poly, dtype=float) for poly in scene.buildings]
    rings = np.array([densify(poly, cfg.n_vertices).points for poly in corners]).reshape(-1, cfg.n_vertices, 2)
    boxes = np.array([bounding_box(poly) for poly in corners]).reshape(-1, 4)
    centers = (boxes[:, :2] + boxes[:, 2:]) / 2.0
    heat_target = build_heatmap_target(centers, boxes[:, 2:] - boxes[:, :2], (width, height))
    return SceneBundle(features, heat_target, rings, centers, corners, (width, height), image_id)


def scene_loss(bundles, params: PipelineParams, train_evolution: bool = True):
    """Loss components and parameter gradients of one training step's scenes.

    Returns (components, grads): ``components`` maps ct/init/e1/e2/cla to
    their means over the scenes of each scene's instance mean, and ``grads``
    maps the params.arrays() names of only the parameters the losses reach
    to the gradient of that batch mean. The weights of the mean are folded
    into the upstream gradients, ``1/S`` for the heatmap of each of S scenes
    and ``1/(n_inst * S)`` for every contour of a scene with n_inst
    buildings, so no per-scene gradient set is summed. The evolution
    network's gradients are scaled down to a joint L2 norm of
    ``EVOLUTION_GRAD_NORM_MAX`` when they exceed it. The name is kept from
    when this took one scene; the benchmark probes it by that name.

    Raises ValueError for a scene without buildings, whose heatmap target
    has no keypoint, and FloatingPointError when the heatmaps, a contour
    stage or the valid-vertex probabilities are non-finite, before any loss
    or match reads them.
    """
    eps = losses.LOSS_BALANCE
    n_scenes = len(bundles)
    components = dict.fromkeys(("ct", "init", "e1", "e2", "cla"), 0.0)
    # every contour of the step in batch order, with its scene
    counts = [len(bundle.rings) for bundle in bundles]
    scenes = np.repeat(np.arange(n_scenes), counts)
    rings = np.concatenate([bundle.rings for bundle in bundles])
    centers = np.concatenate([bundle.centers for bundle in bundles])

    # both heads once over the stacked grids, then one batch of all contours
    grids = np.stack([bundle.features for bundle in bundles])
    cols = grid_columns(grids)
    heat, c_cache = center_forward(cols, params)
    # a diverging step stops before any loss or match reads a NaN
    if not np.all(np.isfinite(heat)):
        raise FloatingPointError("non-finite heatmap")
    heat_target = np.stack([bundle.heat_target for bundle in bundles])
    components["ct"], d_heat = losses.focal_center_loss(heat, heat_target)
    grads = center_backward(c_cache, params, d_heat)
    offsets, o_cache = offset_forward(cols, scenes, centers, params)
    if train_evolution:
        stages, valid, caches = evolve_contours(grids, scenes, offsets, centers, params)
    else:
        stages, valid = [initial_contours(offsets, centers)], np.zeros(0)
    if not all(np.all(np.isfinite(a)) for a in (*stages, valid)):
        raise FloatingPointError("non-finite contours")

    # each contour's weight in the mean over scenes of the instance means
    n_inst = np.repeat(counts, counts)
    w = 1.0 / (n_inst * n_scenes)
    l_init, d_init = losses.smooth_l1(stages[0], rings)
    components["init"] = float((l_init / (n_inst * n_scenes)).sum())
    d_offsets = (eps / n_inst * OFFSET_SCALE / n_scenes)[:, None] * d_init.reshape(len(rings), -1)
    grads.update(offset_backward(o_cache, params, d_offsets))

    if not train_evolution:
        return components, grads

    _, pts1, pts2 = stages
    # the discrete matching one contour at a time: Hungarian is sequential,
    # and the corner counts differ
    is_matched = np.zeros(valid.shape, dtype=bool)
    corner_targets = np.zeros(pts2.shape)
    contours = [(corners, float(np.hypot(*b.frame_dims))) for b in bundles for corners in b.corners]
    for j, (corners, diagonal) in enumerate(contours):
        matched = hungarian(match_cost(corners, pts2[j], valid[j], diagonal=diagonal))
        is_matched[j, matched] = True
        corner_targets[j, matched] = corners
    # first evolution round: static index-aligned supervision
    l_e1, d_e1 = losses.smooth_l1(pts1, rings)
    components["e1"] = float((l_e1 * w).sum())
    d_off1 = (eps * w)[:, None, None] * d_e1
    # second round: dynamic matching and vertex classification
    l_e2, d_e2 = losses.dml(pts2, rings, corner_targets, is_matched)
    components["e2"] = float((l_e2 * w).sum())
    d_off2 = (eps * w)[:, None, None] * d_e2
    l_cla, d_cla = losses.classification_loss(valid, is_matched)
    components["cla"] = float((l_cla * w).sum())
    # each round's cache is dropped as soon as its backward returns
    evolution_grads = evo.backward(caches.pop(), params, d_offsets=d_off2, d_valid=w[:, None] * d_cla)
    for name, g in evo.backward(caches.pop(), params, d_offsets=d_off1).items():
        evolution_grads[name] += g
    norm = math.sqrt(sum(float(np.vdot(g, g)) for g in evolution_grads.values()))
    if norm > EVOLUTION_GRAD_NORM_MAX:
        for g in evolution_grads.values():
            g *= EVOLUTION_GRAD_NORM_MAX / norm
    grads.update(evolution_grads)
    return components, grads


class MomentumSGD:
    """Gradient descent with classical momentum ``MOMENTUM``; the velocity of
    each parameter is updated in place."""

    def __init__(self, learning_rate):
        self.learning_rate = learning_rate
        self.velocity = {}

    def step(self, params: PipelineParams, grads: dict):
        for name, arr in params.arrays():
            vel = self.velocity.get(name)
            if vel is None:
                vel = self.velocity[name] = np.zeros_like(arr)
            vel *= MOMENTUM
            vel += grads[name]
            arr -= self.learning_rate * vel


class Adam:
    """Adam; both moment estimates of each parameter are updated in place."""

    def __init__(self, learning_rate):
        self.learning_rate = learning_rate
        self.m = {}
        self.v = {}
        self.t = 0

    def step(self, params: PipelineParams, grads: dict):
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for name, arr in params.arrays():
            g = grads[name]
            m, v = self.m.get(name), self.v.get(name)
            if m is None:
                m = self.m[name] = np.zeros_like(arr)
                v = self.v[name] = np.zeros_like(arr)
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1**self.t)
            v_hat = v / (1 - b2**self.t)
            arr -= self.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def make_optimizer(cfg: RunConfig):
    if cfg.optimizer == "adam":
        return Adam(cfg.learning_rate)
    return MomentumSGD(cfg.learning_rate)


def train_step(bundles, params: PipelineParams, optimizer, cfg: RunConfig, train_evolution: bool = True):
    """One optimizer update on a batch of scenes; returns the batch total loss.

    Raises FloatingPointError on a non-finite heatmap, contour or loss, so
    a diverging step surfaces immediately and leaves ``params`` unchanged.
    """
    if optimizer.learning_rate < 0:
        raise ValueError("learning rate must be non-negative")
    components, grads = scene_loss(bundles, params, train_evolution)
    total = losses.total_loss(components)
    if not np.isfinite(total):
        raise FloatingPointError(f"non-finite training loss {total}")
    for name, arr in params.arrays():
        if name not in grads:
            grads[name] = np.zeros_like(arr)
    optimizer.step(params, grads)
    return total


def fit(bundles, cfg: RunConfig, params: PipelineParams | None = None):
    """Train on prepared scene bundles; deterministic given (cfg, seed).

    Follows the schedule shape: an initialization-only phase, then joint
    training, with the learning rate divided by 5 at the two decay epochs.
    Returns (params, history) with one mean total loss per epoch. Raises
    ValueError when there is no bundle to train on.
    """
    if not bundles:
        raise ValueError("fit needs at least one scene bundle")
    rng = np.random.default_rng(np.random.SeedSequence([0x7A10, cfg.seed]))
    if params is None:
        params = PipelineParams.initialize(cfg, rng)
    optimizer = make_optimizer(cfg)
    history = []
    for epoch in range(cfg.epochs_total):
        if epoch in (cfg.decay_epoch_1, cfg.decay_epoch_2):
            optimizer.learning_rate *= DECAY_FACTOR
        train_evolution = epoch >= cfg.epochs_init
        order = rng.permutation(len(bundles))
        epoch_losses = []
        for start in range(0, len(order), BATCH_SCENES):
            batch = [bundles[i] for i in order[start : start + BATCH_SCENES]]
            epoch_losses.append(train_step(batch, params, optimizer, cfg, train_evolution))
        history.append(float(np.mean(epoch_losses)))
    return params, history


def scene_spec_from_config(cfg: RunConfig) -> SceneSpec:
    return SceneSpec(
        frame_dims=cfg.frame_dims,
        n_buildings=(cfg.min_buildings, cfg.max_buildings),
        size_range=(cfg.size_min, cfg.size_max),
        noise_sigma=cfg.noise_sigma,
    )


def make_dataset(cfg: RunConfig, count: int, seed_offset: int = 0):
    """Deterministic list of ``count`` scenes; scene i has seed
    cfg.seed + seed_offset + i."""
    spec = scene_spec_from_config(cfg)
    start = cfg.seed + seed_offset
    return [generate_scene(start + i, spec) for i in range(count)]
