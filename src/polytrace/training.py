"""End-to-end training: the losses of a step, their gradients and the fit loop.

One training step processes a small batch of scenes. Per scene the center
head is supervised by the focal heatmap loss and the offset head by the
initial-contour loss at ground-truth centers. The evolution network is
supervised by the per-stage contour losses: smooth L1 against the
statically ordered densified ground truth after the first round, the
dynamic matching loss plus the vertex classification loss after the
second. The heads run per scene; the initial contours of every scene of the
step then go through :func:`pipeline.evolve_contours`, the forward inference
runs too, as one batch, so a step runs one evolution forward and one
backward per round, whatever its number of scenes. Vertex coordinates are
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
from .detection import STRIDE, build_heatmap_target
from .geometry import bbox_center, bounding_box, densify
from .pipeline import (
    PipelineParams,
    center_backward,
    center_forward,
    evolve_contours,
    initial_contours,
    offset_backward,
    offset_forward,
)
from .synth import SceneSpec, SyntheticScene, feature_provider, generate_scene

# consecutive unplaceable seeds after which make_dataset gives up
MAX_SKIPPED_SEEDS = 100

# the learning rate is multiplied by this at each of the two decay epochs
DECAY_FACTOR = 0.2

# Largest joint L2 norm of the evolution network's gradients in one step; a
# larger gradient is scaled down to it (Pascanu et al., 2013,
# arXiv:1211.5063). The network's step and class outputs are unbounded, so
# under momentum SGD a few large gradients can grow its weights, and with
# them the next gradients, until the contours overflow. The default fit on
# 32 scenes stays below 63.
EVOLUTION_GRAD_NORM_MAX = 100.0


@dataclass
class TrainInstance:
    corners: np.ndarray  # (M, 2) ground-truth corner polygon
    contour: object      # DensifiedContour ground truth
    center: np.ndarray   # bbox center, full-resolution pixels


@dataclass
class SceneBundle:
    features: np.ndarray
    heat_target: np.ndarray
    instances: list
    frame_dims: tuple
    image_id: int = 0


def prepare_scene(scene: SyntheticScene, cfg: RunConfig, image_id: int = 0) -> SceneBundle:
    """Precompute everything reusable across epochs for one scene."""
    features = feature_provider(scene.image)
    height, width = np.asarray(scene.image).shape
    centers, sizes, instances = [], [], []
    for poly in scene.buildings:
        dc = densify(poly, cfg.n_vertices)
        center = bbox_center(poly)
        box = bounding_box(poly)
        centers.append(center)
        sizes.append((box[2] - box[0], box[3] - box[1]))
        instances.append(TrainInstance(corners=np.asarray(poly, dtype=float), contour=dc, center=center))
    heat_target = build_heatmap_target(centers, sizes, (width, height))
    return SceneBundle(features, heat_target, instances, (width, height), image_id)


def scene_loss(bundles, params: PipelineParams, cfg: RunConfig, train_evolution: bool = True):
    """Loss components and parameter gradients of one training step's scenes.

    Returns (components, grads): ``components`` maps ct/init/e1/e2/cla to
    their means over the scenes of each scene's instance mean, and ``grads``
    maps the params.arrays() names of only the parameters the losses reach
    to the gradient of that batch mean. The weights of the mean are folded
    into the upstream gradients, ``1/S`` for the heads of each of S scenes
    and ``1/(n_inst * S)`` for every contour of a scene with n_inst
    buildings, so no per-scene gradient set is summed. The evolution
    network's gradients are scaled down to a joint L2 norm of
    ``EVOLUTION_GRAD_NORM_MAX`` when they exceed it. The name is kept from
    when this took one scene; the benchmark probes it by that name.

    Raises ValueError for a scene without buildings, whose heatmap target
    has no keypoint.
    """
    eps = cfg.loss_balance
    n_scenes = len(bundles)
    components = dict.fromkeys(("ct", "init", "e1", "e2", "cla"), 0.0)
    grads = {}

    def accumulate(new):
        for name, g in new.items():
            if name in grads:
                grads[name] += g
            else:
                grads[name] = g

    # the heads of every scene, then one batch of all their contours
    offsets, centers, o_caches = [], [], []
    for bundle in bundles:
        heat, c_cache = center_forward(bundle.features, params)
        l_ct = losses.focal_center_loss(heat, bundle.heat_target)
        components["ct"] += l_ct.value / n_scenes
        accumulate(center_backward(c_cache, params, l_ct.grads["heatmap"] / n_scenes))
        scene_centers = np.stack([inst.center for inst in bundle.instances])
        scene_offsets, o_cache = offset_forward(bundle.features, scene_centers, params)
        offsets.append(scene_offsets)
        centers.append(scene_centers)
        o_caches.append(o_cache)
    counts = [len(bundle.instances) for bundle in bundles]
    offsets, centers = np.concatenate(offsets), np.concatenate(centers)
    if train_evolution:
        grids = np.stack([bundle.features for bundle in bundles])
        scenes = np.repeat(np.arange(n_scenes), counts)
        stages, probs2, caches = evolve_contours(grids, scenes, offsets, centers, params, cfg.expansion_factor)
    else:
        stages = [initial_contours(offsets, centers, cfg.expansion_factor)]
    # every contour of the step in batch order, with its scene
    contours = [(inst, bundle) for bundle in bundles for inst in bundle.instances]

    pts0 = stages[0]
    d_offsets = np.empty_like(offsets)
    scale = cfg.expansion_factor * STRIDE
    for j, (inst, bundle) in enumerate(contours):
        n_inst = len(bundle.instances)
        l_init = losses.smooth_l1(pts0[j], inst.contour.points)
        components["init"] += l_init.value / (n_inst * n_scenes)
        d_offsets[j] = (eps / n_inst * scale / n_scenes) * l_init.grads["pred"].reshape(-1)
    for rows, o_cache in zip(np.split(d_offsets, np.cumsum(counts)[:-1]), o_caches):
        accumulate(offset_backward(o_cache, params, rows))

    if not train_evolution:
        return components, grads

    _, pts1, pts2 = stages
    d_off1 = np.empty_like(pts1)
    d_off2 = np.empty_like(pts2)
    d_probs2 = np.zeros(probs2.shape)
    for j, (inst, bundle) in enumerate(contours):
        w = 1.0 / (len(bundle.instances) * n_scenes)
        # first evolution round: static index-aligned supervision
        l_e1 = losses.smooth_l1(pts1[j], inst.contour.points)
        components["e1"] += l_e1.value * w
        d_off1[j] = (eps * w) * l_e1.grads["pred"]
        # second round: dynamic matching and vertex classification
        valid = probs2[j, :, 1]
        diagonal = float(np.hypot(*bundle.frame_dims))
        cost = match_cost(inst.corners, pts2[j], valid, cfg.match_distance_weight, diagonal=diagonal)
        assign = hungarian(cost)
        l_e2 = losses.dml(pts2[j], inst.contour.points, inst.corners, assign)
        components["e2"] += l_e2.value * w
        d_off2[j] = (eps * w) * l_e2.grads["pred"]
        l_cla = losses.classification_loss(valid, assign)
        components["cla"] += l_cla.value * w
        d_probs2[j, :, 1] = w * l_cla.grads["probs"]
    d_logits2 = evo.softmax_backward(probs2, d_probs2)
    # each round's cache is dropped as soon as its backward returns
    evolution_grads = evo.backward(caches.pop(), params, d_offsets=d_off2, d_logits=d_logits2)
    for name, g in evo.backward(caches.pop(), params, d_offsets=d_off1).items():
        evolution_grads[name] += g
    norm = math.sqrt(sum(float(np.vdot(g, g)) for g in evolution_grads.values()))
    if norm > EVOLUTION_GRAD_NORM_MAX:
        for g in evolution_grads.values():
            g *= EVOLUTION_GRAD_NORM_MAX / norm
    grads.update(evolution_grads)
    return components, grads


class MomentumSGD:
    """Gradient descent with classical momentum; the velocity of each
    parameter is updated in place."""

    def __init__(self, learning_rate, momentum=0.9):
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.velocity = {}

    def step(self, params: PipelineParams, grads: dict):
        for name, arr in params.arrays():
            vel = self.velocity.get(name)
            if vel is None:
                vel = self.velocity[name] = np.zeros_like(arr)
            vel *= self.momentum
            vel += grads[name]
            arr -= self.learning_rate * vel


class Adam:
    """Adam; both moment estimates of each parameter are updated in place."""

    def __init__(self, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
        self.learning_rate = learning_rate
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {}
        self.v = {}
        self.t = 0

    def step(self, params: PipelineParams, grads: dict):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
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
            arr -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)


def make_optimizer(cfg: RunConfig):
    if cfg.optimizer == "adam":
        return Adam(cfg.learning_rate)
    return MomentumSGD(cfg.learning_rate, cfg.momentum)


def train_step(bundles, params: PipelineParams, optimizer, cfg: RunConfig, train_evolution: bool = True):
    """One optimizer update on a batch of scenes; returns the batch total loss.

    Raises on a non-finite loss so training failures surface immediately.
    """
    if optimizer.learning_rate < 0:
        raise ValueError("learning rate must be non-negative")
    components, grads = scene_loss(bundles, params, cfg, train_evolution)
    total = losses.total_loss(components, cfg.loss_balance)
    if not np.isfinite(total):
        raise FloatingPointError(f"non-finite training loss {total}")
    for name, arr in params.arrays():
        if name not in grads:
            grads[name] = np.zeros_like(arr)
    optimizer.step(params, grads)
    return total


def fit(bundles, cfg: RunConfig, params: PipelineParams | None = None, log=None):
    """Train on prepared scene bundles; deterministic given (cfg, seed).

    Follows the schedule shape: an initialization-only phase, then joint
    training, with the learning rate divided by 5 at the two decay epochs.
    Returns (params, history) with one mean total loss per epoch.
    """
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
        for start in range(0, len(order), cfg.batch_scenes):
            batch = [bundles[i] for i in order[start : start + cfg.batch_scenes]]
            epoch_losses.append(train_step(batch, params, optimizer, cfg, train_evolution))
        history.append(float(np.mean(epoch_losses)))
        if log is not None:
            log(epoch, history[-1])
    return params, history


def scene_spec_from_config(cfg: RunConfig) -> SceneSpec:
    return SceneSpec(
        frame_dims=cfg.frame_dims,
        n_buildings=(cfg.min_buildings, cfg.max_buildings),
        size_range=(cfg.size_min, cfg.size_max),
        noise_sigma=cfg.noise_sigma,
    )


def make_dataset(cfg: RunConfig, count: int, seed_offset: int = 0):
    """Deterministic list of ``count`` scenes from consecutive seeds starting
    at cfg.seed + seed_offset.

    A seed whose buildings cannot be placed is skipped and the next seed is
    tried, so scene i has seed cfg.seed + seed_offset + i only when no
    earlier seed failed. After ``MAX_SKIPPED_SEEDS`` failures in a row the
    last placement error is raised.
    """
    spec = scene_spec_from_config(cfg)
    scenes, seed, skipped = [], cfg.seed + seed_offset, 0
    while len(scenes) < count:
        try:
            scenes.append(generate_scene(seed, spec))
            skipped = 0
        except RuntimeError:
            skipped += 1
            if skipped == MAX_SKIPPED_SEEDS:
                raise
        seed += 1
    return scenes
