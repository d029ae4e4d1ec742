"""Where the benchmark records spans in polytrace, and the per-layer metrics
it derives from them.

Each probe names the module (or class) through which the *caller* looks a
function up. ``training`` imports ``center_forward`` by name, so the same
function is probed as both ``polytrace.training.center_forward`` and
``polytrace.pipeline.center_forward``; ``evolution.forward`` is called as
``evo.forward`` by training and as a module global by ``evolve_once``, so
one probe on ``polytrace.evolution`` covers both.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from polytrace import evaluation, evolution, losses, pipeline, reduction, synth, training

LOSS_COMPONENTS = ("ct", "init", "e1", "e2", "cla")


def _forward_vertices(rec, args, result):
    shape = np.shape(args[0])
    rec.count("evolution.forward.vertices", shape[0] * shape[1] if len(shape) == 3 else shape[0])


def _detections(rec, args, result):
    rec.count("detection.detections", len(result))


def _scene_components(rec, args, result):
    rec.scratch.setdefault("components", []).append(result[0])


def _last_step_losses(rec, args, result):
    batch = rec.scratch.pop("components", [])[-len(args[0]):]
    for name in LOSS_COMPONENTS:
        rec.gauge(f"losses.last.{name}", np.mean([c[name] for c in batch]))


def _thresholded(rec, args, result):
    rec.count("reduction.vertices_thresholded", len(result))


def _nms_survivors(rec, args, result):
    rec.scratch["nms_out"] = len(result)


def _reduced(rec, args, result):
    rec.count("reduction.vertices_in", len(args[0]))
    rec.count("reduction.vertices_nms", rec.scratch.pop("nms_out", 0))
    rec.count("reduction.vertices_out", len(result))
    # the top-3 fallback fired in this call if _top3 ran since the last one
    key = rec.key("reduction.top3.calls")
    if rec.totals[key] > rec.scratch.get(key, 0):
        rec.count("reduction.fallbacks")
    rec.scratch[key] = rec.totals[key]


PROBES = [
    (synth, "generate_scene", "synth.generate_scene", None),
    (training, "generate_scene", "synth.generate_scene", None),
    (training, "feature_provider", "synth.feature_provider", None),
    (pipeline, "feature_provider", "synth.feature_provider", None),
    (training, "prepare_scene", "training.prepare_scene", None),
    (training, "fit", "training.fit", None),
    (training, "train_step", "training.train_step", _last_step_losses),
    (training, "scene_loss", "training.scene_loss", _scene_components),
    (training.MomentumSGD, "step", "training.optimizer_step", None),
    (training.Adam, "step", "training.optimizer_step", None),
    (training, "center_forward", "pipeline.center_forward", None),
    (training, "center_backward", "pipeline.center_backward", None),
    (training, "offset_forward", "pipeline.offset_forward", None),
    (training, "offset_backward", "pipeline.offset_backward", None),
    (pipeline, "center_forward", "pipeline.center_forward", None),
    (pipeline, "offset_forward", "pipeline.offset_forward", None),
    (pipeline, "predict_scene", "pipeline.predict_scene", None),
    (pipeline, "decode_peaks", "detection.decode_peaks", _detections),
    (evolution, "forward", "evolution.forward", _forward_vertices),
    (evolution, "backward", "evolution.backward", None),
    (evolution, "sample_features", "evolution.sample_features", None),
    (training, "match_cost", "assignment.match_cost", None),
    (training, "hungarian", "assignment.hungarian", None),
    (losses, "focal_center_loss", "losses.focal_center_loss", None),
    (losses, "smooth_l1", "losses.smooth_l1", None),
    (losses, "dml", "losses.dml", None),
    (losses, "classification_loss", "losses.classification_loss", None),
    (reduction, "reduce", "reduction.reduce", _reduced),
    (reduction, "threshold_vertices", "reduction.threshold_vertices", _thresholded),
    (reduction, "vertex_nms", "reduction.vertex_nms", _nms_survivors),
    (reduction, "prune_collinear", "reduction.prune_collinear", None),
    (reduction, "_top3", "reduction.top3", "count"),
    (reduction, "vertex_angle", "geometry.vertex_angle", "count"),
    (evaluation, "rasterize", "geometry.rasterize", None),
    (evaluation, "match_instances", "evaluation.match_instances", None),
    (evaluation, "masks_iou", "evaluation.masks_iou", "count"),
    (evaluation, "evaluate", "evaluation.evaluate", None),
]

# (name, unit, better). Times and counts are totals over one pass of the
# section; vertex counts and ratios are per call of the named function.
PER_LAYER = [
    ("setup.synth.generate_scene.calls", "count", "lower"),
    ("setup.synth.generate_scene.ms", "ms", "lower"),
    ("setup.synth.generate_scene.failed", "count", "lower"),
    ("setup.training.prepare_scene.ms", "ms", "lower"),
    ("setup.training.fit.ms", "ms", "lower"),
    ("train.training.train_step.ms", "ms", "lower"),
    ("train.training.train_step.failed", "count", "lower"),
    ("train.training.scene_loss.self_ms", "ms", "lower"),
    ("train.training.optimizer_step.ms", "ms", "lower"),
    ("train.pipeline.center_forward.ms", "ms", "lower"),
    ("train.pipeline.center_backward.ms", "ms", "lower"),
    ("train.pipeline.offset_forward.ms", "ms", "lower"),
    ("train.pipeline.offset_backward.ms", "ms", "lower"),
    ("train.evolution.forward.calls", "count", "lower"),
    ("train.evolution.forward.ms", "ms", "lower"),
    ("train.evolution.forward.vertices", "count", "higher"),
    ("train.evolution.backward.ms", "ms", "lower"),
    ("train.evolution.sample_features.ms", "ms", "lower"),
    ("train.assignment.match_cost.calls", "count", "lower"),
    ("train.assignment.match_cost.ms", "ms", "lower"),
    ("train.assignment.hungarian.calls", "count", "lower"),
    ("train.assignment.hungarian.ms", "ms", "lower"),
    ("train.losses.focal_center_loss.ms", "ms", "lower"),
    ("train.losses.smooth_l1.ms", "ms", "lower"),
    ("train.losses.dml.ms", "ms", "lower"),
    ("train.losses.classification_loss.ms", "ms", "lower"),
] + [(f"train.losses.last.{name}", "loss", "lower") for name in LOSS_COMPONENTS] + [
    ("infer.pipeline.predict_scene.ms", "ms", "lower"),
    ("infer.pipeline.predict_scene.self_ms", "ms", "lower"),
    ("infer.synth.feature_provider.ms", "ms", "lower"),
    ("infer.pipeline.center_forward.ms", "ms", "lower"),
    ("infer.pipeline.offset_forward.ms", "ms", "lower"),
    ("infer.detection.decode_peaks.ms", "ms", "lower"),
    ("infer.detection.detections", "count", "higher"),
    ("infer.detection.useful_ratio", "ratio", "higher"),
    ("infer.evolution.forward.calls", "count", "lower"),
    ("infer.evolution.forward.ms", "ms", "lower"),
    ("infer.evolution.forward.vertices", "count", "higher"),
    ("infer.evolution.sample_features.ms", "ms", "lower"),
    ("infer.reduction.reduce.ms", "ms", "lower"),
    ("infer.reduction.fallback_ratio", "ratio", "lower"),
    ("infer.evaluation.evaluate.ap_msk", "ratio", "higher"),
    ("infer.evaluation.evaluate.ap_bdy", "ratio", "higher"),
    ("infer.evaluation.evaluate.mean_instance_iou", "ratio", "higher"),
    ("postprocess.reduction.reduce.ms", "ms", "lower"),
    ("postprocess.reduction.threshold_vertices.ms", "ms", "lower"),
    ("postprocess.reduction.vertex_nms.ms", "ms", "lower"),
    ("postprocess.reduction.prune_collinear.ms", "ms", "lower"),
    ("postprocess.reduction.vertices_in", "count", "lower"),
    ("postprocess.reduction.vertices_thresholded", "count", "lower"),
    ("postprocess.reduction.vertices_nms", "count", "lower"),
    ("postprocess.reduction.vertices_out", "count", "lower"),
    ("postprocess.reduction.fallback_ratio", "ratio", "lower"),
    ("postprocess.geometry.vertex_angle.calls", "count", "lower"),
    ("postprocess.geometry.rasterize.calls", "count", "lower"),
    ("postprocess.geometry.rasterize.ms", "ms", "lower"),
    ("postprocess.evaluation.match_instances.calls", "count", "lower"),
    ("postprocess.evaluation.match_instances.ms", "ms", "lower"),
    ("postprocess.evaluation.masks_iou.calls", "count", "lower"),
    ("postprocess.evaluation.evaluate.ms", "ms", "lower"),
    ("postprocess.evaluation.evaluate.self_ms", "ms", "lower"),
    ("trace.overhead.train", "ratio", "lower"),
    ("trace.overhead.infer", "ratio", "lower"),
    ("trace.overhead.reduce", "ratio", "lower"),
    ("trace.overhead.evaluate", "ratio", "lower"),
]


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(stats: dict) -> dict:
    """The declared per-layer metrics from recorder stats; a layer that was
    never called reads 0."""
    s = defaultdict(float, stats)
    for section in ("train", "infer"):
        key = f"{section}.evolution.forward"
        s[f"{key}.vertices"] = _ratio(s[f"{key}.vertices"], s[f"{key}.calls"])
    for section in ("infer", "postprocess"):
        calls = s[f"{section}.reduction.reduce.calls"]
        for stage in ("in", "thresholded", "nms", "out"):
            key = f"{section}.reduction.vertices_{stage}"
            s[key] = _ratio(s[key], calls)
        s[f"{section}.reduction.fallback_ratio"] = _ratio(s[f"{section}.reduction.fallbacks"], calls)
    return {name: {"value": float(s[name]), "unit": unit} for name, unit, _ in PER_LAYER}
