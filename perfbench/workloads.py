"""The benchmark's workloads and the three sections every run executes.

A run is one process with one caller in a closed loop: each call starts
after the previous one returns, and nothing runs in parallel. Every run
executes, on inputs built from its seed:

- ``train``: timed ``training.train_step`` calls with evolution on, on
  batches of two scenes, after a short warm-up. The only section with
  backward passes; it never runs reduction or evaluation.
- ``infer``: ``pipeline.predict_scene`` followed by ``reduction.reduce`` on
  each held-out scene, with a model that ``training.fit`` trains once per
  run. The same heads and evolution network as ``train``, forward only and
  one detection at a time. Traced runs evaluate it after the timed window.
- ``postprocess``: no model. Ground-truth rings scored the way a vertex
  classifier would score them are reduced and then evaluated, which gives
  reduction realistic vertex counts and evaluation a fixed instance count
  whatever the model's quality.

A workload fixes the scenes the three sections draw from and the peak
threshold that decides how many detections ``infer`` evolves; see
``WORKLOADS``. Scenes come from the config's own generator,
``training.scene_spec_from_config`` and ``synth.generate_scene``.

A pass is one sweep over every section's inputs, cut into ``Sizes.rounds``
rounds; a round runs one chunk of each section in turn. Untraced runs repeat
rounds until ``--seconds`` have passed, and at least one pass, and report
the end-to-end metrics. Traced runs time the first round untraced, then one
pass traced, then the first round untraced again, and report per-layer
totals over the traced pass plus the tracing overhead on the first round.
Times are CPU time (``spans.clock``) scaled to a reference machine speed by
the calibration kernels timed beside them (``calibration``).
"""

from __future__ import annotations

import hashlib
import resource
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from polytrace import evaluation, geometry, pipeline, reduction, synth, training
from polytrace.config import RunConfig

from . import calibration, probes, spans
from .spans import clock

# name -> (why, RunConfig overrides). The detection counts are measured
# with the benchmark's infer model; the run record holds each run's own.
WORKLOADS = {
    "sparse": (
        "one building per scene: 0.5 detections per held-out scene, at most 2, so batching"
        " detections has nothing to batch; feature grid and heads are 37% of infer time",
        {"min_buildings": 1, "max_buildings": 1},
    ),
    "dense": (
        "1-4 buildings per scene and peak threshold 0.05, the low end of its range: 5"
        " detections per held-out scene, so evolution and reduction are 85% of infer time",
        {"peak_threshold": 0.05},
    ),
}

# reduce is the cheapest section, so each chunk is reduced this many times
# to give its per-instance times enough samples beyond p99
REDUCE_REPEATS = 2

SEED_STRIDE = 100_000  # scene seeds of run seed s start at s * SEED_STRIDE
JITTER_PX = 0.5
CORNER_SCORE = 0.95
NEIGHBOUR_SCORE = 0.75
EDGE_SCORES = (0.05, 0.7)  # uniform; about 15% of edge vertices pass 0.6
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND_TAIL = 10


@dataclass(frozen=True)
class Sizes:
    """Work in one pass of each section. A pass's size fixes its tail
    percentile, so extra rounds on a faster program add samples without
    moving the percentile."""

    train_steps: int = 100       # p90, 10 steps beyond
    warmup_steps: int = 3
    batch_scenes: int = 2
    infer_scenes: int = 200      # p95, 10 scenes beyond
    post_instances: int = 500    # reduced twice: p99, 10 beyond
    selfcheck_instances: int = 100
    fit_scenes: int = 4
    setup_repeats: int = 3
    rounds: int = 8


# A sparse scene costs about twice as much with its one detection as without,
# and about half of them have one, so 200 scenes leave per-scene times
# following each seed's share of scenes with a detection (0.45 to 0.59 over
# ten seeds). 800 scenes, at about 5 ms each, hold that share steadier and
# still take less time a pass than dense's 200 at about 33 ms each.
WORKLOAD_SIZES = {"sparse": Sizes(infer_scenes=800), "dense": Sizes()}


def tail_percentile(pass_size: int) -> float:
    """Highest ladder percentile with at least 10 samples of a pass beyond it."""
    for pct in TAIL_LADDER:
        if pass_size * (100.0 - pct) >= MIN_BEYOND_TAIL * 100.0 - 1e-6:
            return pct
    return 50.0


def workload_config(name: str) -> RunConfig:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    return RunConfig(**WORKLOADS[name][1])


def is_subsequence(poly, ring) -> bool:
    """True when every vertex of ``poly`` is a vertex of ``ring``, in ring order."""
    pos = -1
    for vertex in poly:
        later = np.flatnonzero((ring == vertex).all(axis=1))
        later = later[later > pos]
        if later.size == 0:
            return False
        pos = later[0]
    return True


def polygon_ok(poly, ring) -> bool:
    poly = np.asarray(poly)
    return (
        poly.ndim == 2
        and poly.shape[1] == 2
        and poly.shape[0] >= 3
        and bool(np.isfinite(poly).all())
        and is_subsequence(poly, ring)
    )


@dataclass
class Tally:
    """Operations attempted and failed, and output checks that failed."""

    attempted: int = 0
    failed: Counter = field(default_factory=Counter)
    errors: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def fail(self, kind: str, exc: Exception) -> None:
        self.failed[kind] += 1
        if len(self.errors) < 5:
            self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")

    def check(self, ok: bool, message: str) -> None:
        if not ok and len(self.problems) < 20:
            self.problems.append(message)
        elif not ok:
            self.problems[-1] = f"{message} (and more)"


@dataclass
class Round:
    """What one round measured: CPU ms per op, and the outputs it made."""

    train_ms: list        # per scene-step
    infer_ms: list        # per scene
    detections: list      # per scene
    infer_outputs: list   # per scene: (predictions, reduced polygons)
    reduce_ms: list       # per instance, every repeat
    eval_s_per_1k: float
    polys: list           # reduced polygons of the postprocess chunk
    section_s: dict       # CPU seconds per section


class Bench:
    def __init__(self, workload: str, seed: int, sizes: Sizes | None = None, recorder=None):
        self.seed = seed
        self.cfg = workload_config(workload)
        self.sizes = sizes or WORKLOAD_SIZES[workload]
        self.rec = recorder
        self.tally = Tally()
        self.meter = None  # a calibration.Meter once a run starts measuring

    # -- set-up -----------------------------------------------------------

    def fit_model(self) -> None:
        """Train the inference model on the config's own fixed dataset.

        The model depends on neither the workload nor the run seed: fresh or
        barely trained parameters give no detections at all, and a model
        that changed with the seed would change how many detections each
        scene has to evolve.
        """
        cfg = RunConfig()
        scenes = training.make_dataset(cfg, self.sizes.fit_scenes)
        bundles = [training.prepare_scene(s, cfg, i) for i, s in enumerate(scenes)]
        self.model, _ = training.fit(bundles, cfg)

    def setup(self) -> None:
        """Everything a run needs from its seed; repeatable, and it starts a
        fresh tally."""
        sizes = self.sizes
        self.tally = Tally()
        self.scenes = self._scene_pool()
        train_scenes = self.scenes[: sizes.batch_scenes * sizes.train_steps]
        bundles = [training.prepare_scene(s, self.cfg, i) for i, s in enumerate(train_scenes)]
        self.batches = [
            bundles[i : i + sizes.batch_scenes] for i in range(0, len(bundles), sizes.batch_scenes)
        ]
        rng = np.random.default_rng(np.random.SeedSequence([0x7B, self.seed]))
        self.params = pipeline.PipelineParams.initialize(self.cfg, rng)
        self.optimizer = training.make_optimizer(self.cfg)
        self.contours = self._scored_contours()

    def _scene_pool(self) -> list:
        """Scenes from consecutive seeds after ``seed * SEED_STRIDE``, until
        train and infer have their scenes and postprocess its ground truths.

        A seed whose scene cannot be generated counts as a failed operation
        and is skipped; no other seed stands in for it.
        """
        sizes = self.sizes
        spec = training.scene_spec_from_config(self.cfg)
        need = max(sizes.batch_scenes * sizes.train_steps, sizes.infer_scenes)
        scenes, instances, i = [], 0, 0
        while len(scenes) < need or instances < sizes.post_instances:
            self.tally.attempted += 1
            try:
                scene = synth.generate_scene(self.seed * SEED_STRIDE + i, spec)
            except RuntimeError as exc:
                self.tally.fail("generate_scene", exc)
            else:
                scenes.append(scene)
                instances += len(scene.buildings)
            i += 1
        return scenes

    def _scored_contours(self) -> list:
        """(image_id, ground truth, ScoredContour) for the first
        ``post_instances`` buildings of the pool.

        Each ring is the N-vertex densified ground truth plus Gaussian jitter.
        The vertex nearest each true corner scores 0.95 and its two ring
        neighbours 0.75, so vertex NMS has duplicates to remove; other
        vertices score uniformly in [0.05, 0.7), so some edge vertices pass
        the threshold and angle pruning has work to do.
        """
        rng = np.random.default_rng(np.random.SeedSequence([0xC0, self.seed]))
        n = self.cfg.n_vertices
        out = []
        for image_id, scene in enumerate(self.scenes):
            for poly in scene.buildings:
                if len(out) == self.sizes.post_instances:
                    return out
                ring = geometry.densify(poly, n).points
                points = ring + rng.normal(0.0, JITTER_PX, ring.shape)
                scores = rng.uniform(*EDGE_SCORES, n)
                nearest = np.linalg.norm(poly[:, None] - ring[None], axis=2).argmin(axis=1)
                scores[(nearest - 1) % n] = NEIGHBOUR_SCORE
                scores[(nearest + 1) % n] = NEIGHBOUR_SCORE
                scores[nearest] = CORNER_SCORE
                out.append((image_id, poly, reduction.ScoredContour(points, scores)))
        return out

    def input_digest(self) -> str:
        h = hashlib.sha256()
        for scene in self.scenes:
            h.update(str(scene.seed).encode())
            h.update(scene.image.tobytes())
            for poly in scene.buildings:
                h.update(np.ascontiguousarray(poly).tobytes())
        for _, _, sc in self.contours:
            h.update(sc.points.tobytes())
            h.update(sc.scores.tobytes())
        return h.hexdigest()

    # -- sections ---------------------------------------------------------

    def _enter(self, section: str) -> None:
        if self.rec is not None:
            self.rec.section = section

    def warm_up(self) -> None:
        """A few train steps, infer scenes and reduce calls, and the
        self-check, which also makes the first timed ``evaluate`` call a
        warm one. Their times are discarded; they count as operations."""
        n = self.sizes.warmup_steps
        for batch in self.batches[:n]:
            self._train_step(batch)
        self.infer_chunk(slice(0, n))
        self.reduce_chunk(self.contours[:n])
        self.self_check()

    def _train_step(self, batch) -> None:
        self.tally.attempted += 1
        try:
            loss = training.train_step(batch, self.params, self.optimizer, self.cfg)
        except FloatingPointError as exc:
            # train_step raises instead of returning a non-finite loss
            self.tally.fail("train_step", exc)
            self.tally.check(False, f"train: {exc}")
            return
        self.tally.check(bool(np.isfinite(loss)), f"train: non-finite loss {loss}")

    def train_chunk(self, part: slice) -> list:
        """CPU ms per scene-step of each step in a chunk of the batches."""
        times = []
        for batch in self.batches[part]:
            start = clock()
            self._train_step(batch)
            elapsed = clock() - start
            times.append((elapsed * 1e3 / len(batch), self.meter.mark(elapsed)))
        return self.meter.scaled(times, "array")

    def infer_chunk(self, part: slice):
        """(CPU ms per scene, detections per scene, per-scene (predictions,
        polygons)) for a chunk of the held-out scenes."""
        times, detections, outputs = [], [], []
        cfg = self.cfg
        for scene in self.scenes[: self.sizes.infer_scenes][part]:
            self.tally.attempted += 1
            start = clock()
            try:
                preds = pipeline.predict_scene(scene.image, self.model, cfg)
                polys = [
                    reduction.reduce(
                        reduction.ScoredContour(p.points, p.vertex_scores), cfg.vertex_threshold
                    )
                    for p in preds
                ]
            except Exception as exc:  # counted, and the run goes on
                self.tally.fail("predict_scene+reduce", exc)
                preds, polys = [], []
            elapsed = clock() - start
            times.append((elapsed * 1e3, self.meter.mark(elapsed)))
            detections.append(len(preds))
            outputs.append((preds, polys))
        times = self.meter.scaled(times, "array")
        for preds, polys in outputs:
            for p, poly in zip(preds, polys):
                self.tally.check(polygon_ok(poly, p.points), "infer: reduced polygon invalid")
        return times, detections, outputs

    def infer_quality(self, outputs) -> dict:
        """Evaluation of one infer pass, outside any timed window."""
        preds, gts = [], []
        for image_id, (scene, (found, polys)) in enumerate(zip(self.scenes, outputs)):
            preds += [evaluation.InstancePrediction(poly, p.score, image_id) for p, poly in zip(found, polys)]
            gts += [evaluation.GroundTruth(b, image_id) for b in scene.buildings]
        report = evaluation.evaluate(preds, gts, self.cfg.frame_dims)
        frame = self.cfg.frame_dims
        matched = evaluation.match_instances(
            preds, gts, lambda p, g: evaluation.mask_iou(p.polygon, g.polygon, frame), 0.5
        )
        return {
            "ap_msk": report.ap_msk,
            "ap_bdy": report.ap_bdy,
            "mean_instance_iou": report.mean_instance_iou,
            "useful_ratio": len(matched.pairs) / len(preds) if preds else 0.0,
            "detections": len(preds),
            "ground_truths": len(gts),
        }

    def reduce_chunk(self, contours):
        """(CPU ms per instance, reduced polygons) for scored contours."""
        times, polys = [], []
        for _, _, sc in contours:
            self.tally.attempted += 1
            start = clock()
            try:
                poly = reduction.reduce(sc, self.cfg.vertex_threshold)
            except Exception as exc:  # counted, and the run goes on
                self.tally.fail("reduce", exc)
                poly = None
            elapsed = clock() - start
            times.append((elapsed * 1e3, self.meter.mark(elapsed)))
            polys.append(poly)
        times = self.meter.scaled(times, "interpreter")
        for (_, _, sc), poly in zip(contours, polys):
            if poly is not None:
                self.tally.check(polygon_ok(poly, sc.points), "postprocess: reduced polygon invalid")
        return times, polys

    def evaluate_postprocess(self, contours, polys):
        """(CPU seconds at the reference speed, report) for one ``evaluate``
        of reduced polygons against the ground truths of their contours."""
        preds = [
            evaluation.InstancePrediction(poly, float(sc.scores.mean()), image_id)
            for (image_id, _, sc), poly in zip(contours, polys)
            if poly is not None
        ]
        gts = [evaluation.GroundTruth(gt, image_id) for image_id, gt, _ in contours]
        self.tally.attempted += 1
        self.meter.close()
        start = clock()
        report = evaluation.evaluate(preds, gts, self.cfg.frame_dims)
        elapsed = clock() - start
        (elapsed,) = self.meter.scaled([(elapsed, self.meter.mark(elapsed))], "interpreter")
        for key, value in report.to_dict().items():
            values = np.atleast_1d(np.asarray(value, dtype=float))
            self.tally.check(
                bool(np.all((values >= 0.0) & (values <= 1.0))), f"postprocess: {key} outside [0, 1]"
            )
        return elapsed, report

    def self_check(self) -> None:
        """Ground truth evaluated against itself must score AP 1.0."""
        gts = [
            evaluation.GroundTruth(gt, image_id)
            for image_id, gt, _ in self.contours[: self.sizes.selfcheck_instances]
        ]
        preds = [evaluation.InstancePrediction(g.polygon, 1.0, g.image_id) for g in gts]
        report = evaluation.evaluate(preds, gts, self.cfg.frame_dims)
        self.tally.check(
            report.ap_msk == 1.0 and report.ap_bdy == 1.0,
            f"self-check: ground truth against itself gave AP {report.ap_msk}/{report.ap_bdy}",
        )

    # -- runs -------------------------------------------------------------

    def run_round(self, k: int) -> Round:
        """Chunk ``k`` of each section, one section after the other, so a
        stretch of slow machine time falls on every metric a little."""
        rounds = self.sizes.rounds
        self._enter("train")
        train_ms = self.train_chunk(_part(len(self.batches), k, rounds))
        self._enter("infer")
        infer_ms, detections, outputs = self.infer_chunk(_part(self.sizes.infer_scenes, k, rounds))
        self._enter("postprocess")
        contours = self.contours[_part(len(self.contours), k, rounds)]
        reduce_ms = []
        for _ in range(REDUCE_REPEATS):
            times, polys = self.reduce_chunk(contours)
            reduce_ms += times
        evaluate_s, _ = self.evaluate_postprocess(contours, polys)
        section_s = {
            "train": sum(train_ms) * self.sizes.batch_scenes / 1e3,
            "infer": sum(infer_ms) / 1e3,
            "reduce": sum(reduce_ms) / 1e3,
            "evaluate": evaluate_s,
        }
        return Round(
            train_ms,
            infer_ms,
            detections,
            outputs,
            reduce_ms,
            evaluate_s * 1000.0 / len(contours),
            polys,
            section_s,
        )

    def measured(self, seconds: float):
        """Untraced run: (end-to-end metrics, detail)."""
        sizes = self.sizes
        start = clock()
        self.fit_model()
        fit_s = clock() - start
        self.meter = calibration.Meter()
        setup_s = []
        for _ in range(sizes.setup_repeats):
            start = clock()
            self.setup()
            elapsed = clock() - start
            setup_s.append((elapsed, self.meter.mark(elapsed)))
        setup_s = self.meter.scaled(setup_s, "interpreter")
        self.warm_up()

        rounds = []
        wall_start, cpu_start = time.perf_counter(), clock()
        while len(rounds) < sizes.rounds or time.perf_counter() - wall_start < seconds:
            rounds.append(self.run_round(len(rounds) % sizes.rounds))
        wall_s, cpu_s = time.perf_counter() - wall_start, clock() - cpu_start

        # outside the timed window: quality of one whole pass
        first_pass = rounds[: sizes.rounds]
        polys = [poly for r in first_pass for poly in r.polys]
        _, report = self.evaluate_postprocess(self.contours, polys)

        def p50(ms_of):
            # median over rounds of the round mean: per-op times come in
            # steps (one per detection, per surviving vertex), and a per-op
            # median jumps between steps from seed to seed
            return float(np.median([np.mean(ms_of(r)) for r in rounds if ms_of(r)]))

        def pooled(ms_of):
            return [t for r in rounds for t in ms_of(r)]

        train_ms, infer_ms, reduce_ms = (
            pooled(lambda r: r.train_ms), pooled(lambda r: r.infer_ms), pooled(lambda r: r.reduce_ms)
        )
        tails = {
            "train": tail_percentile(len(self.batches)),
            "infer": tail_percentile(sizes.infer_scenes),
            "reduce": tail_percentile(REDUCE_REPEATS * len(self.contours)),
        }
        detections = pooled(lambda r: r.detections)
        values = {
            "setup_s": (np.median(setup_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "train_scenes_per_s": (1e3 / np.mean(train_ms), "1/s"),
            "train_step_ms_p50": (p50(lambda r: r.train_ms), "ms"),
            "train_step_ms_tail": (np.percentile(train_ms, tails["train"]), "ms"),
            "infer_scene_ms_p50": (p50(lambda r: r.infer_ms), "ms"),
            "infer_scene_ms_tail": (np.percentile(infer_ms, tails["infer"]), "ms"),
            "infer_detection_ms": (sum(infer_ms) / max(sum(detections), 1), "ms"),
            "reduce_ms_p50": (p50(lambda r: r.reduce_ms), "ms"),
            "reduce_ms_tail": (np.percentile(reduce_ms, tails["reduce"]), "ms"),
            "eval_s_per_1k": (np.median([r.eval_s_per_1k for r in rounds]), "s"),
            "ap_msk": (report.ap_msk, "ratio"),
            "ap_bdy": (report.ap_bdy, "ratio"),
            "mean_instance_iou": (report.mean_instance_iou, "ratio"),
        }
        metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}
        samples = {"train": len(train_ms), "infer": len(infer_ms), "reduce": len(reduce_ms)}
        first_detections = [d for r in first_pass for d in r.detections]
        detail = {
            "rounds": len(rounds),
            "samples": samples,
            "tail_percentile": tails,
            "samples_beyond_tail": {
                k: round(samples[k] * (100.0 - tails[k]) / 100.0) for k in samples
            },
            "fit_s": fit_s,
            "setup_s": setup_s,
            "measured_wall_s": wall_s,
            "measured_cpu_s": cpu_s,
            "ground_truths_per_scene": float(np.mean([len(s.buildings) for s in self.scenes])),
            "detections_per_scene": float(np.mean(first_detections)),
            "detections_per_scene_histogram": dict(sorted(Counter(first_detections).items())),
            "round_means": {
                "train_ms": [float(np.mean(r.train_ms)) for r in rounds],
                "infer_ms": [float(np.mean(r.infer_ms)) for r in rounds],
                "reduce_ms": [float(np.mean(r.reduce_ms)) for r in rounds],
                "eval_s_per_1k": [r.eval_s_per_1k for r in rounds],
            },
            "kernel_s": self.meter.summary(),
        }
        return metrics, detail

    def traced(self):
        """Traced run: (per-layer metrics, detail).

        The first round runs untraced, then traced as the start of one
        traced pass, then untraced again; the tracing overhead compares its
        traced section times with the mean of the untraced ones. Per-layer
        totals cover set-up and the traced pass.
        """
        rec, rounds = self.rec, self.sizes.rounds
        with spans.installed(rec, probes.PROBES):
            rec.section = "setup"
            self.fit_model()
            self.setup()
        self.meter = calibration.Meter()
        self.warm_up()

        # the first round untraced before and after the traced pass
        before = self.run_round(0).section_s
        with spans.installed(rec, probes.PROBES):
            traced = [self.run_round(k) for k in range(rounds)]
        after = self.run_round(0).section_s
        overhead = {
            name: 2.0 * s / (before[name] + after[name]) - 1.0 for name, s in traced[0].section_s.items()
        }

        quality = self.infer_quality([o for r in traced for o in r.infer_outputs])
        stats = rec.stats()
        for key in ("ap_msk", "ap_bdy", "mean_instance_iou"):
            stats[f"infer.evaluation.evaluate.{key}"] = quality[key]
        stats["infer.detection.useful_ratio"] = quality["useful_ratio"]
        for name, value in overhead.items():
            stats[f"trace.overhead.{name}"] = value
        detail = {"infer_quality": quality, "trace_overhead": overhead, "kernel_s": self.meter.summary()}
        return probes.per_layer(stats), detail


def _part(n: int, k: int, rounds: int) -> slice:
    return slice(k * n // rounds, (k + 1) * n // rounds)


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes | None = None) -> dict:
    """One benchmark run; returns the result line's fields plus ``detail``."""
    bench = Bench(workload, seed, sizes, spans.Recorder() if trace else None)
    metrics, detail = bench.traced() if trace else bench.measured(seconds)
    tally = bench.tally
    detail.update(
        workload=workload,
        seed=seed,
        input_digest=bench.input_digest(),
        failures=dict(tally.failed),
        errors=tally.errors,
        problems=tally.problems,
    )
    return {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": sum(tally.failed.values()),
        "metrics": metrics,
        "detail": detail,
    }
