"""Digests of training and inference runs, to check that a change trains
and infers bit-identically.

    python3 tools/train_digest.py --fit 4 32 --replay dense:1-10 sparse:1-10 > out.txt
    python3 tools/train_digest.py --infer dense:1-10 sparse:1-10 > infer.txt
    python3 tools/train_digest.py --compare parent.txt change.txt

Run from the root of a checkout, once on each side of a change, then compare
(or ``diff``) the two outputs. For every run it prints the sha256 of the
final parameters, the sha256 of the center and offset heads' arrays alone
(``heads``), the step count with the number of steps that raised
``FloatingPointError``, and every step's total loss as a hex float:

- ``fit N``: ``training.fit`` with the default config on
  ``make_dataset(RunConfig(), N)``.
- ``replay WORKLOAD:SEED``: the benchmark's train section alone. It runs
  ``perfbench.workloads.Bench(WORKLOAD, SEED).setup()``, the warm-up batches,
  then chunk ``k % rounds`` of the batches in round k, for ``PASSES``
  passes of every batch: 1003 steps on both workloads. A step that raises
  ``FloatingPointError`` leaves the parameters unchanged, as in the
  benchmark.
- ``infer WORKLOAD:SEED``: the benchmark's infer and postprocess outputs,
  without timing. After ``Bench(WORKLOAD, SEED).setup()`` it prints one
  sha256 each of the feature grids of the held-out scenes, their center
  detections (the 16 bytes of each center and the hex float of its score,
  from the arrays ``pipeline.detect`` returns: the step of
  ``predict_scene`` that only the grid and the center head decide), their
  predictions (points, vertex scores and score of each), their reduced
  polygons, and the reduced polygons of the postprocess rings; an error is
  hashed by its type's name. A sixth, ``evaluation``, hashes the hex floats
  of ``REPORT_FIELDS`` of ``evaluation.evaluate``'s report on the reduced
  postprocess polygons and on the reduced infer polygons, scored and
  grouped into images as the benchmark does. The benchmark's infer model
  depends on neither workload nor seed, so it is fitted once per process.

``--compare`` reads two outputs of the same runs. It prints, per run,
whether the digests are equal and, for training runs, the largest relative
difference of a step's loss, and exits 1 if a digest or a failure count
differs. A change to the evolution network alone moves ``params``,
``predictions`` and what follows from them, but leaves ``heads`` and
``detections`` equal: no gradient of the heads passes through it.
BLAS and OpenMP threads are pinned to one, as the benchmark pins them.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
INFER_DIGESTS = ("features", "detections", "predictions", "infer_polygons", "postprocess_polygons", "evaluation")
HEAD_PREFIXES = ("center_", "offset_")
REPORT_FIELDS = (
    "ap_msk",
    "ap_bdy",
    "manual_level_2px",
    "manual_level_3px",
    "mean_instance_iou",
    "precision_mask",
    "precision_boundary",
)
# passes over the batches of each replay, 8 rounds each: on both workloads a
# replay makes 3 warm-up steps + 10 passes of 100 steps = 1003 steps, 80
# rounds, more than the 52 (dense) and 65 (sparse) a 30 s benchmark run reached
PASSES = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fit", type=int, nargs="*", default=[], metavar="N", help="scene counts of default fits")
    parser.add_argument(
        "--replay", type=seed_range, nargs="*", default=[], metavar="WORKLOAD:SEEDS", help="e.g. dense:3 or sparse:1-10"
    )
    parser.add_argument(
        "--infer", type=seed_range, nargs="*", default=[], metavar="WORKLOAD:SEEDS", help="as --replay"
    )
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two outputs and exit")
    return parser.parse_args(argv)


def seed_range(spec: str):
    """(workload, first seed, last seed) of a ``WORKLOAD:SEED`` or
    ``WORKLOAD:FIRST-LAST`` spec; anything else is a usage error."""
    workload, _, seeds = spec.partition(":")
    first, dash, last = seeds.partition("-")
    try:
        first, last = int(first), int(last if dash else first)
        valid = bool(workload) and first <= last
    except ValueError:
        valid = False
    if not valid:
        raise argparse.ArgumentTypeError(f"{spec!r} is not WORKLOAD:SEED or WORKLOAD:FIRST-LAST")
    return workload, first, last


def replays(ranges):
    """(workload, seed) pairs of :func:`seed_range` triples."""
    for workload, first, last in ranges:
        for seed in range(first, last + 1):
            yield workload, seed


def params_digest(params, prefixes=("",)) -> str:
    """sha256 of the arrays whose names start with one of ``prefixes``
    (every array by default), with their names, dtypes and shapes."""
    h = hashlib.sha256()
    for name, arr in params.arrays():
        if name.startswith(prefixes):
            h.update(f"{name} {arr.dtype.str} {arr.shape}".encode())
            h.update(arr.tobytes())
    return h.hexdigest()


def fit_run(n_scenes: int):
    """(params, per-step losses) of a default fit on ``n_scenes`` scenes."""
    from polytrace import training
    from polytrace.config import RunConfig

    cfg = RunConfig()
    bundles = [training.prepare_scene(s, cfg, i) for i, s in enumerate(training.make_dataset(cfg, n_scenes))]
    step, losses = training.train_step, []

    def recording(*args, **kwargs):
        losses.append(step(*args, **kwargs))
        return losses[-1]

    training.train_step = recording  # fit looks train_step up at each call
    try:
        params, _ = training.fit(bundles, cfg)
    finally:
        training.train_step = step
    return params, losses


def replay_run(workload: str, seed: int):
    """(params, per-step losses) of the benchmark's train steps in its order;
    a failed step's loss is the name of its error."""
    from perfbench import workloads
    from polytrace import training

    bench = workloads.Bench(workload, seed)
    bench.setup()
    sizes, batches = bench.sizes, bench.batches
    order = batches[: sizes.warmup_steps]
    for k in range(PASSES * sizes.rounds):
        order += batches[workloads._part(len(batches), k % sizes.rounds, sizes.rounds)]
    losses = []
    for batch in order:
        try:
            losses.append(training.train_step(batch, bench.params, bench.optimizer, bench.cfg))
        except FloatingPointError:
            losses.append("FloatingPointError")
    return bench.params, losses


def infer_digests(bench) -> dict:
    """{name: sha256} of the infer and postprocess outputs of a set-up
    ``Bench`` that holds its infer model; one ``reduce`` per postprocess ring."""
    from polytrace import evaluation, pipeline, reduction, synth

    cfg = bench.cfg
    h = {name: hashlib.sha256() for name in INFER_DIGESTS}

    def reduced(sc):
        """(digest bytes, polygon or None) of one ``reduce``."""
        try:
            poly = reduction.reduce(sc, cfg.vertex_threshold)
        except Exception as exc:
            return type(exc).__name__.encode(), None
        return f"{len(poly)} vertices".encode() + poly.tobytes(), poly

    infer_preds, infer_gts = [], []
    for image_id, scene in enumerate(bench.scenes[: bench.sizes.infer_scenes]):
        grid = synth.feature_provider(scene.image)
        h["features"].update(grid.tobytes())
        _, centers, scores = pipeline.detect(grid[None], bench.model, cfg)
        h["detections"].update(f"{len(centers)} detections".encode())
        for center, score in zip(centers, scores):
            h["detections"].update(center.tobytes() + float(score).hex().encode())
        infer_gts += [evaluation.GroundTruth(b, image_id) for b in scene.buildings]
        try:
            preds = pipeline.predict_scene(scene.image, bench.model, cfg)
        except Exception as exc:
            h["predictions"].update(type(exc).__name__.encode())
            continue
        h["predictions"].update(f"{len(preds)} detections".encode())
        for p in preds:
            h["predictions"].update(p.points.tobytes() + p.vertex_scores.tobytes() + float(p.score).hex().encode())
            data, poly = reduced(reduction.ScoredContour(p.points, p.vertex_scores))
            h["infer_polygons"].update(data)
            if poly is not None:
                infer_preds.append(evaluation.InstancePrediction(poly, p.score, image_id))
    post_preds, post_gts = [], []
    for image_id, gt, sc in bench.contours:
        data, poly = reduced(sc)
        h["postprocess_polygons"].update(data)
        post_gts.append(evaluation.GroundTruth(gt, image_id))
        if poly is not None:
            post_preds.append(evaluation.InstancePrediction(poly, float(sc.scores.mean()), image_id))
    for preds, gts in ((post_preds, post_gts), (infer_preds, infer_gts)):
        try:
            report = evaluation.evaluate(preds, gts, cfg.frame_dims).to_dict()
        except Exception as exc:
            h["evaluation"].update(type(exc).__name__.encode())
            continue
        values = []
        for name in REPORT_FIELDS:
            values += report[name] if isinstance(report[name], list) else [report[name]]
        h["evaluation"].update(" ".join(float(v).hex() for v in values).encode() + b"\n")
    return {name: digest.hexdigest() for name, digest in h.items()}


def infer_runs(ranges):
    """(label, digests) of each ``--infer`` run, with one fitted infer model."""
    from perfbench import workloads

    model = None
    for workload, seed in replays(ranges):
        bench = workloads.Bench(workload, seed)
        if model is None:
            bench.fit_model()
            model = bench.model
        else:
            bench.model = model
        bench.setup()
        yield f"infer {workload}:{seed}", infer_digests(bench)


def report(label: str, params, losses) -> None:
    failed = sum(isinstance(loss, str) for loss in losses)
    print(f"{label} params {params_digest(params)}")
    print(f"{label} heads {params_digest(params, HEAD_PREFIXES)}")
    print(f"{label} steps {len(losses)} failed {failed}")
    for i, loss in enumerate(losses):
        print(f"{label} step {i} {loss if isinstance(loss, str) else float(loss).hex()}")


def read_output(path):
    """{run label: {line kind: rest of the line}, with "losses": [str]} of one
    output; a run's label is the first two words of each of its lines."""
    runs = {}
    for line in Path(path).read_text().splitlines():
        kind, name, key, rest = line.split(" ", 3)
        run = runs.setdefault(f"{kind} {name}", {"losses": []})
        if key == "step":
            run["losses"].append(rest.split()[1])
        else:
            run[key] = rest
    return runs


def compare(old_path, new_path) -> int:
    old, new = read_output(old_path), read_output(new_path)
    if sorted(old) != sorted(new):
        print(f"the outputs hold different runs: {sorted(old)} vs {sorted(new)}")
        return 1
    status = 0
    for label, a in old.items():
        b = new[label]
        differ = sorted(key for key in a.keys() | b.keys() if key != "losses" and a.get(key) != b.get(key))
        worst = 0.0
        for x, y in zip(a["losses"], b["losses"]):
            if x != y:
                try:
                    u, v = float.fromhex(x), float.fromhex(y)
                except ValueError:  # a failed step on one side only
                    differ, worst = differ or ["losses"], float("inf")
                    continue
                worst = max(worst, abs(u - v) / max(abs(u), abs(v)))
        status |= bool(differ)
        if "params" in a:
            verdicts = [f"{key} {'DIFFER' if key in differ else 'equal'}" for key in ("params", "heads")]
            verdicts += [f"{key} DIFFER" for key in differ if key not in ("params", "heads")]
            print(f"{label}: {', '.join(verdicts)}, steps {b['steps']}, largest relative loss difference {worst:.3g}")
        else:
            print(f"{label}: " + (f"digests DIFFER: {', '.join(differ)}" if differ else "digests equal"))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    for n in args.fit:
        report(f"fit {n}", *fit_run(n))
    for workload, seed in replays(args.replay):
        report(f"replay {workload}:{seed}", *replay_run(workload, seed))
    for label, digests in infer_runs(args.infer):
        for name, digest in digests.items():
            print(f"{label} {name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
