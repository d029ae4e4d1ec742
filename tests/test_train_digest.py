"""Smoke test of tools/train_digest.py on a default 2-scene fit, and its
infer and evaluation digests in process on a small benchmark set-up."""

import dataclasses
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "train_digest.py"


def run_digest(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True, text=True)


def load_tool(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    spec = importlib.util.spec_from_file_location("train_digest", SCRIPT)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_digest_of_a_two_scene_fit_and_its_comparison(tmp_path):
    done = run_digest("--fit", "2")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    label, digest = lines[0].split(" params ")
    assert label == "fit 2" and len(digest) == 64
    label, heads = lines[1].split(" heads ")
    assert label == "fit 2" and len(heads) == 64 and heads != digest
    # 2 scenes make one step per epoch
    assert lines[2] == "fit 2 steps 12 failed 0"
    assert [line.split()[:4] for line in lines[3:]] == [["fit", "2", "step", str(i)] for i in range(12)]
    assert all(float.fromhex(line.split()[-1]) > 0.0 for line in lines[3:])

    same, other, moved_heads = tmp_path / "same.txt", tmp_path / "other.txt", tmp_path / "heads.txt"
    same.write_text(done.stdout)
    other.write_text(done.stdout.replace(digest, "0" * 64))
    moved_heads.write_text(done.stdout.replace(heads, "0" * 64))
    equal = run_digest("--compare", str(same), str(same))
    assert equal.returncode == 0 and "fit 2: params equal, heads equal" in equal.stdout
    differ = run_digest("--compare", str(same), str(other))
    assert differ.returncode == 1 and "fit 2: params DIFFER, heads equal" in differ.stdout
    differ = run_digest("--compare", str(same), str(moved_heads))
    assert differ.returncode == 1 and "fit 2: params equal, heads DIFFER" in differ.stdout


@pytest.mark.parametrize("spec", ["dense", "dense:", ":3", "dense:x", "dense:3-", "dense:3-1", "dense:1-2-3"])
def test_malformed_seed_spec_is_a_usage_error(spec):
    for option in ("--replay", "--infer"):
        done = run_digest(option, "sparse:1", spec)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("usage:")
        assert f"argument {option}: {spec!r} is not WORKLOAD:SEED or WORKLOAD:FIRST-LAST" in done.stderr


def test_heads_digest_reads_only_the_heads(monkeypatch):
    tool = load_tool(monkeypatch)
    from polytrace import pipeline
    from polytrace.config import RunConfig

    params = pipeline.PipelineParams.initialize(RunConfig(), np.random.default_rng(0))
    before = tool.params_digest(params), tool.params_digest(params, tool.HEAD_PREFIXES)
    params.fuse_w[0, 0] += 1.0
    evolution_moved = tool.params_digest(params), tool.params_digest(params, tool.HEAD_PREFIXES)
    params.offset_b3[0] += 1.0
    head_moved = tool.params_digest(params), tool.params_digest(params, tool.HEAD_PREFIXES)
    assert evolution_moved[0] != before[0] and evolution_moved[1] == before[1]
    assert head_moved[0] != evolution_moved[0] and head_moved[1] != before[1]


def test_infer_digests_follow_each_output(monkeypatch, tmp_path):
    tool = load_tool(monkeypatch)
    from perfbench import workloads

    from polytrace import evaluation, reduction

    sizes = workloads.Sizes(train_steps=1, infer_scenes=6, post_instances=8, rounds=1)

    def digests(seed, model=None):
        bench = workloads.Bench("dense", seed, sizes)
        if model is None:
            bench.fit_model()
        else:
            bench.model = model
        bench.setup()
        return tool.infer_digests(bench), bench

    first, bench = digests(1)
    assert list(first) == list(tool.INFER_DIGESTS)
    assert all(len(d) == 64 for d in first.values())
    assert digests(1, bench.model)[0] == first
    assert digests(2, bench.model)[0]["features"] != first["features"]

    # a wider boundary band moves only the evaluation digest
    with monkeypatch.context() as patch:
        patch.setattr(evaluation, "BOUNDARY_FRACTION", 3 * evaluation.BOUNDARY_FRACTION)
        wider = digests(1, bench.model)[0]
    assert [wider[k] == first[k] for k in tool.INFER_DIGESTS] == [True, True, True, True, True, False]

    # another evolution network moves the evolved points and their reduced
    # polygons, not the decoded detections (the scores of six scenes' few
    # matches need not move); another center head moves the detections
    evolved = dataclasses.replace(bench.model, step_b=bench.model.step_b + np.float32(0.5))
    moved = digests(1, evolved)[0]
    assert [moved[k] == first[k] for k in tool.INFER_DIGESTS[:5]] == [True, True, False, False, True]
    centered = dataclasses.replace(bench.model, center_b2=bench.model.center_b2 + 0.5)
    assert digests(1, centered)[0]["detections"] != first["detections"]

    # a reduction that keeps one more vertex moves the reduced polygons and
    # their evaluation
    prune = reduction.prune_collinear
    monkeypatch.setattr(reduction, "prune_collinear", lambda poly: np.vstack([prune(poly), poly[:1]]))
    moved = digests(1, bench.model)[0]
    assert [moved[k] == first[k] for k in tool.INFER_DIGESTS] == [True, True, True, False, False, False]

    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    old.write_text("".join(f"infer dense:1 {k} {v}\n" for k, v in first.items()))
    new.write_text("".join(f"infer dense:1 {k} {v}\n" for k, v in moved.items()))
    equal = run_digest("--compare", str(old), str(old))
    assert equal.returncode == 0 and "infer dense:1: digests equal" in equal.stdout
    differ = run_digest("--compare", str(old), str(new))
    assert differ.returncode == 1
    assert "infer dense:1: digests DIFFER: evaluation, infer_polygons, postprocess_polygons" in differ.stdout


def test_compare_names_a_step_that_failed_on_one_side(tmp_path):
    """A step that raised FloatingPointError on one side only, against a
    hex loss on the other: --compare exits 1, names the differing keys (the
    losses where no other key differs) and reads the loss difference as
    infinite."""
    lines = ["replay dense:1 params " + "a" * 64, "replay dense:1 heads " + "b" * 64, "replay dense:1 steps 2 failed 0"]
    losses = ["replay dense:1 step 0 0x1.8p+1", "replay dense:1 step 1 0x1.4p+0"]
    old, failed, uncounted = tmp_path / "old.txt", tmp_path / "failed.txt", tmp_path / "uncounted.txt"
    old.write_text("\n".join(lines + losses) + "\n")
    diverged = [lines[0].replace("a" * 64, "c" * 64), lines[1], "replay dense:1 steps 2 failed 1"]
    failed.write_text("\n".join(diverged + [losses[0], "replay dense:1 step 1 FloatingPointError"]) + "\n")
    uncounted.write_text("\n".join(lines + [losses[0], "replay dense:1 step 1 FloatingPointError"]) + "\n")

    done = run_digest("--compare", str(old), str(failed))
    assert done.returncode == 1, done.stderr
    assert done.stdout == (
        "replay dense:1: params DIFFER, heads equal, steps DIFFER, steps 2 failed 1,"
        " largest relative loss difference inf\n"
    )
    done = run_digest("--compare", str(old), str(uncounted))
    assert done.returncode == 1, done.stderr
    assert done.stdout == (
        "replay dense:1: params equal, heads equal, losses DIFFER, steps 2 failed 0,"
        " largest relative loss difference inf\n"
    )
