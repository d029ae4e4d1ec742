"""Tests of the benchmark itself, at tiny sizes."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from polytrace import training  # noqa: E402

from perfbench import calibration, probes, run, spans, workloads  # noqa: E402

TINY = workloads.Sizes(
    train_steps=4,
    warmup_steps=1,
    infer_scenes=4,
    post_instances=12,
    selfcheck_instances=6,
    fit_scenes=2,
    setup_repeats=1,
    rounds=2,
)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = (
    "infer.detection.detections",
    "postprocess.geometry.rasterize.calls",
    "postprocess.evaluation.masks_iou.calls",
)


def tiny_run(workload, seed, trace):
    return workloads.run(workload, seed, seconds=0.01, trace=trace, sizes=TINY)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_reports_every_end_to_end_metric(workload):
    result = tiny_run(workload, seed=1, trace=False)
    assert result["correct"], result["detail"]["problems"]
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
    assert result["metrics"]["setup_s"]["value"] > 0


def test_traced_run_reports_every_per_layer_metric():
    result = tiny_run("dense", seed=1, trace=True)
    assert result["correct"], result["detail"]["problems"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["train.evolution.forward.calls"]["value"] > 0
    assert result["metrics"]["postprocess.reduction.reduce.ms"]["value"] > 0


def test_same_seed_gives_same_inputs_and_counts():
    first = tiny_run("dense", seed=5, trace=True)
    second = tiny_run("dense", seed=5, trace=True)
    assert first["detail"]["input_digest"] == second["detail"]["input_digest"]
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["postprocess.geometry.rasterize.calls"]["value"] > 0


def test_different_seed_changes_inputs():
    digests = set()
    for seed in (5, 6):
        bench = workloads.Bench("dense", seed, TINY)
        bench.setup()
        digests.add(bench.input_digest())
    assert len(digests) == 2


def test_failed_train_step_fails_the_output_check(monkeypatch):
    def diverge(*args, **kwargs):
        raise FloatingPointError("non-finite training loss nan")

    fit_model = workloads.Bench.fit_model

    def fit_then_diverge(bench):
        fit_model(bench)  # fit itself runs train_step
        monkeypatch.setattr(training, "train_step", diverge)

    monkeypatch.setattr(workloads.Bench, "fit_model", fit_then_diverge)
    result = tiny_run("sparse", seed=1, trace=False)
    assert not result["correct"]
    assert result["detail"]["failures"]["train_step"] == TINY.warmup_steps + TINY.train_steps


def test_workload_reasons_match_benchmark_json():
    declared = {w["name"]: w["why"] for w in SPEC["workloads"]}
    assert declared == {name: why for name, (why, _) in workloads.WORKLOADS.items()}


def test_tail_percentile_keeps_ten_samples_beyond():
    assert workloads.tail_percentile(100) == 90.0
    assert workloads.tail_percentile(200) == 95.0
    assert workloads.tail_percentile(1000) == 99.0
    assert workloads.tail_percentile(10) == 50.0


def test_subsequence_check():
    ring = np.arange(20, dtype=float).reshape(10, 2)
    assert workloads.polygon_ok(ring[[1, 4, 7]], ring)
    assert not workloads.polygon_ok(ring[[4, 1, 7]], ring)
    assert not workloads.polygon_ok(ring[[1, 4]], ring)
    assert not workloads.polygon_ok(ring[[1, 4, 7]] + 0.5, ring)


def test_probes_are_removed_after_the_block():
    original = training.center_forward
    rec = spans.Recorder()
    with spans.installed(rec, probes.PROBES):
        assert training.center_forward is not original
    assert training.center_forward is original


def test_self_time_excludes_children():
    rec = spans.Recorder()
    rec.section = "s"
    inner = rec.timed("inner", lambda: sum(range(1000)))
    outer = rec.timed("outer", lambda: [inner() for _ in range(3)])
    outer()
    stats = rec.stats()
    assert stats["s.inner.calls"] == 3
    assert stats["s.outer.self_ms"] == pytest.approx(stats["s.outer.ms"] - stats["s.inner.ms"])


@pytest.mark.parametrize("mix", sorted(calibration.MIXES))
def test_calibration_scales_to_the_reference_speed(mix):
    ref = calibration.REFERENCE_S
    half = {name: 2 * s for name, s in ref.items()}
    assert calibration.scale(ref, ref, mix) == pytest.approx(1.0)
    # a host running the kernels at half speed halves every time measured
    assert calibration.scale(half, half, mix) == pytest.approx(0.5)
    assert set(calibration.kernel_s()) == set(ref)


def test_git_commit_reads_loose_and_packed_refs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.git_commit() == "unknown"
    git = tmp_path / ".git"
    git.mkdir()
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "packed-refs").write_text("# pack-refs with: peeled\n" + "a" * 40 + " refs/heads/main\n")
    assert run.git_commit() == "a" * 40
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "refs" / "heads" / "main").write_text("b" * 40 + "\n")
    assert run.git_commit() == "b" * 40


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = SPEC["command"] + ["--workload", "dense", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
