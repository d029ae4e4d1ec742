"""Smoke test of tools/train_digest.py on a default 2-scene fit, and its
infer and evaluation digests in process on a small benchmark set-up."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "train_digest.py"


def run_digest(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True, text=True)


def test_digest_of_a_two_scene_fit_and_its_comparison(tmp_path):
    done = run_digest("--fit", "2")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    label, digest = lines[0].split(" params ")
    assert label == "fit 2" and len(digest) == 64
    # 2 scenes make one step per epoch
    assert lines[1] == "fit 2 steps 12 failed 0"
    assert [line.split()[:4] for line in lines[2:]] == [["fit", "2", "step", str(i)] for i in range(12)]
    assert all(float.fromhex(line.split()[-1]) > 0.0 for line in lines[2:])

    same, other = tmp_path / "same.txt", tmp_path / "other.txt"
    same.write_text(done.stdout)
    other.write_text(done.stdout.replace(digest, "0" * 64))
    equal = run_digest("--compare", str(same), str(same))
    assert equal.returncode == 0 and "fit 2: params equal" in equal.stdout
    differ = run_digest("--compare", str(same), str(other))
    assert differ.returncode == 1 and "fit 2: params DIFFER" in differ.stdout


def test_infer_digests_follow_each_output(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT))
    spec = importlib.util.spec_from_file_location("train_digest", SCRIPT)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
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
    assert [wider[k] == first[k] for k in tool.INFER_DIGESTS] == [True, True, True, True, False]

    # a reduction that keeps one more vertex moves the reduced polygons and
    # their evaluation
    prune = reduction.prune_collinear
    monkeypatch.setattr(reduction, "prune_collinear", lambda poly: np.vstack([prune(poly), poly[:1]]))
    moved = digests(1, bench.model)[0]
    assert [moved[k] == first[k] for k in tool.INFER_DIGESTS] == [True, True, False, False, False]

    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    old.write_text("".join(f"infer dense:1 {k} {v}\n" for k, v in first.items()))
    new.write_text("".join(f"infer dense:1 {k} {v}\n" for k, v in moved.items()))
    equal = run_digest("--compare", str(old), str(old))
    assert equal.returncode == 0 and "infer dense:1: digests equal" in equal.stdout
    differ = run_digest("--compare", str(old), str(new))
    assert differ.returncode == 1
    assert "infer dense:1: digests DIFFER: evaluation, infer_polygons, postprocess_polygons" in differ.stdout
