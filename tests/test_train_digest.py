"""Smoke test of tools/train_digest.py on a default 2-scene fit."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "train_digest.py"


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
