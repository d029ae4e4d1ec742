"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. BLAS and OpenMP threads are pinned before
numpy is imported, and polytrace is imported from the checkout's ``src``
directory only. The second-to-last line of standard output is a JSON record
of the run (environment, sample counts, tail percentiles, failures, input
digest); the last line is the result: ``correct``, ``attempted``, ``failed``
and ``metrics``, which hold the end-to-end metrics with ``--trace 0`` and
the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREADS = 1
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def git_commit() -> str:
    """The checkout's commit, read from .git without running git; 'unknown'
    outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    # a packed ref: one "<sha> <ref>" line in packed-refs
    try:
        packed = (git / "packed-refs").read_text().splitlines()
    except OSError:
        return "unknown"
    for line in packed:
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return "unknown"


def environment(threads: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": threads,
        "commit": git_commit(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = min(THREADS, len(os.sched_getaffinity(0)))
    for name in THREAD_VARIABLES:
        os.environ[name] = str(threads)

    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import polytrace
    except ImportError as exc:
        print(f"polytrace is not importable from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(polytrace.__file__).resolve().is_relative_to(src):
        print(f"polytrace imported from {polytrace.__file__}, not {src}", file=sys.stderr)
        return 2

    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    detail = result.pop("detail")
    detail.update(environment=environment(threads), seconds=args.seconds, trace=args.trace)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
