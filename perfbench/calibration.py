"""Fixed calibration kernels that the benchmark times beside its work.

On a shared host the CPU time one piece of work takes moves with the load on
the rest of the machine: a neighbour on the same core or the same memory
bus slows the work, and CPU time counts that slowdown. Every benchmark time
is therefore scaled to a reference speed by kernels timed just before and
just after it. The kernels are the benchmark's own code and call nothing in
``polytrace``, so a change to the program under test cannot move them; a
change that makes the program slower or faster moves the scaled time by the
same share as the raw one.

One kernel call times three components:

- ``matmul``: a chain of 96x96 matrix products, each followed by ``tanh``;
- ``memory``: a sum over a 16 MB array and a scaled copy of it;
- ``python``: a Python loop over small NumPy arrays.

Contention slows these by different shares, and the program's sections
follow different ones. Timed between the program's operations on a busy
host, train steps and infer scenes tracked ``matmul`` + ``memory`` most
closely, and reduce and evaluate calls ``matmul`` + ``python``; see
``MIXES``. Kernel times are thread CPU time, so threads the program leaves
running are charged to the program, not to the kernels.
"""

from __future__ import annotations

import time

import numpy as np

# CPU seconds of each component at the reference speed: about its time in a
# quiet stretch of a 2-vCPU shared virtual machine (Python 3.11, numpy 2.4,
# OpenBLAS 0.3.31, one BLAS thread)
REFERENCE_S = {"matmul": 0.008, "memory": 0.0065, "python": 0.007}
MIXES = {"array": ("matmul", "memory"), "interpreter": ("matmul", "python")}
INTERVAL_S = 0.25  # measured seconds between kernel calls

PRODUCTS = 200
MEMORY_PASSES = 2
LOOP_STEPS = 5000

_rng = np.random.default_rng(0)
# scaled to spectral radius about 1, so the chain neither grows nor decays
# into subnormal numbers, which take another, slower path through the CPU
_MATRIX = _rng.normal(size=(96, 96)) / np.sqrt(96)
_ARRAY = _rng.normal(size=2_000_000)
_POINTS = _rng.normal(size=(64, 2))


def _matmul() -> None:
    m = _MATRIX
    for _ in range(PRODUCTS):
        m = np.tanh(_MATRIX @ m)


def _memory() -> None:
    for _ in range(MEMORY_PASSES):
        _ARRAY.sum()
        np.multiply(_ARRAY, 1.0001)


def _python() -> None:
    total = 0.0
    for i in range(LOOP_STEPS):
        d = _POINTS[i % 64] - _POINTS[(i + 1) % 64]
        total += float(np.hypot(d[0], d[1]))


COMPONENTS = {"matmul": _matmul, "memory": _memory, "python": _python}


def kernel_s() -> dict:
    """CPU seconds of each component, as this thread ran it now."""
    times = {}
    for name, component in COMPONENTS.items():
        start = time.thread_time()
        component()
        times[name] = time.thread_time() - start
    return times


def slowdown(times: dict, mix: str) -> float:
    """Mean over the mix's components of time / reference time."""
    return float(np.mean([times[name] / REFERENCE_S[name] for name in MIXES[mix]]))


def scale(before: dict, after: dict, mix: str) -> float:
    """Factor that takes CPU time measured between two kernel calls to the
    reference speed."""
    return 2.0 / (slowdown(before, mix) + slowdown(after, mix))


class Meter:
    """Scales CPU times measured one after another to the reference speed.

    The kernels run when the meter is made, and again, between two
    measurements, once ``INTERVAL_S`` of measured time has passed since they
    last ran. A measurement is scaled by the kernel times on either side of
    it, so the speed it is scaled by was taken at most about ``INTERVAL_S``
    away from it.
    """

    def __init__(self):
        self.kernel = [kernel_s()]  # segment i lies between kernel[i] and kernel[i + 1]
        self.open_s = 0.0
        self.open_count = 0

    def mark(self, elapsed: float) -> int:
        """Note a measurement of ``elapsed`` seconds just taken; returns its
        segment, for :meth:`scaled`."""
        segment = len(self.kernel) - 1
        self.open_s += elapsed
        self.open_count += 1
        if self.open_s >= INTERVAL_S:
            self.close()
        return segment

    def close(self) -> None:
        """End the open segment with a kernel call, if it holds a measurement."""
        if self.open_count:
            self.kernel.append(kernel_s())
            self.open_s, self.open_count = 0.0, 0

    def scaled(self, marked, mix: str) -> list:
        """Close the open segment; returns each ``(time, segment)`` pair's
        time at the reference speed, scaled by the kernels of ``mix``."""
        self.close()
        return [t * scale(self.kernel[seg], self.kernel[seg + 1], mix) for t, seg in marked]

    def summary(self) -> dict:
        """10th, 50th and 90th percentile of each component's time."""
        out = {"calls": len(self.kernel)}
        for name in COMPONENTS:
            p10, p50, p90 = np.percentile([k[name] for k in self.kernel], [10, 50, 90])
            out[name] = {"p10": p10, "p50": p50, "p90": p90}
        return out
