"""In-memory span recorder for the benchmark.

Spans are recorded from the benchmark's own files: :func:`installed` swaps a
function for a timing wrapper at the name its caller looks up (for example
``polytrace.training.center_forward``) and restores the original afterwards,
so the program under test carries no instrumentation.

Each span adds its duration to per-layer totals as it closes, and its
duration to the child time of the enclosing span, so self time needs no
span list.
"""

from __future__ import annotations

import resource
import time
from collections import defaultdict
from contextlib import contextmanager


def clock() -> float:
    """CPU seconds used so far by this process and its waited-for children.

    The benchmark has one caller and pins BLAS to one thread, so this is the
    time the work itself takes. Unlike wall time, it leaves out the time the
    process waited for a CPU held by other processes on the machine.
    Counting children keeps work moved into subprocesses from reading as free.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Recorder:
    def __init__(self):
        self.totals: dict = defaultdict(float)
        self.gauges: dict = {}
        self.scratch: dict = {}
        self.section = "setup"
        self._child_s: list = []  # child time of each open span, innermost last

    def key(self, name: str) -> str:
        return f"{self.section}.{name}"

    def count(self, name: str, value: float = 1) -> None:
        self.totals[self.key(name)] += value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[self.key(name)] = float(value)

    def timed(self, name: str, fn, observe=None):
        """Wrap ``fn`` so each call adds to ``<name>.{calls,ms,self_ms}``; a
        call that raises also counts ``<name>.failed``. ``observe(recorder,
        args, result)`` runs after the span closes, to record counts taken
        from the call."""

        def wrapper(*args, **kwargs):
            key = self.key(name)
            self._child_s.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.count(f"{name}.failed")
                raise
            finally:
                elapsed = clock() - start
                child = self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += elapsed
                self.totals[f"{key}.calls"] += 1
                self.totals[f"{key}.ms"] += elapsed * 1e3
                self.totals[f"{key}.self_ms"] += (elapsed - child) * 1e3
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        """Wrap ``fn`` to count calls only, for functions too small to time."""

        def wrapper(*args, **kwargs):
            self.count(f"{name}.calls")
            return fn(*args, **kwargs)

        return wrapper

    def stats(self) -> dict:
        """Per-layer totals keyed ``<section>.<name>.<stat>``, with gauges."""
        out = dict(self.totals)
        out.update(self.gauges)
        return out


@contextmanager
def installed(recorder: Recorder, probes):
    """Replace each probed attribute with a recording wrapper for the
    duration of the block.

    ``probes`` holds ``(owner, attribute, name, observe)`` entries; ``owner``
    is the module or class the caller looks the attribute up on, and
    ``observe`` is None, a callable for :meth:`Recorder.timed`, or the
    string ``"count"`` for a call counter without a span.
    """
    saved = []
    try:
        for owner, attribute, name, observe in probes:
            original = getattr(owner, attribute)
            saved.append((owner, attribute, original))
            if observe == "count":
                wrapper = recorder.counted(name, original)
            else:
                wrapper = recorder.timed(name, original, observe)
            setattr(owner, attribute, wrapper)
        yield recorder
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
