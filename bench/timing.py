"""Op timing, corrected for the speed the machine runs at during the run.

On a shared host the same work can take twice as long from one minute to
the next.  The recorder therefore interleaves a fixed reference kernel
with the ops, spending about PROBE_SHARE of the op time on it, and reports
every time scaled by (kernel's reference seconds) / (mean kernel time):
the time the work would have taken at the speed at which the kernel takes
its reference seconds.  A kernel uses no library code, so a change to the
library cannot move it; because it runs in proportion to op time, its mean
weights each stretch of the run as the ops do.  Each workload names the
kernel whose slowdowns follow its own: pure-Python fractions for the table
sweep and verification, small numpy comparisons for the search.
"""
from __future__ import annotations

import sys
import time
import traceback
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

PROBE_SHARE = 0.03


def python_kernel():
    """Fixed pure-Python work: exact fraction sums and tuple comparisons."""
    acc = Fraction(0)
    for i in range(1, 150):
        acc += Fraction(i * i - 3, 2 * i + 1)
    a, b = tuple(range(64)), tuple(i % 3 for i in range(64))
    hits = 0
    for _ in range(40):
        hits += sum(x != y for x, y in zip(a, b))
    return acc, hits


_WORDS = np.arange(16384, dtype=np.uint8).reshape(1024, 16)


def numpy_kernel():
    """Fixed numpy work: compare small word arrays and count distances."""
    hits = 0
    for i in range(12):
        hits += int(np.count_nonzero((_WORDS != _WORDS[i]).sum(axis=1) == 8))
    return hits


# kernel -> its time on an idle 2.1 GHz vCPU, where the bounds were set
KERNELS = {python_kernel: 0.0005, numpy_kernel: 0.00045}


def reference_seconds(count: int, kernel=python_kernel) -> float:
    """Mean time of `count` kernel runs."""
    start = time.perf_counter()
    for _ in range(count):
        kernel()
    return (time.perf_counter() - start) / count


class Recorder:
    """Times ops and other timed work; `timed_s` is the raw measured time."""

    def __init__(self, kernel=python_kernel, tracer=None):
        self.kernel = kernel
        self.tracer = tracer
        self.latencies: list[float] = []
        self.timed_s = 0.0
        self.probe_s = 0.0
        self.probes = 0
        self._owed = 0.0
        self._paused = 0.0

    @property
    def scale(self) -> float:
        """Factor from raw seconds to seconds at the reference speed."""
        if not self.probes:
            self._probe()
        return KERNELS[self.kernel] * self.probes / self.probe_s

    def _probe(self) -> None:
        start = time.perf_counter()
        self.kernel()
        elapsed = time.perf_counter() - start
        self.probe_s += elapsed
        self.probes += 1
        self._owed -= elapsed

    def _account(self, elapsed: float) -> None:
        self.timed_s += elapsed
        self._owed += elapsed * PROBE_SHARE
        while self._owed > 0:
            self._probe()

    def op(self, fn, *args):
        """Run and time one op; returns its result, or None when it raised."""
        if self.tracer is not None:
            self.tracer.op = len(self.latencies)
        self._paused = 0.0
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            result = None
        elapsed = time.perf_counter() - start - self._paused
        self.latencies.append(elapsed)
        self._account(elapsed)
        return result

    def work(self, fn, *args):
        """Run timed work that is not an op; None when it raised."""
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            result = None
        self._account(time.perf_counter() - start)
        return result

    @contextmanager
    def pause(self):
        """Leave benchmark bookkeeping inside an op out of its time."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - start
