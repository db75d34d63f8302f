"""How fast the machine runs right now, from a fixed reference kernel.

On a shared host the same code runs up to half again slower for seconds or
minutes at a time.  The kernel below mixes the work the program spends its
time on (Python-level loops, dict and heap updates, numpy calls on small
arrays)
and never changes, so its time tracks the machine and not the program.  The
workloads time it between operations; end-to-end times are reported scaled
to the kernel's reference time, i.e. as they would read on the machine at
its reference speed.  Raw times are printed beside them.
"""

from __future__ import annotations

import bisect
import heapq
import statistics
from time import perf_counter

import numpy as np

# The kernel's median time on a quiet moment of the reference machine
# (2 vCPU Xeon, Python 3.11.7, numpy 2.4.6); any constant would do.
REFERENCE_S = 0.78e-3

_RNG = np.random.default_rng(0)
_A = _RNG.random((8, 32))
_B = _RNG.random((32, 32))
_V = _RNG.random(64)


def kernel() -> float:
    acc, total = _A, 0.0
    for i in range(70):
        acc = np.tanh(acc @ _B * 0.01)
        total += float(acc[0, 0]) * 0.5 + i
    table = {}
    for i in range(1000):
        table[(i, i & 7)] = i * 0.5
    total += sum(v for v in table.values() if v > 1.0)
    heap: list[tuple[int, int, tuple[int, int]]] = []
    for i in range(400):
        heapq.heappush(heap, ((i * 7919) % 613, i, (i & 15, i >> 4)))
    while heap:
        total += heapq.heappop(heap)[0]
    x = _V
    for _ in range(70):
        x = np.maximum(np.exp(-x) * 0.5, x * 0.99) + 1e-3
    return total + float(x.sum())


class Speed:
    """Kernel times per phase and when they were taken; `after` times the
    kernel once every `every_s` of operation time, so probes interleave
    with the operations."""

    def __init__(self, every_s: float = 0.01) -> None:
        self.every_s = every_s
        self.samples: dict[str, list[float]] = {}
        self.times: dict[str, list[float]] = {}
        self._since = 0.0

    def probe(self, phase: str, count: int = 1) -> float:
        """Time the kernel `count` times; return the seconds spent."""
        spent = 0.0
        for _ in range(count):
            start = perf_counter()
            kernel()
            took = perf_counter() - start
            self.samples.setdefault(phase, []).append(took)
            self.times.setdefault(phase, []).append(start + took / 2)
            spent += took
        return spent

    def after(self, op_s: float, phase: str = "measure") -> float:
        """Call after an operation that took op_s; returns the seconds spent
        probing, which callers leave out of their own timings."""
        self._since += op_s
        if self._since < self.every_s:
            return 0.0
        self._since = 0.0
        return self.probe(phase)

    def factor(self, phase: str, at: float | None = None, half_width: float = 0.25,
               least: int = 5) -> float:
        """Reference over observed kernel time: below 1 on a slow machine.

        From all of the phase's samples, or from those taken within
        `half_width` seconds of time `at` (at least the `least` nearest), so
        that an operation is scaled by the speed measured around it.
        """
        samples = self.samples[phase]
        if at is not None:
            times = self.times[phase]
            lo = bisect.bisect_left(times, at - half_width)
            hi = bisect.bisect_right(times, at + half_width)
            if hi - lo < least:
                lo = max(0, min(bisect.bisect_left(times, at) - least // 2,
                                len(times) - least))
                hi = lo + least
            samples = samples[lo:hi]
        return REFERENCE_S / statistics.median(samples)
