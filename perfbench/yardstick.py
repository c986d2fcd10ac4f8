"""A fixed reference kernel, timed around each measured operation.

This benchmark runs on a few virtual CPUs of a shared host.  Whenever a
neighbour keeps the sibling hardware thread busy, every instruction the
process runs takes about 1.5 to 1.7 times as long, for seconds or
minutes at a time; process CPU time slows the same way, so it is no
escape.  A timing taken in such a stretch says more about the neighbour
than about alertmpc.

The yardstick is a fixed mix of interpreter work and small numpy
operations, the two kinds of work alertmpc does, and nothing in it
calls alertmpc.  The harness runs it right before and right after each
timed operation and reports the operation's time multiplied by
REFERENCE_S / (the yardstick's time around it): the time the operation
would have taken at the host speed where the yardstick takes REFERENCE_S,
its time on a quiet 2-vCPU Xeon host of the kind this benchmark was
written on.  A program change moves that figure as it moves wall time;
a change of host speed moves both factors and cancels.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

clock = time.perf_counter

# The kernel's time on a quiet 2-vCPU Intel Xeon host (Python 3.11,
# numpy 2.4); the lower quartile of 2000 samples taken there.
REFERENCE_S = 0.0045

_SMALL = np.linspace(0.5, 1.5, 24 * 4).reshape(24, 4)
_WEIGHTS = np.linspace(-0.2, 0.2, 4)


def kernel() -> float:
    """The reference work; returns a value so none of it is optimised out."""
    total = 0.0
    table: dict[int, float] = {}
    for i in range(8000):
        total += (i % 7) * 0.5
        table[i & 63] = total
    acc = _SMALL
    for _ in range(600):
        acc = np.clip(0.9 * acc + 0.1 * _SMALL, 0.0, 2.0)
        total += float((acc @ _WEIGHTS).max())
    return total + sum(table.values())


class Yardstick:
    """Times the kernel on demand and keeps every sample."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def measure(self) -> float:
        t = clock()
        kernel()
        dt = clock() - t
        self.samples.append(dt)
        self.spent += dt
        return dt

    def mark(self) -> int:
        return len(self.samples)

    def scale_since(self, mark: int) -> float:
        """REFERENCE_S over the median kernel time of the samples since mark."""
        return REFERENCE_S / statistics.median(self.samples[mark:])


def scale(before: float, after: float) -> float:
    """The factor that brings a time between two kernel samples to reference speed."""
    return 2.0 * REFERENCE_S / (before + after)
