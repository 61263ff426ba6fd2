"""A yardstick for the host's speed, measured beside every timed operation.

The two-core sandbox this benchmark runs in changes speed by 20-30 % for
tens of seconds at a time (measured while writing it: the same seed gave a
Layph p50 of 28.7 to 38.7 ms over eight consecutive runs).  That is wider
than any regression bound the contract allows, and no statistic taken inside
one run removes it, because the whole run sits in one slow or fast spell.

So every wall-clock sample is divided by the time a fixed kernel took right
before and after it, and multiplied by ``REFERENCE_SECONDS``, the kernel's
time on the reference host in its fast state.  The result reads as
milliseconds on that host.  Over ten consecutive runs of one seed, with the
host swinging as above, the raw Layph p50 spread over 25.8 % (quartile
distance over median) and the raw Ingress p50 over 24.4 %; scaled sample by
sample they spread over 4.3 % and 2.1 %.

The kernel mixes what the engines do, at the size they do it: copying a dict
of dicts with as many entries as the web graph has edges (pointer chasing,
allocation — a third of the size tracked the host visibly worse, 6.5 % and
4.2 %), sorting and segment-reducing an edge-sized array, and a plain
interpreter loop.  It calls nothing under ``src/``, so no change to the
program can move the yardstick.
"""

from __future__ import annotations

import bisect
import gc
import time
from typing import List

import numpy as np

#: the kernel's time on the reference host in its fast state
REFERENCE_SECONDS = 0.0027

_ROW_COUNT = 9000
_ROWS = {row: {row + offset: 1.0 for offset in range(7)} for row in range(_ROW_COUNT)}
_VALUES = np.arange(7 * _ROW_COUNT, dtype=np.float64)[::-1].copy()
_SEGMENTS = np.arange(0, 7 * _ROW_COUNT, 7)


def kernel_seconds() -> float:
    """One reading of the yardstick: the time of one kernel run.

    The collector is held off for the reading: the kernel allocates 9000
    dicts, and a collection they trigger would be charged to the host.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        {row: dict(targets) for row, targets in _ROWS.items()}
        order = np.argsort(_VALUES, kind="stable")
        np.add.reduceat(_VALUES[order], _SEGMENTS)
        total = 0
        for step in range(2 * _ROW_COUNT):
            total += step & 3
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class Yardstick:
    """Timestamped readings, and the scale factor for a sample taken among them."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.values: List[float] = []

    def read(self, count: int = 1, after_idle: bool = False) -> None:
        """Take ``count`` readings now (only while nothing else is running).

        ``after_idle``: the calling thread has just slept.  A core that wakes
        from idle runs its first milliseconds about 45 % slow (5.9 ms against
        4.0 ms in a row, 4.5 ms for the run after), which the work being
        measured pays once per 100 ms, not throughout — so one kernel run is
        spent unmeasured first.
        """
        if after_idle:
            kernel_seconds()
        for _ in range(count):
            value = kernel_seconds()
            self.times.append(time.perf_counter() - value / 2)
            self.values.append(value)

    def scale_at(self, when: float, neighbours: int = 1) -> float:
        """Factor turning a wall time measured around ``when`` into reference time.

        Uses the ``neighbours`` readings before and after ``when`` — the
        closer the readings sit to the sample, the better they track it.
        """
        split = bisect.bisect_left(self.times, when)
        around = self.values[max(0, split - neighbours) : split + neighbours]
        return REFERENCE_SECONDS / (sum(around) / len(around))
