"""Machine-speed calibration for the timed metrics.

On a shared machine the speed of the CPU this benchmark gets drifts by
tens of percent over periods of seconds (other tenants, frequency
changes), for pure interpreter work and for ``repro`` alike.  The timed
metrics are therefore read from a :class:`RefClock`, which advances in
*reference seconds*: wall time scaled by ``REFERENCE_MS / kernel
time``, where the kernel is a fixed pure-Python calibration loop timed
again every ``interval`` seconds.  A change to ``repro`` moves the
measured time and not the kernel; a slow phase of the machine moves
both and cancels.  Calibration time itself is excluded.  The raw wall
times and the scale factors are kept in the result record.
"""

from __future__ import annotations

import time
from typing import List

#: Kernel time (ms, best of three) that defines one reference second:
#: about the kernel's time on an idle 2-CPU Linux VM.
REFERENCE_MS = 2.5


def _kernel() -> int:
    """Dict, tuple and sort work, the mix the simulator spends its time on."""
    table: dict = {}
    acc = 0
    for i in range(6000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
        acc ^= hash(key) & 0xFFFF
    return acc + len(sorted(table.items()))


def kernel_ms() -> float:
    """Best of three kernel timings, in milliseconds."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


class RefClock:
    """A monotonic clock in reference seconds, recalibrated as it is read.

    Each segment of wall time between calibrations is scaled by the
    factor measured at its start.  :meth:`now` closes the segment and
    recalibrates once ``interval`` wall seconds have passed, so callers
    that read the clock often (per run, per explored execution) get a
    scale that follows the machine's speed.
    """

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.factors: List[float] = []
        self._ref = 0.0
        self._calibrate()

    def _calibrate(self) -> None:
        self._factor = REFERENCE_MS / kernel_ms()
        self.factors.append(self._factor)
        self._start = time.perf_counter()

    def now(self, recalibrate: bool = False) -> float:
        """Reference seconds so far; ``recalibrate`` forces a fresh
        factor for what follows (before a short timed window)."""
        wall = time.perf_counter() - self._start
        value = self._ref + wall * self._factor
        if recalibrate or wall >= self.interval:
            self._ref = value
            self._calibrate()
        return value
