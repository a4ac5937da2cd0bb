"""How fast the host runs Python right now: a fixed pure-Fraction loop.

On a shared host the same code can run at half speed for seconds or minutes
at a time, and the process cannot see it: its CPU time tracks wall time.
Workers and verifiers therefore time a short run of this loop before an op
whenever PROBE_EVERY_S has passed since the last probe, and once after the
last op.  run.py scales each op's time by REFERENCE_S over the mean of the
two probes around it, which gives the op's time on a host that runs the
probe in REFERENCE_S.
"""
from __future__ import annotations

import time
from fractions import Fraction
from typing import List

# Probe time on an uncontended 2-core x86 host under Python 3.11.  A fixed
# constant: changing it changes every scaled time.
REFERENCE_S = 0.0075
PROBE_REPS = 40
PROBE_EVERY_S = 0.25

_A = [Fraction(i + 1, 2 * i + 3) for i in range(50)]
_B = [Fraction(2 * i + 1, i + 5) for i in range(50)]


def fraction_loop(reps: int) -> float:
    """Seconds for `reps` rounds of a fixed Fraction multiply-add chain."""
    t0 = time.perf_counter()
    for _ in range(reps):
        x = Fraction(0)
        for a, b in zip(_A, _B):
            x = x * a + b
    return time.perf_counter() - t0


class Probes:
    """Probe times of one process, in the order they were taken."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self._last = float("-inf")

    def take(self) -> int:
        self.times.append(fraction_loop(PROBE_REPS))
        self._last = time.monotonic()
        return len(self.times) - 1

    def before_op(self) -> int:
        """Probe if PROBE_EVERY_S has passed; the index of the latest probe."""
        if time.monotonic() - self._last >= PROBE_EVERY_S:
            return self.take()
        return len(self.times) - 1

    def around(self, before: int) -> float:
        """Mean of probe `before` and the next one, which followed the op."""
        return (self.times[before] + self.times[before + 1]) / 2
