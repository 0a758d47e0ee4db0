"""Correct call times for the machine's drifting speed.

On a shared machine the speed of pure-Python code drifts by up to 2.5x
over seconds to minutes, as other tenants load the host.  A run of a few
seconds can sit wholly in a slow or a fast phase, so raw times of the
same code spread by 13-30 % between runs.  The meter therefore runs a
fixed reference probe, a few milliseconds of standard-library Fraction
arithmetic, between calls (at most every SLICE_S seconds) and scales
each call's wall time by the nominal probe time over the probe times
measured right before and after the call.  The program never runs the
probe, so a change to the program cannot move it.
"""

from __future__ import annotations

import bisect
import time
from fractions import Fraction

# Probe time at the reference speed: the uncontended speed of the 2.1 GHz
# Xeon the baseline was measured on.  Normalised times are seconds at
# that speed; the constant cancels when two commits are compared.
PROBE_NOMINAL_S = 0.0025
SLICE_S = 0.2


# The probe is shaped like the program's own hot loops: exact dot products
# over a game-sized Fraction matrix (20x40 cells).
_PROBE_MATRIX = [[Fraction((7 * i + 3 * j) % 23, 8 + (i + j) % 5)
                  for j in range(40)] for i in range(20)]
_PROBE_VECTOR = [Fraction(1 + j % 7, 40) for j in range(40)]


def _probe_work() -> Fraction:
    return max(sum((a * b for a, b in zip(row, _PROBE_VECTOR)), Fraction(0))
               for row in _PROBE_MATRIX)


class Meter:
    """Speed probes taken between calls, and the call times they correct."""

    def __init__(self) -> None:
        self.starts: list[float] = []     # probe start times, increasing
        self.durations: list[float] = []  # matching probe durations
        self._last_end = float("-inf")

    def probe(self) -> None:
        """Time the probe work three times back to back and keep the
        fastest, which drops a reading stretched by an interrupt."""
        start = time.perf_counter()
        fastest = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            _probe_work()
            fastest = min(fastest, time.perf_counter() - t0)
        self.starts.append(start)
        self.durations.append(fastest)
        self._last_end = time.perf_counter()

    def probe_if_due(self) -> None:
        if time.perf_counter() - self._last_end >= SLICE_S:
            self.probe()

    def normalised(self, start: float, end: float) -> float:
        """Duration of [start, end] at the reference speed.

        Uses the last probe before ``start`` and the first after ``end``
        (either alone when the other is missing).
        """
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_left(self.starts, end)
        around = self.durations[max(i - 1, 0):i] + self.durations[j:j + 1]
        if not around:
            raise ValueError("no speed probe around the interval")
        return (end - start) * PROBE_NOMINAL_S * len(around) / sum(around)
