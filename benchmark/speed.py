"""Machine-speed probe: timings in milliseconds at a fixed reference speed.

The virtual machines this benchmark runs on share their cores with other
tenants, and their speed drifts by 20-40 % over tens of seconds to minutes:
a fixed pure-Python loop, timed back to back for six minutes on a 2-vCPU
2.1 GHz Xeon VM, had a run-to-run spread (quartile distance over median) of
16-18 % whether the windows were 25 s or 60 s long, so longer runs do not
average the drift out. CPU time drifts with wall time, so it is not steal.

So every process that times ops also times a fixed pure-Python loop between
ops (about 1 % of the run), and each wall time is reported scaled by
`REF_S / c`, where `c` is the median loop time of the NEAREST probes around
it: the time the op would take on a machine where the loop takes REF_S.
Interleaved this way, the spread of 10-15 s windows fell on that VM from
12-33 % to 3-8 % for in-process numpy, LAPACK and pure-Python ops and for
process spawns. (A bare `python -I -S -c pass` as the probe for child
processes was tried and dropped: its time stayed flat while `opuc` CLI runs
drifted.) The loop never runs during an op and uses nothing from opuc, so a
change to the program moves the scaled times exactly as it moves wall time
at a given speed. Reports print the raw wall figures and the run's speed
next to the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

EVERY_S = 0.2        # probe before an op when the last probe is older than this
NEAREST = 9          # probes whose median scales one interval
_STEPS = 7000
REF_S = 0.002        # loop time at the reference speed, about its median on that VM


def arithmetic() -> None:
    """Fixed pure-Python complex arithmetic, like the library's per-step work."""
    z, w = 0.3 + 0.2j, 0j
    for k in range(_STEPS):
        w = w * z + (k & 7) * 0.1
        w = w / (1.0 + abs(w))


class Speed:
    """Probe times (midpoints) and costs of one process, in time order."""

    def __init__(self):
        self.times: list[float] = []
        self.costs: list[float] = []
        self.last = float("-inf")

    def probe(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = perf_counter()
            arithmetic()
            t1 = perf_counter()
            self.times.append(0.5 * (t0 + t1))
            self.costs.append(t1 - t0)
        self.last = t1

    def tick(self) -> None:
        """Probe once if the last probe is older than EVERY_S."""
        if perf_counter() - self.last >= EVERY_S:
            self.probe()

    def scale(self, t0: float, t1: float) -> float:
        """REF_S over the median cost of the NEAREST probes to [t0, t1]'s midpoint."""
        if not self.costs:
            raise ValueError("no speed probe was taken")
        i = bisect.bisect(self.times, 0.5 * (t0 + t1))
        hi = min(len(self.costs), max(i + NEAREST // 2, NEAREST))
        lo = max(0, hi - NEAREST)
        return REF_S / statistics.median(self.costs[lo:hi])

    def scaled(self, intervals: list[tuple[float, float]]) -> list[float]:
        """Each (start, seconds) interval's duration at the reference speed."""
        return [sec * self.scale(t, t + sec) for t, sec in intervals]

    def relative(self) -> float:
        """This process's median speed relative to the reference (1 = reference)."""
        return REF_S / statistics.median(self.costs) if self.costs else float("nan")
