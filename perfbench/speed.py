"""A timer-driven probe of machine speed, used to scale measured times.

Shared virtual machines change speed by more than half within seconds (on
the 2-vCPU machine this benchmark was built on, a fixed loop took either
about 0.17 s or about 0.27 s, switching every one to three seconds), so raw
wall-clock figures from two runs differ by that much whatever the code does.
The probe runs a fixed pure-Python reference loop every ``PERIOD`` seconds
from a ``SIGALRM`` handler, in the same thread as the requests, and keeps
each reference duration with its time stamp.  A measured interval is then
scaled by ``REF_SECONDS`` times the mean reference speed around it (see
``SpeedProbe.scale``): it reads as the time the interval would have taken on
a machine where the reference loop always takes ``REF_SECONDS``, about what
it takes on that machine in its fast state.  The handler's own time is
subtracted from every measured interval.

The reference loop mixes the kinds of work the engine does (tuple-keyed
dicts, big integers, fractions, lists, JSON and byte arrays).  On that
machine, regressing log latency on log reference time gave slopes between
0.8 and 1.0 for partition counts, searches, constructions, verifications and
cheap CLI calls, so the scaling removes most of the machine's swing for them.
``bounds`` suites, mostly big-integer work, barely slow down in the slow
state (slope 0.3), so their scaled times swing somewhat instead.  The slopes
themselves drift with whatever else the host runs.
"""

from __future__ import annotations

import bisect
import json
import signal
import statistics
import time
from array import array
from fractions import Fraction

PERIOD = 0.025
WINDOW = 0.5
REF_SECONDS = 1.5e-4


_MODULUS = 3**300


def reference() -> None:
    """A fixed mix of dict, tuple, big-integer, fraction, list and JSON work."""
    table: dict = {}
    for a in range(12):
        for b in range(12):
            table[(a, b)] = table.get((a, b - 1), 0) + (a ^ b)
    x = 3**200
    for i in range(60):
        x = (x * 7 + i) % _MODULUS
    f = Fraction(1)
    for i in range(1, 12):
        f += Fraction(1, i)
    items = list(range(200))
    total = 0
    for i in range(0, 200, 3):
        total += items[i]
    text = json.dumps(items)
    array("B", [v & 255 for v in json.loads(text)])


class SpeedProbe:
    def __init__(self):
        self.stamps: list[float] = []
        self.durations: list[float] = []
        self.stolen = 0.0  # seconds spent inside the handler

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        self.stamps.append(t0)
        self.durations.append(t1 - t0)
        self.stolen += t1 - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """REF_SECONDS times the mean reference speed around [start, end].

        The work a loop does in a moment is proportional to 1 / (reference
        duration), so the factor averages that over the samples taken from
        WINDOW before the interval to WINDOW after it.  The fastest and
        slowest fifth of the samples are dropped: a single reference run
        lasts only tens of microseconds, so some readings are disturbed.
        """
        lo = bisect.bisect_left(self.stamps, start - WINDOW)
        hi = bisect.bisect_right(self.stamps, end + WINDOW)
        speeds = sorted(1.0 / d for d in self.durations[lo:hi])
        if not speeds:
            raise RuntimeError("speed probe took no samples")
        cut = len(speeds) // 5
        return REF_SECONDS * statistics.fmean(speeds[cut:len(speeds) - cut])

    def median_reference(self) -> float:
        return statistics.median(self.durations)
