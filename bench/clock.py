"""Op timing in reference seconds, with the deadline timer.

The benchmark's host shares its cores with other machines and runs the same
Python code up to twice as slowly for spells of a second to minutes.  So
while an op runs, a periodic timer samples the host's speed with a small
fixed exact-arithmetic kernel, and the op is timed in reference seconds: the
time it would take where one kernel step takes REF_STEP_S.  Sampling time is
excluded from the op's time.  The deadline counts reference seconds too, so
a slow spell does not turn an op into a timeout.

One op at a time, in the main thread: the sampling timer is SIGALRM.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# seconds per kernel step on an uncontended core of the reference host
# (Intel Xeon, 2 cores, Python 3.11)
REF_STEP_S = 2.2e-6
TICK_S = 0.02
TICK_STEPS = 200
EDGE_STEPS = 1000


class OpTimeout(BaseException):
    """Raised inside an op at its deadline; not an Exception, so no handler
    in the library can swallow it."""


def speed(steps: int) -> float:
    """Host speed relative to the reference, from `steps` kernel steps."""
    started = time.perf_counter()
    total = Fraction(0)
    for i in range(1, steps + 1):
        total += Fraction(1, i % 97 + 1)
    return steps * REF_STEP_S / (time.perf_counter() - started)


class OpClock:
    """Times one op at a time; install() makes it the SIGALRM handler."""

    def __init__(self):
        self.deadline_s = 0.0
        self.reference_s = 0.0
        self.sampled_s = 0.0
        self._started = 0.0
        self._last = 0.0
        self._speed = 1.0

    def install(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)

    def start(self, deadline_s: float) -> None:
        self.deadline_s = deadline_s
        self.reference_s = 0.0
        self.sampled_s = 0.0
        self._speed = speed(EDGE_STEPS)
        self._started = self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> tuple[float, float]:
        """Stop the timer; returns (measured seconds, reference seconds)."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        now = time.perf_counter()
        self._advance(now, speed(EDGE_STEPS))
        return now - self._started - self.sampled_s, self.reference_s

    def _advance(self, now: float, rate: float) -> None:
        # the host's speed over the segment is taken as the mean of its ends
        self.reference_s += (now - self._last) * (self._speed + rate) / 2
        self._speed = rate

    def _tick(self, signum, frame) -> None:
        now = time.perf_counter()
        rate = speed(TICK_STEPS)
        self._advance(now, rate)
        self._last = time.perf_counter()
        self.sampled_s += self._last - now
        if self.reference_s > self.deadline_s:
            signal.setitimer(signal.ITIMER_REAL, 0)
            raise OpTimeout()
