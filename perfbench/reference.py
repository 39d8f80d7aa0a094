"""Reference probes for machine-speed normalization.

On a shared machine the speed of plain Python code switches between
regimes as much as 50% apart, over tenths of a second to seconds, with the
load of other tenants.  A probe taken only before and after a request of a
few seconds often lands in another regime than the request.  So while a
batch is served, a SIGALRM timer runs a small fixed kernel every INTERVAL
seconds of wall time, and a request's normalized time is its time, net of
the probes that fell inside it, over the mean probe time during it.  The
kernel does the same kinds of work as pendnf (exact rational convolution,
float transcendental loops) and never calls pendnf, so a change to the
program moves only the numerator.
"""

from __future__ import annotations

import math
import signal
import time
from fractions import Fraction

_EXACT = [Fraction(k * k + 1, 2 * k + 3) for k in range(20)]
INTERVAL = 0.025


def kernel() -> float:
    acc = Fraction(0)
    for i in range(len(_EXACT)):
        for j in range(len(_EXACT) - i):
            acc += _EXACT[i] * _EXACT[j]
    x = 0.0
    for k in range(2000):
        x += math.sin(k * 1e-3) * math.sqrt(k + 1.0)
    return float(acc) + x


class Sampler:
    """Runs kernel() every INTERVAL seconds between start() and stop(), and
    keeps the count and total time of the probes run so far."""

    def __init__(self):
        self.count = 0
        self.busy = 0.0
        self._in_probe = False

    def probe(self, *_signal_args):
        if self._in_probe:          # the timer fired inside an explicit probe
            return
        self._in_probe = True
        start = time.perf_counter()
        kernel()
        self.busy += time.perf_counter() - start
        self.count += 1
        self._in_probe = False

    def now(self) -> float:
        """Wall time net of every probe run so far; time requests with this."""
        return time.perf_counter() - self.busy

    def mark(self) -> tuple[float, int]:
        return self.busy, self.count

    def mean_since(self, mark: tuple[float, int]) -> float:
        """Mean probe time since `mark`: the unit of a normalized time."""
        return (self.busy - mark[0]) / (self.count - mark[1])

    def start(self):
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
