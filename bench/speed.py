"""Machine-speed reference for the benchmark's time metrics.

The benchmark runs on shared hosts whose processors switch between speeds
about 1.7x apart every few hundred milliseconds, far more than a change to the
program would move its times.  So the benchmark times a fixed pure-Python
kernel over and over while it measures, and reports every interval at
reference speed:

    scaled = measured * REF_KERNEL_S / (mean kernel time around the interval)

During set-up and the timed phase a timer signal runs the kernel every
PERIOD_S; the kernel's own time is taken out of the interval it interrupted.
A cold CLI process samples itself the same way (cli_probe.py).

The kernel does the same kinds of work as the package (dict, set and list
operations, tuple comparisons, sorting, function calls) and never calls into
it, so a change to the program changes the scaled times while a change in the
host's speed cancels out.  The kernel and `REF_KERNEL_S` are part of the
benchmark's definition: change either and figures taken before and after the
change are no longer comparable.
"""

from __future__ import annotations

import bisect
import random
import signal
import time

REF_KERNEL_S = 0.001    # the kernel's typical time on a 2-vCPU Xeon VM at 2.0 GHz
PERIOD_S = 0.02         # timer period of the samples taken while work is measured
EDGE_SAMPLES = 2        # samples before and after an interval that also count for it

_rng = random.Random(20211118)
_ORDER = list(range(64))
_rng.shuffle(_ORDER)
_EDGES = [(_rng.randrange(64), _rng.randrange(64)) for _ in range(72)]


def _crossings(order, edges) -> int:
    pos = {v: i for i, v in enumerate(order)}
    spans = sorted((min(pos[a], pos[b]), max(pos[a], pos[b])) for a, b in edges)
    seen = set()
    count = 0
    for i, (a, b) in enumerate(spans):
        for c, d in spans[i + 1 : i + 24]:
            if (a < c < b) != (a < d < b):
                count += 1
        seen.add((a, b))
    return count + len(seen)


def kernel() -> int:
    """The fixed reference work, about REF_KERNEL_S on the reference machine."""
    total = 0
    order = list(_ORDER)
    for k in range(3):
        order = order[k:] + order[:k]
        total += _crossings(order, _EDGES)
    return total


def at_reference(seconds: float, samples: list[float]) -> float:
    """`seconds` of work at reference speed, given the samples taken during it."""
    return seconds * REF_KERNEL_S * len(samples) / sum(samples)


class SpeedMeter:
    """Kernel samples and the scaling they give: `times` says when each was
    taken, on the `now()` clock, and `samples` how long each took.

    `now()` is the clock that intervals are measured with: it leaves out the
    time spent in samples, so an interval's length is the measured work alone.
    """

    def __init__(self):
        for _ in range(10):   # let the interpreter specialise the kernel's code
            self._expect = kernel()
        self.times: list[float] = []
        self.samples: list[float] = []
        self._stolen = 0.0
        self._depth = 0        # nesting of start/stop
        self._busy = False
        signal.signal(signal.SIGALRM, self.sample)

    def now(self) -> float:
        return time.perf_counter() - self._stolen

    def sample(self, *_signal_args) -> None:
        if self._busy:         # the timer fired during a sample
            return
        self._busy = True
        clock = time.perf_counter
        t0 = clock()
        result = kernel()
        t1 = clock()
        self._busy = False
        if result != self._expect:
            raise AssertionError("reference kernel returned a different result")
        self.times.append(t0 - self._stolen)
        self.samples.append(t1 - t0)
        self._stolen += t1 - t0

    def start(self) -> None:
        """Take a sample now and every PERIOD_S until the matching `stop`."""
        self.sample()
        self._depth += 1
        if self._depth == 1:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        self._depth -= 1
        if self._depth == 0:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.sample()

    def scaled(self, t0: float, t1: float) -> float:
        """The interval [t0, t1] of `now()` at reference speed, from the samples
        taken inside it and the EDGE_SAMPLES nearest on either side."""
        lo = max(0, bisect.bisect_right(self.times, t0) - EDGE_SAMPLES)
        hi = min(len(self.times), bisect.bisect_left(self.times, t1) + EDGE_SAMPLES)
        return at_reference(t1 - t0, self.samples[lo:hi])
