"""Machine-speed probe, so that timings do not follow the load of other
tenants of a shared host.

On a busy host the same Python code runs up to twice as slow, in stretches
from a fraction of a second to minutes, and a whole run can land in one.  A
fixed probe runs every PERIOD seconds from a timer signal while the
benchmark works.  It does what dtpower's own code is made of: it chases
pointers through a heap of Fraction objects larger than the L2 cache, and
does exact Fraction arithmetic.  A timed interval is then reported as its
busy time, probe time removed, scaled by REFERENCE_S over the median time
of the probes within WINDOW of it (one probe alone is too noisy to scale
by): seconds as they would read on this machine when the probe takes
REFERENCE_S, its time here on a quiet host.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
from fractions import Fraction
from time import perf_counter

PERIOD = 0.1
WINDOW = 1.0    # probes this many seconds either side of an interval count
REFERENCE_S = 2.0e-3
POOL = 100_000  # Fractions in the probe's heap, about 10 MiB
READS = 3_000


class SpeedMeter:
    """start()/stop() sample the probe on SIGALRM; seconds(t0, t1) gives the
    normalized length of an interval measured with perf_counter."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, end) of each probe
        self.pool = [Fraction(i, 7) for i in range(POOL)]
        self.reads = random.Random(0).sample(range(POOL), READS)

    def kernel(self) -> Fraction:
        s = 0
        for i in self.reads:
            s += self.pool[i].numerator
        q = Fraction(s % 13)
        for i in range(1, 60):
            q += Fraction(i % 13, 1 + i % 7)
        return q

    def sample(self, *_signal_args) -> None:
        t0 = perf_counter()
        self.kernel()
        self.samples.append((t0, perf_counter()))

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def seconds(self, t0: float, t1: float) -> float:
        first = bisect.bisect_left(self.samples, t0 - WINDOW, key=lambda s: s[0])
        last = bisect.bisect_right(self.samples, t1 + WINDOW, key=lambda s: s[0])
        near = self.samples[first:last]
        if not near:
            raise RuntimeError("no speed sample near a timed interval")
        inside = sum(e - s for s, e in near if s >= t0 and e <= t1)
        return (t1 - t0 - inside) * REFERENCE_S / statistics.median(e - s for s, e in near)
