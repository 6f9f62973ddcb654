"""Host speed: a fixed reference kernel, timed next to every sample.

The shared machines this benchmark runs on change speed under it.  On a
2-vCPU host, `update_snapshot` took 2.7 ms in some 10 s stretches and
4.7 ms in others, with no steal time, and the mean speed of a 30 s run
drifted by a third over a quarter of an hour.  A fixed kernel, timed
between the same calls, moved with it: the ratio of the two varied by 2 %
where each alone varied by 25 %.

So the timings that follow the kernel are scaled to a reference speed: a
sample is multiplied by REFERENCE_MS over the kernel's time around it.  It
then reads as the time the operation takes on a host where the kernel takes
REFERENCE_MS.  The kernel uses nothing from dcmkit, so no change to the
package moves it; the raw wall times stay in the run record.

Only update-room's timings follow it closely enough to gain: scaled, the
spread of its update over five seeds fell from 37 % to 3.7 %.  The
tracer's order-3 passes, the statistics panel and the 1e5-sample series
move with the host by less than the kernel does, so scaled they spread as
wide as raw or wider (the series 15 % against 5 %).  A workload names the
timings to scale in `follows_reference`; the kernel runs on every workload,
so each run record shows the host's speed.
"""

from __future__ import annotations

import bisect
import math
import time

import numpy as np

from spans import median

REFERENCE_MS = 10.0
# The kernel runs before and after every timed sample, once for every
# EVERY_S since it last ran and at most BURST times: so it runs at about the
# same rate through the whole run, whether the ops are short or long.
EVERY_S = 0.2
BURST = 5
# A sample is scaled by the median kernel time from WINDOW_S before it
# starts to WINDOW_S after it ends: that spans ten kernel runs or more.
WINDOW_S = 1.0


def kernel() -> float:
    """Fixed work of the kinds the package does: Python objects and float
    arithmetic, then complex exponentials over a numpy array."""
    items = []
    acc = 0.0
    for i in range(2000):
        items.append((i, 0.5 * i, str(i)))
        acc += math.sin(1e-3 * i)
    x = np.linspace(0.0, 1.0, 20000)
    for _ in range(10):
        acc += float(np.sum(np.exp(7j * x)).real)
    return acc + len(items)


class Speed:
    """Kernel times of one run, with when each ran."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self.last = time.perf_counter() - BURST * EVERY_S

    def sample(self) -> None:
        """Time the kernel once for every EVERY_S since it last ran, up to
        BURST times."""
        for _ in range(min(BURST, int((time.perf_counter() - self.last) / EVERY_S))):
            t0 = time.perf_counter()
            kernel()
            self.last = time.perf_counter()
            self.starts.append(t0)
            self.times.append(self.last - t0)

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_MS over the median kernel time around [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        # a kernel run always comes less than EVERY_S before a sample
        return 1e-3 * REFERENCE_MS / median(self.times[lo:hi] or self.times[lo - 1:lo])
