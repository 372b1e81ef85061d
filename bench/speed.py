"""Host-speed correction of measured times.

The benchmark runs on shared hosts where the speed one thread gets swings
by up to twice within seconds and drifts over minutes, with no steal time
to show for it: other tenants share the core.  Medians over a run cannot
remove a drift that lasts the whole run.  So a fixed pure-Python kernel
is timed every ``PERIOD_S`` seconds from a ``SIGALRM`` handler, in the
same thread as the work, for the whole of a run.  A measured interval is
then reported in *reference seconds*: its wall time, less the kernel time
spent inside it, times ``REFERENCE_KERNEL_S`` over the mean kernel time
sampled around it.  On the host where the benchmark was written (2 vCPUs
of a shared Xeon) the kernel took 0.30-0.36 ms when the host was quiet,
so there a reference second is within about 15 % of a quiet-host wall
second.

A change to the program moves the work between samples, not the kernel,
so it moves reference seconds as it moves wall seconds.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_left

KERNEL_LOOPS = 2000
PERIOD_S = 0.02
REFERENCE_KERNEL_S = 3.5e-4
MIN_SAMPLES = 8  # an interval with fewer samples inside uses its nearest ones


def _kernel() -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(KERNEL_LOOPS):
        table[i & 255] = table.get(i & 255, 0) + i
        total += i * i % 7
    return total


class SpeedSampler:
    """Times the kernel every ``PERIOD_S`` seconds of wall time while started.

    ``on_sample``, when set, is called with each sample's duration, so a
    tracer can keep the sampler out of the self time of the span it
    interrupted.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.costs: list[float] = []
        self.on_sample = None
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        clock = time.perf_counter
        start = clock()
        _kernel()
        cost = clock() - start
        self.starts.append(start)
        self.costs.append(cost)
        if self.on_sample is not None:
            self.on_sample(cost)

    def _window(self, start: float, end: float) -> tuple[int, int, int, int]:
        """Indices of the samples inside [start, end) and of those used
        for its speed: the same, widened to ``MIN_SAMPLES`` if too few."""
        lo, hi = bisect_left(self.starts, start), bisect_left(self.starts, end)
        a, b = lo, hi
        if b - a < MIN_SAMPLES:
            a = max(0, lo - (MIN_SAMPLES - (hi - lo) + 1) // 2)
            b = min(len(self.costs), a + MIN_SAMPLES)
            a = max(0, b - MIN_SAMPLES)
        if a == b:
            raise RuntimeError("no speed samples: the sampler was not running")
        return lo, hi, a, b

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per wall second of work over [start, end)."""
        _, _, a, b = self._window(start, end)
        costs = self.costs[a:b]
        return REFERENCE_KERNEL_S * len(costs) / sum(costs)

    def reference_seconds(self, start: float, end: float) -> float:
        """The work of [start, end), without the samples in it, in reference seconds."""
        lo, hi, a, b = self._window(start, end)
        costs = self.costs[a:b]
        busy = end - start - sum(self.costs[lo:hi])
        return busy * REFERENCE_KERNEL_S * len(costs) / sum(costs)

    def kernel_stats(self) -> dict:
        costs = sorted(self.costs)
        return {
            "samples": len(costs),
            "min_s": costs[0],
            "median_s": costs[len(costs) // 2],
            "max_s": costs[-1],
        }
