"""Host-speed correction for the worker's timings.

On the shared 2-core VM the benchmark was built on, a fixed pure-Python loop
runs at two speeds about 1.5x apart and switches between them several times a
second; the share of time spent at the slow speed drifts over minutes, so
whole runs of the same code differed by a quarter.  No statistic taken inside
one run removes that, because every request of a run sees the same mix.

`SpeedProbe` measures the host's speed while barrlab runs: every
`INTERVAL_S` a SIGALRM handler times a fixed loop of the same kind as
`worker.calibrate` (`PROBE_ITERATIONS` dict stores and integer operations,
about 0.6 ms).  The handler runs in the worker's only thread,
between bytecodes of whatever barrlab is doing, so it sees the speed of the
very CPU and moment the request runs on.  Measured on that VM, with small
barrlab requests timed between two probes, request times and probe times rose
together between the two speeds (1.60-1.65x against 1.42-1.49x).

barrlab's time does not grow in proportion to the probe's, though: it grows
as the `ELASTICITY` power of it.  Over 28 runs each of `check-monad powerset`
and `check-monad semimodule:z2` on that VM, a log-log fit of each request's
time against the mean of the probes inside it had slope 1.29 and 1.34
(r = 0.99 and 0.98).

A request's corrected time is its time in `main` less the probes that ran
inside it, multiplied by the mean over the probes around it of
(`REFERENCE_S` / probe time) ** `ELASTICITY`: the time the request would
take on a host where the probe loop takes `REFERENCE_S`.  The mean is of
speeds, not of probe times, because the probes are spaced evenly in time and
the work done in a stretch of time is proportional to the speed; over four
law-checks runs it cut the spread of pass times from 0.037 to 0.031
(standard deviation over mean), against 0.080 uncorrected.  The correction depends only on the host,
never on barrlab, so a change that makes barrlab faster moves corrected
times by the same share as raw ones.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

PROBE_ITERATIONS = 3000
WARM_UP_ITERATIONS = 600
INTERVAL_S = 0.02
# About the mean probe time over a run on the VM above, so that corrected
# times read close to raw ones there.
REFERENCE_S = 0.0006
ELASTICITY = 1.3
# A request's speed is the mean of at least this many probes: those inside
# it, widened evenly to both sides.
MIN_PROBES = 8


_TABLE = {i: 0 for i in range(1024)}


def probe_loop() -> float:
    """Seconds taken by the fixed loop.  The table is built once and the loop
    warmed up untimed, so the probe does not pay for caches and allocator
    state that barrlab's work left behind: after allocating 30,000 tuples,
    strings and frozensets, the probe read 1.006-1.012x its quiet time, where
    a loop building its table on every call read 1.12x."""
    table, acc = _TABLE, 0
    for i in range(WARM_UP_ITERATIONS):
        table[i & 1023] = acc
        acc = (acc * 31 + i) % 1_000_003
    start = perf_counter()
    for i in range(PROBE_ITERATIONS):
        table[i & 1023] = acc
        acc = (acc * 31 + i) % 1_000_003
    return perf_counter() - start


class SpeedProbe:
    """Times `probe_loop` every INTERVAL_S of wall time while started."""

    def __init__(self):
        self.times: list[float] = []   # each probe's duration, in order
        self._previous = None

    def _handler(self, signum, frame):
        self.times.append(probe_loop())

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self) -> int:
        """Position in `times`; probes between two marks ran between them."""
        return len(self.times)

    def spent(self, begin: int, end: int) -> float:
        """Seconds the probes between two marks took."""
        return sum(self.times[begin:end])

    def scale(self, begin: int, end: int) -> float:
        """The mean of (REFERENCE_S / probe time) ** ELASTICITY over the
        probes between two marks, the window widened evenly until it holds
        MIN_PROBES probes.  Call it after the run, when the probes that
        followed the window exist."""
        pad = max(0, -(-(MIN_PROBES - (end - begin)) // 2))
        window = self.times[max(0, begin - pad):end + pad]
        if not window:
            return 1.0
        return statistics.fmean((REFERENCE_S / t) ** ELASTICITY for t in window)
