"""A nominal clock: wall time rescaled by the host's speed at each moment.

The benchmark host shares its cores with other tenants, and the speed of a
core swings by a third within seconds, which moves every wall-clock time
with it.  ``HostClock`` samples that speed while a workload runs: every
``PERIOD_S`` of wall time a SIGALRM handler times ``calibrate()``, a fixed
piece of pure-Python work (big-int bit operations and a small dict, the
kind of work the package does) that never changes with the program under
test.  The nominal time between two instants is the wall time between
them, without the handler's own time, with each stretch scaled by
``REF_S`` over the median calibration time of the samples within
``WINDOW_S`` of it: seconds as they would pass on a host that runs
``calibrate()`` in ``REF_S``.  A change to the program moves nominal times
as it moves wall times; a slower or faster moment of the host does not.

Children that ``multiprocessing`` forks (the census pool workers) sample
too: as each starts, it re-arms the timer, and when ``multiprocessing``
shuts it down it writes its samples to ``share_dir``, where ``stop()``
reads them.  The parent stops sampling when it forks them: while they run
it only waits, and their samples are the ones that tell.
"""

from __future__ import annotations

import bisect
import json
import os
import signal
import statistics
import time
from multiprocessing import util
from pathlib import Path

FIRST_S = 0.001  # the first calibration comes at once
PERIOD_S = 0.01  # then one per 10 ms of wall time
WINDOW_S = 0.06  # samples this close to a moment give its speed
REF_S = 0.0004  # calibrate() on the reference host
ROUNDS = 1000  # calibrate() takes about 0.4-0.6 ms


def calibrate() -> int:
    x = (1 << 200) - 1
    d: dict[int, int] = {}
    s = 0
    for i in range(ROUNDS):
        y = (x >> (i & 63)) & ~(x << 3)
        s += y.bit_count() & 7
        d[i & 31] = s
        s ^= len(d)
    return s


class _Series:
    """One process's samples, and the host speed they give at each moment."""

    def __init__(self, samples: list[tuple[float, float]]):
        samples.sort()
        self.starts = [t for t, _ in samples]
        self.durations = [c for _, c in samples]
        self.ref_over_local = []
        lo = hi = 0
        for t in self.starts:
            while self.starts[lo] < t - WINDOW_S:
                lo += 1
            while hi < len(samples) and self.starts[hi] <= t + WINDOW_S:
                hi += 1
            self.ref_over_local.append(REF_S / statistics.median(self.durations[lo:hi]))

    def nominal(self, a: float, b: float) -> float:
        i = bisect.bisect_right(self.starts, a)
        total, prev = 0.0, a
        while i < len(self.starts) and self.starts[i] < b:
            total += max(0.0, self.starts[i] - prev) * self.ref_over_local[i]
            prev = self.starts[i] + self.durations[i]  # the handler's time is not work
            i += 1
        last = self.ref_over_local[min(i, len(self.starts) - 1)]
        return total + max(0.0, b - prev) * last


class HostClock:
    """Samples host speed from ``start()`` to ``stop()``; then ``nominal(a, b)``."""

    def __init__(self, share_dir: Path | None = None):
        self.share_dir = share_dir
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self.series: list[_Series] = []

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        calibrate()
        self.samples.append((t0, time.perf_counter() - t0))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, FIRST_S, PERIOD_S)
        if self.share_dir is not None:
            self.share_dir.mkdir(parents=True, exist_ok=True)
            # A parent waiting on its workers stops sampling; the workers take over.
            os.register_at_fork(before=lambda: signal.setitimer(signal.ITIMER_REAL, 0))
            util.register_after_fork(self, HostClock._in_child)

    def _in_child(self) -> None:
        self.samples = []  # the parent's samples stay with the parent
        signal.setitimer(signal.ITIMER_REAL, FIRST_S, PERIOD_S)  # not inherited
        util.Finalize(None, self._dump, exitpriority=0)

    def _dump(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        path = self.share_dir / f"{os.getpid()}.json"
        path.write_text(json.dumps(self.samples))

    def stop(self) -> None:
        """Stop sampling and gather the children's samples."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        if not self.samples:
            self._tick(signal.SIGALRM, None)  # an interval shorter than FIRST_S
        children = []
        if self.share_dir is not None:
            for path in sorted(self.share_dir.glob("*.json")):
                children.append([tuple(s) for s in json.loads(path.read_text())])
                path.unlink()
            self.share_dir.rmdir()
        every = [s for s in children if s] or [self.samples]
        self.series = [_Series(s) for s in every]

    def nominal(self, a: float, b: float) -> float:
        """Nominal seconds from ``a`` to ``b`` (``time.perf_counter()`` readings).

        With workers, each worker's samples scale the interval by the speed
        of the core it ran on, and the slowest reading counts: the busiest
        worker, on the slowest core, sets the wall time.
        """
        return max(s.nominal(a, b) for s in self.series)
