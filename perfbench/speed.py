"""Machine-speed calibration for the benchmark's operation times.

On the 2-vCPU VM the benchmark was built on, one vCPU at a time ran a
pure-Python loop about 1.6x slower than the other, and which one was slow
changed every few seconds, so raw times of one program moved by 20-40%
between runs.  A fixed pure-Python kernel, timed next to an operation, slows
down with it: across 5 s windows of a query loop, the quartile spread of the
query-to-kernel time ratio was 6%, against 37% for the raw query time.

While a pass runs, a ``SpeedProbe`` times the kernel every ``INTERVAL_S``
from a SIGALRM handler, so long library calls are sampled too.  An
operation's time is then reported at reference speed:
``(raw - probe time inside it) * REFERENCE_S / local``, where ``local`` is
the median kernel time within ``WINDOW_S`` of the operation.  The kernel
uses only the standard library, so a change to the program under test
cannot speed it up.
"""

from __future__ import annotations

import bisect
import gc
import json
import signal
import statistics
import time

REFERENCE_S = 120e-6  # timed kernel run on the fast vCPU of a 2-core x86-64 VM
INTERVAL_S = 0.005  # time between two ticks while a probe is running
WINDOW_S = 0.025  # kernel runs this close to an operation set its local speed
WARMUP_RUNS = 3  # untimed kernel runs when a probe is created

clock = time.perf_counter


def kernel() -> int:
    """Fixed interpreter work: arithmetic, calls, tuples, dicts, sorting, JSON."""
    acc = 0
    for i in range(300):
        acc += (i * 7919) % 13
    table = {f"k{i}": (i, i % 7, -i) for i in range(120)}
    rows = sorted(table.items(), key=lambda kv: (kv[1][1], kv[1][2]))
    acc += sum(len(key) for key, _ in rows)
    return acc + len(json.dumps(rows[:40]))


class SpeedProbe:
    """Kernel runs timed during a pass, and the scale they give.

    Use it as a context manager around the timed region: it ticks on entry,
    every INTERVAL_S while inside, and on exit.
    """

    def __init__(self):
        for _ in range(WARMUP_RUNS):
            kernel()
        self.starts: list[float] = []  # of each tick, warm-up run included
        self.ends: list[float] = []
        self.times: list[float] = []  # of each tick's timed kernel run
        self._ticking = False
        self._saved_handler = None

    def tick(self, *_signal_args) -> None:
        """Time one kernel run now (also the SIGALRM handler).

        Only the second of two back-to-back runs is timed, with the garbage
        collector off, so that neither the program's cache footprint nor
        its heap size changes the kernel's time."""
        if self._ticking:  # an alarm that arrives during a run is dropped
            return
        self._ticking = True
        start = clock()
        collecting = gc.isenabled()
        gc.disable()
        try:
            kernel()  # brings its code and data back into the caches
            a = clock()
            kernel()
            b = clock()
            self.starts.append(start)
            self.ends.append(clock())
            self.times.append(b - a)
        finally:
            if collecting:
                gc.enable()
            self._ticking = False

    def __enter__(self) -> SpeedProbe:
        self.tick()
        self._saved_handler = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved_handler)
        self.tick()

    def local(self, start: float, end: float) -> float:
        """Median kernel time of the runs within WINDOW_S of [start, end],
        and always of the last run before it and the first run after it."""
        lo = min(bisect.bisect_left(self.ends, start - WINDOW_S),
                 bisect.bisect_right(self.ends, start) - 1)
        hi = max(bisect.bisect_right(self.starts, end + WINDOW_S),
                 bisect.bisect_left(self.starts, end) + 1)
        lo, hi = max(lo, 0), min(hi, len(self.times))
        if lo >= hi:
            raise ValueError("no kernel run near the interval")
        return statistics.median(self.times[lo:hi])

    def inside(self, start: float, end: float) -> float:
        """Time spent in ticks within [start, end]."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.ends, end)
        return sum(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def duration(self, start: float, end: float) -> float:
        """The operation time over [start, end] at reference speed."""
        raw = end - start - self.inside(start, end)
        return raw * REFERENCE_S / self.local(start, end)
