"""A fixed piece of pure-Python work that gauges the machine's current speed.

The benchmark runs on shared hosts whose speed drifts: the same work can
take 0.7-1.3 times its usual time for whole minutes, with CPU time
following wall time. Medians within a run cannot remove a drift that lasts
the whole run. So every timed sample sits between two passes of
:func:`pace`, in the process that does the work, and a :class:`Gauge`
reports it at the reference speed, using the mean of the paces taken
within ``WINDOW_S`` of it.

The speed is not one value with noise around it: a pace takes about 9 ms
most of the time and about 5 ms in stretches of a second or more, so the
mean of the nearby paces estimates the share of each. A pace the host
preempted can read 30-50 ms; it counts as at most ``CAP`` times the run's
median. Over ten 35 s runs per workload on a 2-core virtual machine, the
spread (interquartile range over median) of the scaled timings was at most
8.1 %, against up to 16.7 % for the same runs unscaled (``bench/README.md``).

Two threads that share the interpreter lock slow down more than one
thread when the host takes either core away: a thread handing the lock
over waits until the other is running again. Work run at ``--jobs 2`` is
therefore gauged by two threads each doing the fixed work at once.

The yardstick never touches svgforge, so a change to the program leaves it
alone and moves only what is measured. It does what svgforge mostly does:
scans numbers out of text with a regular expression, does float
arithmetic, formats with two decimals, and fills lists and dicts."""

from __future__ import annotations

import gc
import random
import re
import statistics
import threading
import time

NUMBER = re.compile(r"-?\d+(?:\.\d+)?")

# Median seconds of pace(1) and pace(2) on the machine the README's figures
# come from (2-core virtual machine, Python 3.11.7). Only the ratio matters.
REFERENCE_S = {1: 0.0087, 2: 0.0175}

# Paces this close in time to a sample gauge it. The machine's speed changes
# within seconds, so a wider window follows it less closely; a narrower one
# holds fewer paces and so more of their own noise.
WINDOW_S = 3.0
CAP = 2.0

_rng = random.Random(7)
TEXT = " ".join(f"M{_rng.uniform(0, 100):.3f} {_rng.uniform(0, 100):.3f}" for _ in range(400))


def _work() -> int:
    text, seen = TEXT, {}
    for _ in range(7):
        values = [float(t) for t in NUMBER.findall(text)]
        out = []
        for i in range(0, len(values) - 1, 2):
            cmd = f"L{values[i] * 0.75 + 2:.2f} {values[i + 1] * 0.5 + 1:.2f}"
            out.append(cmd)
            seen[cmd[:3]] = seen.get(cmd[:3], 0) + 1
        text = " ".join(out)
    return len(text) + len(seen)


def pace(threads: int = 1) -> float:
    """Seconds the fixed work takes now, done once by each of ``threads`` threads at once."""
    workers = [threading.Thread(target=_work) for _ in range(threads - 1)]
    enabled = gc.isenabled()
    gc.disable()  # whatever the program left on the heap must not change this time
    try:
        start = time.perf_counter()
        for w in workers:
            w.start()
        _work()
        for w in workers:
            w.join()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Gauge:
    """The paces taken during one run, by time and thread count."""

    def __init__(self) -> None:
        self.paces: dict[int, list[tuple[float, float]]] = {1: [], 2: []}  # (when, seconds)

    def add(self, when: float, seconds: float, threads: int = 1) -> None:
        self.paces[threads].append((when, seconds))

    def take(self, threads: int = 1) -> None:
        """Pace now, in this process."""
        seconds = pace(threads)
        self.add(time.perf_counter() - seconds / 2, seconds, threads)

    def factor(self, when: float, threads: int = 1) -> float:
        """What a time measured around ``when`` is multiplied by to read it at
        the reference speed: ``REFERENCE_S`` over the mean of the paces within
        ``WINDOW_S`` (at least the two nearest), each capped at ``CAP`` times
        the median."""
        paces = self.paces[threads]
        cap = CAP * statistics.median(s for _, s in paces)
        near = [s for t, s in paces if abs(t - when) <= WINDOW_S]
        if len(near) < 2:
            near = [s for _, s in sorted(paces, key=lambda p: abs(p[0] - when))[:2]]
        return REFERENCE_S[threads] / statistics.fmean(min(s, cap) for s in near)

    def medians(self) -> dict[int, float]:
        return {t: statistics.median(s for _, s in v) for t, v in self.paces.items() if v}
