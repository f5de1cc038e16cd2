"""Host speed, measured beside the program so that timings can be
given at a fixed reference speed.

The cores this benchmark runs on are shared with other tenants, and
their speed drifts by a quarter or more over tens of seconds: identical
campaigns back to back take anywhere from 1.25 s to 2.26 s, and whole
runs land on a fast or a slow stretch.  A fixed pure-Python loop, timed
in the program's own process between its steps, slows down with the
program: over 26 s windows of identical ``burst`` campaigns the two
correlate at 0.95, and campaign time over loop time varies 3% where
campaign time alone varies 9%.  (A loop on the other core, or a numpy
loop, tracks it far less well.)

So an in-process run times the loop every ``EVERY_S`` of its wall time,
and its timings are divided by ``slowdown`` (mean loop time over
``NOMINAL_S``): a run on a stretch 20% slower than the reference
reports the times it would have taken at the reference speed.  The
loop is the benchmark's own code; nothing the program does changes how
much work it is, only how fast the core runs it.
"""

from __future__ import annotations

import statistics
import time

#: Seconds of wall time between two timings of the loop (the loop
#: itself takes ~1/25 of that, so the run's wall time grows by ~4%).
EVERY_S = 0.25
#: The loop's time at the reference speed: about its mean time between
#: the program's steps on a 2.0 GHz Xeon core of the shared 2-core host
#: the benchmark was built on (back to back it runs ~30% faster, its
#: data still in cache).
NOMINAL_S = 0.011

clock = time.perf_counter


def reference_loop() -> int:
    """Fixed interpreter work of the program's kind: dict updates,
    list appends, integer arithmetic; allocates no new containers after
    its first two, so it never triggers the cyclic garbage collector."""
    counts: dict[int, int] = {}
    recent: list[int] = []
    for i in range(40_000):
        key = i & 1023
        counts[key] = counts.get(key, 0) + i
        recent.append(key * 3 % 7)
        if len(recent) > 512:
            recent.clear()
    return len(counts)


class Sampler:
    """Times the loop at most once per ``EVERY_S`` (or now, with
    ``force``); ``samples`` holds every timing in seconds."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last = -EVERY_S

    def tick(self, force: bool = False) -> None:
        if force or clock() - self.last >= EVERY_S:
            start = clock()
            reference_loop()
            self.last = clock()
            self.samples.append(self.last - start)


def slowdown(samples) -> float:
    """How much slower than the reference speed the host ran: the mean
    loop time over ``NOMINAL_S`` (1.0 without samples)."""
    return statistics.fmean(samples) / NOMINAL_S if samples else 1.0
