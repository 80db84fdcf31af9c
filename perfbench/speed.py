"""The machine's speed during a run, sampled by a fixed pure-Python loop.

The shared VM this benchmark runs on changes speed by up to 1.8 times
over minutes: the workload's user CPU time follows its wall time, so
the instructions themselves run slower.  A run therefore reports its
times scaled to a reference speed: measured seconds times
``REFERENCE_S`` over the median time the probe loop took during the run.

The probe runs from a ``SIGALRM`` handler every ``EVERY_S`` seconds of
wall time, in the run's only thread, between two bytecodes of whatever
the workload is doing.  It runs the loop twice and times the second,
warm, run: a first run straight after the workload pays for cache misses
the workload caused, not for the machine's speed.  ``spent`` adds up the
handler's whole time so that the caller can take it out of its timings.
"""

from __future__ import annotations

import signal
import statistics
import time

EVERY_S = 0.25
LOOPS = 10_000
# seconds the timed loop takes on the reference machine; by definition
REFERENCE_S = 0.001

_TABLE = {i: (i * 2654435761) & 0xFFFF for i in range(256)}


def _loop() -> int:
    table, acc = _TABLE, 0
    for i in range(LOOPS):
        acc = (acc * 31 + table[i & 255]) & 0xFFFFFF
    return acc


class SpeedProbe:
    """Context manager that samples the probe loop while it is entered."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _loop()
        t1 = time.perf_counter()
        _loop()
        t2 = time.perf_counter()
        self.samples.append(t2 - t1)
        self.spent += t2 - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, first: int = 0) -> float:
        """Factor from measured seconds to seconds at the reference speed,
        from the samples after the first ``first``."""
        samples = self.samples[first:]
        if not samples:
            raise RuntimeError("the run was too short for a speed sample")
        return REFERENCE_S / statistics.median(samples)
