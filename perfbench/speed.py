"""Machine-speed probe: times a fixed reference job while glyphsvm runs.

The benchmark runs on a shared virtual machine whose speed drifts: the same
page body took from 17.6 to 27.9 s in twelve back-to-back runs in one
process. A timer signal therefore interrupts the timed code every
PROBE_INTERVAL_S and runs REFERENCE_JOB, a fixed mix of interpreter work,
small numpy calls and a pass over a 2 MB array, about 1 ms long, and records
its duration. Over those twelve runs the body's wall time divided by the
median job time spread a quarter as much as the wall time did (interquartile
range 0.058 of the median against 0.254).

The job is the benchmark's own code, so a change to glyphsvm cannot change
it. Its time is subtracted from the measured interval.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

PROBE_INTERVAL_S = 0.05
# Nominal duration of the reference job: a measured time is scaled by
# NOMINAL_JOB_S / (median job time during it), so it reads in seconds of a
# machine on which the job takes 1 ms.
NOMINAL_JOB_S = 0.001

_BIG = np.random.default_rng(0).random(250_000)
_SMALL = np.ones(32)


def reference_job() -> int:
    acc = 0
    for i in range(3000):
        acc += i % 7
    v = _SMALL
    for _ in range(40):
        v = np.exp(-0.5 * (v - 0.25) ** 2)
    _BIG.sum()
    (_BIG * 1.5).max()
    return acc


class SpeedProbe:
    """Context manager: wall time of the block, and the same time normalized."""

    def __init__(self):
        self.jobs: list[float] = []
        self.wall_s = 0.0

    def _tick(self, signum, frame):
        t0 = perf_counter()
        reference_job()
        self.jobs.append(perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc):
        elapsed = perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.wall_s = elapsed - sum(self.jobs)
        return False

    @property
    def normalized_s(self) -> float:
        """Wall time of the block scaled to the nominal machine speed."""
        if not self.jobs:
            # a block shorter than one probe interval: run the job once now
            self._tick(None, None)
        return self.wall_s * NOMINAL_JOB_S / statistics.median(self.jobs)
