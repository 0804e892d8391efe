"""Host-speed probe: a fixed piece of work timed next to the measured work.

On a shared host the same code runs up to ~1.9x slower for stretches of
seconds to minutes, so raw times from different runs compare the host's
state, not the program.  The benchmark times this probe before every
slice of operations and scales the run's times by ``REFERENCE_S /
median probe time``: a time in reference seconds is what the operation
would take on a host where the probe takes ``REFERENCE_S``.  The probe calls nothing of the program, so a change to
the program moves the scaled times exactly as it moves the raw ones.

The probe mixes what the workloads spend their time on: interpreted
scalar float arithmetic, object allocation and small NumPy vector calls.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

REFERENCE_S = 0.5e-3  # probe time that defines one reference second (about its
                      # median on a 2-vCPU Intel Xeon host, Python 3.11, NumPy 2.4)
REPEATS = 5           # probe timings per measurement; their median is taken

_X = np.linspace(0.0, 4.0, 16384)


def _work() -> float:
    s = 0.0
    for i in range(2000):
        s += math.sqrt(i + 0.5) / (1.0 + s * 1e-3)
    pairs = [(i, s) for i in range(1000)]
    y = np.exp(-_X * (s % 3.0))
    return float(y.sum()) + pairs[-1][1]


def probe() -> float:
    """CPU seconds the probe takes now: the median of REPEATS timings."""
    times = []
    for _ in range(REPEATS):
        t0 = time.process_time()
        _work()
        times.append(time.process_time() - t0)
    return statistics.median(times)


def scale(probes: list[float]) -> float:
    """REFERENCE_S / the median of a run's probes: one factor for the whole run.

    One factor keeps the order of the run's times; a factor per slice would
    carry the probe's own noise into the tail, whose highest values would
    come from the slices with the highest factors.
    """
    return REFERENCE_S / statistics.median(probes)
