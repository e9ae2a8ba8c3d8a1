"""Reference kernel that calibrates reported times to a fixed machine speed.

The benchmark host's speed drifts by tens of percent over minutes, and a
pure wall-clock median does not repeat across runs.  The kernel below is a
fixed piece of work, independent of the program under test, in the same mix
the workloads spend their time in: small numpy array operations and
interpreted loops.  It runs before and after every timed operation and
set-up sample; a measured time t is reported as

    t * (REF_NOMINAL_S * n) / (time of the n kernel runs around it)

that is, in seconds at the speed where one kernel run takes REF_NOMINAL_S.
Raw seconds are reported beside the scaled ones.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: Kernel time on the reference host (Intel Xeon, 2 vCPUs, Python 3.11,
#: numpy 2.4) in a typical minute; scaled seconds equal raw seconds there.
REF_NOMINAL_S = 0.025

_X = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)


def reference_kernel() -> float:
    acc = 0.0
    for k in range(1, 600):
        acc += float(np.sum(np.cos(k * _X) * (1.0 - k * k)))
        acc += sum([math.sin(0.1 * i) for i in range(40)])
    s = 0
    for i in range(150_000):
        s += i * i
    return acc + s


def timed_reference() -> float:
    """Seconds taken by one reference_kernel run."""
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start
