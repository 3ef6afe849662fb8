"""Host speed reference for the benchmark's times.

On a shared host the same code runs up to twice as slow for tens of seconds
at a time, and a 35-second run cannot average that out.  So every time the
benchmark reports is scaled by factor() = NOMINAL_S / reference_s(), with
the reference kernel timed next to the code it calibrates (worker.py
interpolates the factor between probes).  The kernel is a pure-Python loop
and small numpy operations, the mix that the tables and ring workloads
spend their time in.  A reported second is a second of the host at its
nominal speed; run.py keeps the raw times in its result record.
"""

from __future__ import annotations

import time

import numpy as np

# reference_s() on a quiet 2-vCPU host (Python 3.11.7, numpy 2.4.6)
NOMINAL_S = 0.0025
# the fastest of a few repeats, so an interrupt does not read as a slow host
REPEATS = 3

_BLOCK = np.ones((64, 64))


def _kernel_s() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(30000):
        total += i * i % 7
    block = _BLOCK
    for _ in range(150):
        block = block * 1.0000001 + 0.5
    return time.perf_counter() - start


def reference_s() -> float:
    """Time of the fixed reference kernel, in seconds."""
    return min(_kernel_s() for _ in range(REPEATS))


def factor() -> float:
    """Multiplier that turns a raw time measured now into nominal seconds."""
    return NOMINAL_S / reference_s()
