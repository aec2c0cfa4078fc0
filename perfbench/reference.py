"""A fixed reference kernel that calibrates the machine's current speed.

On a shared virtual machine, interference from other tenants slows the
whole process by up to 2x in regimes lasting seconds to minutes, so raw
times of one stage drift between runs far more than any bound a change
could be held to. The kernel below does the same kind of work as a
simulation round (interpreter dispatch plus small numpy operations) and
uses nothing from ``dpgames``, so no change to the library alters it.
Timed between stages, it slows with them, and the ratio stage / kernel
stays steady; multiplied by REFERENCE_S it reads as seconds.
"""

from __future__ import annotations

import time

import numpy as np

# Fastest time of ``kernel()`` on the 2-vCPU x86-64 virtual machine
# (Python 3.11, numpy 2.4, one BLAS thread) where the benchmark was defined.
# Calibrated times read as seconds on that machine when it is idle.
REFERENCE_S = 0.024

ROUNDS = 4500


def kernel() -> float:
    a = np.zeros((5, 1))
    acc = 0.0
    for k in range(ROUNDS):
        b = np.clip(a + 0.5, -1.0, 1.0)
        acc += float(b.sum()) + k * 0.5
        a = b * 0.99
    return acc


def seconds() -> float:
    """Wall time of one kernel run."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
