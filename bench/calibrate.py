"""The benchmark's unit of time: one run of a frozen numpy kernel (``ck``).

Raw seconds of identical code drift by tens of percent between back-to-back
runs on a shared 2-core box; the same seconds divided by a kernel timed
right next to them do not.  The kernel is matmul + softmax over float64, the
two things TinyLM spends its numpy time on, so frequency scaling and cache
pressure move both sides of the ratio together.

The kernel is frozen: changing its shapes, seed or round count changes the
unit and invalidates every recorded number.
"""

from __future__ import annotations

import time

import numpy as np

ROWS, WIDTH, ROUNDS = 256, 64, 300

_rng = np.random.default_rng(0)
_A = _rng.normal(size=(ROWS, WIDTH))
_W = _rng.normal(size=(WIDTH, WIDTH)) / np.sqrt(WIDTH)
del _rng


def kernel() -> float:
    """Run the frozen kernel once; the checksum keeps the work observable."""
    x = _A
    for _ in range(ROUNDS):
        x = x @ _W
        x = np.exp(x - x.max(axis=1, keepdims=True))
        x = x / x.sum(axis=1, keepdims=True)
    return float(x.sum())


def calibration_seconds() -> float:
    """Wall seconds of one kernel run (about 40 ms on the reference box)."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
