"""Machine-speed calibration.

On a shared machine the same code can run at two or more speeds for tens
of seconds at a time (a fixed loop measured 0.22 s and 0.35 s on one 2-vCPU
host). The benchmark therefore times a fixed kernel around each measured
interval and reports times scaled to the speed at which the kernel takes
REFERENCE_S: ``wall * REFERENCE_S / kernel_time``. The kernel mixes what
proofmatch spends its time on: dict lookups with hashing, tuple
allocation, and a numpy sort.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.008
_ARRAY = np.random.default_rng(0).random(20000)


def _kernel() -> None:
    counts: dict[tuple[int, str], int] = {}
    for i in range(20000):
        key = (i % 1021, "k")
        counts[key] = counts.get(key, 0) + 1
    pairs = [(i, float(i)) for i in range(20000)]
    order = np.argsort(-_ARRAY, kind="stable")
    del pairs, order


def kernel_seconds() -> float:
    """Best of three timed runs of the kernel, so one interruption does not
    count as a slow machine."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def scale(wall_s: float, kernel_before: float, kernel_after: float) -> float:
    """Wall time in reference seconds, from the kernel times measured just
    before and just after the interval."""
    return wall_s * REFERENCE_S / ((kernel_before + kernel_after) / 2)
