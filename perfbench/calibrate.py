"""Host-speed calibration.

The benchmark's host is a shared VM whose speed drifts by tens of per
cent over minutes and toggles between a fast and a slow state within
seconds.  Right before and right after every unit a run times
:data:`SAMPLES` rounds of :func:`reference_work`, a fixed piece of
interpreter and NumPy work that does not touch ``repro``, so no change
of the program can change it.  The unit's *speed* is :data:`REFERENCE_S`
over the median of those timings, and the unit's times are reported at
the reference speed: each is multiplied by the speed (a rate divided by
it).  Host drift then moves the program's unit and the reference work
around it together and cancels out, while a change of the program moves
only the former.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from typing import List, Sequence

import numpy as np

#: Median time of :func:`reference_work` on an undisturbed host of the
#: kind the benchmark was developed on (2 vCPU Intel Xeon, Python 3.11,
#: NumPy 2.4): reported times are in seconds of that host.
REFERENCE_S = 0.022

#: Timings of :func:`reference_work` taken before, and again after, a unit.
SAMPLES = 3

_ITEMS = 20_000
_SLOTS = 1024
_ARRAY = np.random.default_rng(0).random(2_000)


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value


def reference_work() -> float:
    """Run the fixed reference work once; returns its wall time in seconds.

    Its mix resembles the simulator's: small objects, a heap, a dict
    and short NumPy calls.  The garbage collector is off while it runs:
    a collection would traverse the objects the program keeps alive, so
    a program that holds more of them would look like a slower host.
    """
    heap: list = []
    table: dict = {}
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for key in range(_ITEMS):
            item = _Item(key, key * 0.5)
            heapq.heappush(heap, (item.value, key))
            table[key & (_SLOTS - 1)] = item
        while heap:
            heapq.heappop(heap)
        for _ in range(200):
            np.searchsorted(_ARRAY, 0.5) + np.cumsum(_ARRAY[:100]).sum()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def timings() -> List[float]:
    """:data:`SAMPLES` timings of :func:`reference_work`."""
    return [reference_work() for _ in range(SAMPLES)]


def speed(samples: Sequence[float]) -> float:
    """Host speed relative to the reference host (1.0 there, < 1 slower),
    from timings of :func:`reference_work`."""
    return REFERENCE_S / statistics.median(samples)
