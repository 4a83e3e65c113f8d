"""Binary-heap reference of the kernel's event queue.

:class:`HeapEventQueue` implements the kernel's queue interface (``push``,
``pop``, ``peek``, ``compact``, ``len()``) with ``heapq``, the obvious
priority queue over the ``(time, priority, sequence)`` order of
:class:`~repro.sim.events.Event`.  The production
:class:`~repro.sim.queues.CalendarQueue` must fire events in exactly this
order; :func:`heap_kernel` builds a kernel running on the heap so whole
simulations can be compared event for event.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

from repro.sim.events import Event
from repro.sim.kernel import SimulationKernel


class HeapEventQueue:
    """Binary-heap event queue (the differential reference)."""

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: List[Event] = []

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, event: Event) -> None:
        heapq.heappush(self._heap, event)

    def pop(self) -> Optional[Event]:
        """Remove and return the minimum entry (cancelled or not)."""
        if not self._heap:
            return None
        return heapq.heappop(self._heap)

    def peek(self) -> Optional[Event]:
        """The minimum entry (cancelled or not) without removing it."""
        return self._heap[0] if self._heap else None

    def compact(self) -> int:
        """Drop cancelled entries in one O(n) pass; returns the count."""
        live: List[Event] = []
        removed = 0
        for event in self._heap:
            if event.cancelled:
                event.popped = True
                removed += 1
            else:
                live.append(event)
        self._heap = live
        heapq.heapify(self._heap)
        return removed


def use_heap(kernel: SimulationKernel) -> SimulationKernel:
    """Swap the (still empty) queue of a fresh ``kernel`` for a heap."""
    if kernel.heap_size:
        raise ValueError("swap the queue before scheduling any event")
    kernel._queue = HeapEventQueue()
    return kernel


def heap_kernel(*args, **kwargs) -> SimulationKernel:
    """A :class:`SimulationKernel` running on :class:`HeapEventQueue`."""
    return use_heap(SimulationKernel(*args, **kwargs))


#: Event-queue factories of the differential tests, by name.
QUEUES = {"heap": heap_kernel, "calendar": SimulationKernel}
