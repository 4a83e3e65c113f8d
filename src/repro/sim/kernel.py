"""The discrete-event simulation kernel.

The kernel owns a simulated clock and an event queue of :class:`Event`
objects.  Model components (batch servers, the meta-scheduler, the
reallocation agent, workload clients) schedule callbacks on the kernel and
the kernel fires them in non-decreasing time order.

Design notes
------------
* The kernel is deliberately synchronous and single-threaded: all of the
  paper's behaviour is sequential decision making over queue states, so a
  coroutine/process abstraction (as in SimPy or SimGrid's MSG layer) would
  only add overhead.  Callbacks run to completion and may schedule further
  events.
* Determinism: events are ordered by ``(time, priority, sequence)``; the
  sequence counter makes insertion order the final tie-breaker, so repeated
  runs of the same scenario produce byte-identical results.
* The event queue is a bucketed calendar queue with O(1) amortised
  operations that sustains million-event replays (see
  :mod:`repro.sim.queues`).  It fires events in exactly the order of a
  binary heap — the differential oracle in
  ``tests/test_calendar_queue.py`` holds it to one.
* Cancellation is lazy: cancelled events stay in the queue and are skipped
  when popped, which keeps cancellation O(1) amortised.  The kernel keeps
  an exact live (non-cancelled) event count, and when cancelled entries
  exceed half of the queue it compacts the queue in one O(n) pass — so
  cancellation-heavy models (e.g. multi-submission runs) never accumulate
  unbounded dead entries.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional

from repro.sim.events import Event, EventType
from repro.sim.queues import CalendarQueue
from repro.sim.trace import EventTrace


class SimulationError(RuntimeError):
    """Raised on invalid kernel usage (e.g. scheduling in the past)."""


#: Queues smaller than this are never compacted (rebuilding a tiny queue
#: costs more than skipping its few dead entries).
COMPACTION_MIN_HEAP = 64


class SimulationKernel:
    """Event loop with a simulated clock.

    Parameters
    ----------
    start_time:
        Initial value of the simulated clock, in seconds.  Traces in the
        Standard Workload Format are relative to 0, so the default is 0.
    trace:
        Optional :class:`EventTrace` recording every fired event.

    Examples
    --------
    >>> kernel = SimulationKernel()
    >>> fired = []
    >>> _ = kernel.schedule_at(10.0, fired.append, 10.0)
    >>> _ = kernel.schedule_at(5.0, fired.append, 5.0)
    >>> kernel.run()
    >>> fired
    [5.0, 10.0]
    """

    def __init__(
        self,
        start_time: float = 0.0,
        trace: Optional[EventTrace] = None,
    ) -> None:
        self._now = float(start_time)
        self._queue = CalendarQueue()
        self._sequence = 0
        self._running = False
        self._stopped = False
        self._live = 0
        self._cancelled_in_queue = 0
        self.trace = trace
        #: Number of events fired so far (excluding cancelled ones).
        self.fired_events = 0
        #: Number of queue compaction passes performed so far.
        self.compactions = 0

    # ------------------------------------------------------------------ #
    # Clock                                                              #
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def queue_kind(self) -> str:
        """Name of the event-queue implementation (always ``"calendar"``)."""
        return "calendar"

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still scheduled."""
        return self._live

    @property
    def heap_size(self) -> int:
        """Physical queue size, including not-yet-collected cancelled events."""
        return len(self._queue)

    # ------------------------------------------------------------------ #
    # Scheduling                                                         #
    # ------------------------------------------------------------------ #
    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        event_type: EventType = EventType.GENERIC,
        priority: Optional[int] = None,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated time ``time``.

        Raises
        ------
        SimulationError
            If ``time`` lies in the past or is not finite.
        """
        if not math.isfinite(time):
            raise SimulationError(f"cannot schedule event at non-finite time {time!r}")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event in the past (now={self._now}, requested={time})"
            )
        if priority is None:
            priority = int(event_type)
        # Positional construction: this is the hottest allocation of a
        # trace-scale replay and keyword passing measurably slows it.
        event = Event(
            float(time), priority, self._sequence, callback, args, event_type,
            False, self._note_cancelled,
        )
        self._sequence += 1
        self._live += 1
        self._queue.push(event)
        return event

    def schedule_in(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        event_type: EventType = EventType.GENERIC,
        priority: Optional[int] = None,
    ) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` seconds.

        Raises
        ------
        SimulationError
            If ``delay`` is negative.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.schedule_at(
            self._now + delay, callback, *args, event_type=event_type, priority=priority
        )

    # ------------------------------------------------------------------ #
    # Execution                                                          #
    # ------------------------------------------------------------------ #
    def step(self) -> bool:
        """Fire the next non-cancelled event.

        Returns
        -------
        bool
            ``True`` if an event was fired, ``False`` if the queue is empty
            (the clock is left untouched in that case).
        """
        pop = self._queue.pop
        while True:
            event = pop()
            if event is None:
                return False
            event.popped = True
            if event.cancelled:
                self._cancelled_in_queue -= 1
                continue
            self._live -= 1
            self._now = event.time
            if self.trace is not None:
                self.trace.record(event)
            self.fired_events += 1
            event.callback(*event.args)
            return True

    def run(self, until: Optional[float] = None) -> None:
        """Run events until the queue is exhausted or ``until`` is reached.

        When ``until`` is given, events with a timestamp strictly greater
        than ``until`` are left in the queue and the clock is advanced to
        ``until``.  The common run-to-exhaustion path (``until is None``)
        never peeks ahead: each iteration is exactly one pop.
        """
        if self._running:
            raise SimulationError("kernel is already running (re-entrant run() call)")
        self._running = True
        self._stopped = False
        try:
            if until is None:
                # Run-to-exhaustion is the trace-replay hot loop: the body
                # of step() is inlined here because one method frame per
                # event is measurable at 10⁶ events (the queue object
                # itself never changes, so its pop is bound once).
                pop = self._queue.pop
                while not self._stopped:
                    event = pop()
                    if event is None:
                        break
                    event.popped = True
                    if event.cancelled:
                        self._cancelled_in_queue -= 1
                        continue
                    self._live -= 1
                    self._now = event.time
                    if self.trace is not None:
                        self.trace.record(event)
                    self.fired_events += 1
                    event.callback(*event.args)
                return
            while len(self._queue) and not self._stopped:
                next_time = self._peek_time()
                if next_time is None or next_time > until:
                    break
                self.step()
            if self._now < until:
                self._now = until
        finally:
            self._running = False

    def stop(self) -> None:
        """Request the current :meth:`run` call to return after this event."""
        self._stopped = True

    # ------------------------------------------------------------------ #
    # Internals                                                          #
    # ------------------------------------------------------------------ #
    def _peek_time(self) -> Optional[float]:
        """Time of the next non-cancelled event, or ``None`` if empty."""
        queue = self._queue
        while True:
            head = queue.peek()
            if head is None:
                return None
            if head.cancelled:
                queue.pop()
                head.popped = True
                self._cancelled_in_queue -= 1
                continue
            return head.time

    def _note_cancelled(self, event: Event) -> None:
        """Event hook: maintain live accounting and compact when worthwhile.

        Events cancelled after leaving the queue (already fired or skipped)
        do not affect the counters.
        """
        if event.popped:
            return
        self._live -= 1
        self._cancelled_in_queue += 1
        if (
            len(self._queue) >= COMPACTION_MIN_HEAP
            and self._cancelled_in_queue * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries from the queue in one O(n) pass.

        The total order of events is strict (the sequence counter is
        unique), so compaction cannot change the firing order and
        determinism is preserved.
        """
        self._cancelled_in_queue -= self._queue.compact()
        self.compactions += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimulationKernel(now={self._now:.3f}, pending={self._live}, "
            f"queue={len(self._queue)})"
        )
