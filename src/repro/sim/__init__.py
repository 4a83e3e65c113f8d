"""Discrete-event simulation kernel.

This subpackage is the substitute for SimGrid in the original paper's
experimental setup.  It provides a minimal but complete event-driven
simulation engine:

* :class:`~repro.sim.kernel.SimulationKernel` — the event loop with a
  simulated clock, one-shot and periodic event scheduling, and run-until
  semantics.
* :class:`~repro.sim.queues.CalendarQueue` — the kernel's event queue,
  O(1) amortised so million-event trace replays stay fast.
* :class:`~repro.sim.events.Event` / :class:`~repro.sim.events.EventType`
  — the unit of work managed by the kernel.
* :class:`~repro.sim.trace.EventTrace` — an optional recorder of every
  executed event, useful for debugging schedules and for building
  Gantt-style figures.

The grid middleware model (clients, meta-scheduler, batch servers) in
:mod:`repro.grid` and :mod:`repro.batch` is written entirely against this
kernel, so the whole reproduction is a single-process deterministic
simulation.
"""

from repro.sim.events import Event, EventType
from repro.sim.kernel import SimulationError, SimulationKernel
from repro.sim.queues import CalendarQueue
from repro.sim.trace import EventTrace, TraceRecord

__all__ = [
    "CalendarQueue",
    "Event",
    "EventType",
    "EventTrace",
    "SimulationError",
    "SimulationKernel",
    "TraceRecord",
]
