"""Availability timelines: cluster capacity as a function of time.

The paper evaluates reallocation on a *static* grid: every cluster owns a
fixed number of processors for the whole experiment.  Real platforms are
not static — clusters go down for maintenance, lose nodes to failures,
join the grid mid-way or leave it early.  An :class:`AvailabilityTimeline`
is the declarative description of that dynamism for one cluster: a set of
non-overlapping :class:`CapacityInterval` windows during which the
cluster's available capacity differs from its nominal processor count.

Outside every interval the cluster runs at full capacity, so the *empty*
timeline is the identity: a :class:`~repro.platform.spec.PlatformSpec`
whose clusters carry no (or only trivial) timelines compiles to exactly
the historical static behaviour — no resource events are scheduled and no
simulation outcome changes.

Timelines are pure data.  The simulation side lives in
:class:`~repro.batch.server.BatchServer` (which schedules one
``RESOURCE_CHANGE`` kernel event per capacity transition) and
:class:`~repro.batch.cluster.ClusterState` (which grows or shrinks its
capacity, killing running jobs that no longer fit).
Stochastic timeline generation (seeded failure models, named outage
scripts) lives in :mod:`repro.workload.failures`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Tuple

#: Interval kinds understood by the declarative constructors.  The kind is
#: informational (it names *why* capacity changed); only the capacity value
#: affects the simulation.
INTERVAL_KINDS: Tuple[str, ...] = ("outage", "maintenance", "degraded", "join", "leave")


class TimelineError(ValueError):
    """Raised on invalid timeline declarations (overlaps, bad capacities)."""


@dataclass(frozen=True, slots=True)
class CapacityInterval:
    """One window during which a cluster's available capacity is reduced.

    Parameters
    ----------
    start / end:
        Half-open window ``[start, end)`` in simulated seconds; ``end``
        may be ``math.inf`` (the cluster never comes back).
    capacity:
        Absolute number of processors available during the window.  0
        models a full outage; a value between 0 and the nominal size
        models degraded capacity.
    kind:
        Informational tag (``outage``, ``maintenance``, ``degraded``,
        ``join``, ``leave``).
    """

    start: float
    end: float
    capacity: int
    kind: str = "outage"

    def __post_init__(self) -> None:
        if self.start < 0:
            raise TimelineError(f"interval start must be >= 0, got {self.start}")
        if not self.end > self.start:
            raise TimelineError(f"empty capacity interval [{self.start}, {self.end})")
        if self.capacity < 0:
            raise TimelineError(f"interval capacity must be >= 0, got {self.capacity}")
        if self.kind not in INTERVAL_KINDS:
            raise TimelineError(
                f"unknown interval kind {self.kind!r}; expected one of {INTERVAL_KINDS}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON representation (``inf`` encoded as ``None``)."""
        return {
            "start": self.start,
            "end": None if math.isinf(self.end) else self.end,
            "capacity": self.capacity,
            "kind": self.kind,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CapacityInterval":
        """Inverse of :meth:`to_dict`."""
        end = data["end"]
        return cls(
            start=float(data["start"]),
            end=math.inf if end is None else float(end),
            capacity=int(data["capacity"]),
            kind=data.get("kind", "outage"),
        )


@dataclass(frozen=True, slots=True)
class AvailabilityTimeline:
    """Piecewise-constant capacity description of one cluster.

    The timeline holds the *exceptional* windows only; between (and after)
    them the cluster runs at its nominal capacity.  Intervals must not
    overlap — the compiled capacity function would otherwise be ambiguous.
    """

    intervals: Tuple[CapacityInterval, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.intervals, key=lambda iv: (iv.start, iv.end)))
        object.__setattr__(self, "intervals", ordered)
        for previous, current in zip(ordered, ordered[1:]):
            if current.start < previous.end:
                raise TimelineError(
                    f"overlapping capacity intervals "
                    f"[{previous.start}, {previous.end}) and "
                    f"[{current.start}, {current.end})"
                )

    # ------------------------------------------------------------------ #
    # Declarative constructors                                           #
    # ------------------------------------------------------------------ #
    @classmethod
    def always_up(cls) -> "AvailabilityTimeline":
        """The trivial (identity) timeline: full capacity forever."""
        return cls()

    def with_outage(self, start: float, end: float, kind: str = "outage") -> "AvailabilityTimeline":
        """Copy with a full outage (capacity 0) over ``[start, end)``."""
        return AvailabilityTimeline(
            self.intervals + (CapacityInterval(start, end, 0, kind),)
        )

    def with_maintenance(self, start: float, end: float) -> "AvailabilityTimeline":
        """Copy with a maintenance window (capacity 0, tagged as such)."""
        return self.with_outage(start, end, kind="maintenance")

    def with_degraded(self, start: float, end: float, capacity: int) -> "AvailabilityTimeline":
        """Copy with reduced capacity over ``[start, end)``."""
        return AvailabilityTimeline(
            self.intervals + (CapacityInterval(start, end, capacity, "degraded"),)
        )

    def joining_at(self, time: float) -> "AvailabilityTimeline":
        """Copy where the cluster only joins the platform at ``time``."""
        if time <= 0:
            return self
        return AvailabilityTimeline(
            self.intervals + (CapacityInterval(0.0, time, 0, "join"),)
        )

    def leaving_at(self, time: float) -> "AvailabilityTimeline":
        """Copy where the cluster leaves the platform for good at ``time``.

        The window never ends, so jobs killed at the leave (requeued on
        the cluster's own queue) only complete if a reallocation agent
        moves them — on a baseline run they stay waiting forever.  Outage
        scripts that feed metric comparisons should bound the window at
        the trace horizon instead (see the ``join-leave`` script).
        """
        return AvailabilityTimeline(
            self.intervals + (CapacityInterval(time, math.inf, 0, "leave"),)
        )

    # ------------------------------------------------------------------ #
    # Queries                                                            #
    # ------------------------------------------------------------------ #
    @property
    def is_trivial(self) -> bool:
        """True when the timeline holds no intervals at all.

        This is a structural check: a timeline whose intervals happen to
        preserve the full capacity (e.g. a "degradation" to the nominal
        size) is not trivial by this test, even though it schedules no
        transitions.
        """
        return not self.intervals

    def validate_for(self, procs: int, cluster: str = "") -> None:
        """Check every interval capacity against the nominal size ``procs``."""
        for interval in self.intervals:
            if interval.capacity > procs:
                raise TimelineError(
                    f"cluster {cluster or '?'}: interval capacity "
                    f"{interval.capacity} exceeds the nominal size {procs}"
                )

    def capacity_at(self, time: float, procs: int) -> int:
        """Available capacity at ``time`` for a cluster of nominal size ``procs``."""
        for interval in self.intervals:
            if interval.start <= time < interval.end:
                return min(interval.capacity, procs)
        return procs

    def transitions(self, procs: int) -> List[Tuple[float, int]]:
        """Capacity change points as ``(time, new capacity)``, time-ordered.

        The initial capacity (at time 0) is *not* a transition; read it
        with :meth:`capacity_at`.  Infinite interval ends produce no
        recovery transition.  Consecutive equal capacities are coalesced,
        so the trivial timeline — and any timeline whose intervals do not
        actually change the capacity — yields an empty list.
        """
        points: List[Tuple[float, int]] = []
        for interval in self.intervals:
            if interval.start > 0.0:
                points.append((interval.start, min(interval.capacity, procs)))
            if math.isfinite(interval.end):
                points.append((interval.end, self.capacity_at(interval.end, procs)))
        points.sort(key=lambda item: item[0])
        coalesced: List[Tuple[float, int]] = []
        previous = self.capacity_at(0.0, procs)
        for time, capacity in points:
            if capacity != previous:
                coalesced.append((time, capacity))
                previous = capacity
        return coalesced

    # ------------------------------------------------------------------ #
    # Serialization                                                      #
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON representation."""
        return {"intervals": [interval.to_dict() for interval in self.intervals]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AvailabilityTimeline":
        """Inverse of :meth:`to_dict`."""
        return cls(
            intervals=tuple(
                CapacityInterval.from_dict(raw) for raw in data.get("intervals", ())
            )
        )

    def __bool__(self) -> bool:
        return not self.is_trivial
