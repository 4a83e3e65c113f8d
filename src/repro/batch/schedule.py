"""Planned schedules of waiting jobs.

A :class:`ClusterPlan` is the output of one planning pass of a local
scheduling policy over the waiting queue of a cluster: for every waiting
job it records the planned start and the planned (walltime-based)
completion.  Reference plans are throw-away objects recomputed from
scratch; the scheduling hot path instead maintains an
:class:`IncrementalPlan` — the same entries plus the *residual*
availability profile left after every placed reservation — which supports
suffix replanning: appending a job at the tail places exactly one
reservation, and replanning from queue position ``k`` restores only the
reservations of positions ``k..end`` before placing them again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.batch.profile import AvailabilityProfile


@dataclass(frozen=True, slots=True)
class PlannedJob:
    """Planned placement of one waiting job.

    ``planned_end`` is based on the *walltime* (what the scheduler knows),
    not the actual runtime.
    """

    job_id: int
    procs: int
    planned_start: float
    planned_end: float

    @property
    def planned_duration(self) -> float:
        """Length of the reservation (walltime scaled to the cluster speed)."""
        return self.planned_end - self.planned_start

    def is_feasible(self) -> bool:
        """False when the policy could not place the job (start is infinite)."""
        return math.isfinite(self.planned_start)


class ClusterPlan:
    """Mapping from job id to :class:`PlannedJob` for one planning pass."""

    __slots__ = ("cluster_name", "computed_at", "_entries")

    def __init__(
        self,
        cluster_name: str,
        computed_at: float,
        entries: Optional[Dict[int, PlannedJob]] = None,
    ) -> None:
        self.cluster_name = cluster_name
        self.computed_at = computed_at
        #: job id -> entry; ``entries`` is copied, not shared
        self._entries: Dict[int, PlannedJob] = dict(entries) if entries else {}

    def add(self, entry: PlannedJob) -> None:
        """Record a planned job (one entry per job id)."""
        if entry.job_id in self._entries:
            raise ValueError(f"job {entry.job_id} already planned on {self.cluster_name}")
        self._entries[entry.job_id] = entry

    def get(self, job_id: int) -> Optional[PlannedJob]:
        """Planned placement of ``job_id`` or ``None`` if it is not in the plan."""
        return self._entries.get(job_id)

    def __contains__(self, job_id: int) -> bool:
        return job_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[PlannedJob]:
        return iter(self._entries.values())

    def planned_start(self, job_id: int) -> float:
        """Planned start of ``job_id`` (``math.inf`` if absent/not placeable)."""
        entry = self._entries.get(job_id)
        return entry.planned_start if entry is not None else math.inf

    def planned_end(self, job_id: int) -> float:
        """Planned completion of ``job_id`` (``math.inf`` if absent/not placeable)."""
        entry = self._entries.get(job_id)
        return entry.planned_end if entry is not None else math.inf

    def startable_now(self) -> list[PlannedJob]:
        """Entries whose planned start equals the time the plan was computed."""
        return [e for e in self._entries.values() if e.planned_start == self.computed_at]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterPlan({self.cluster_name}, t={self.computed_at:.0f}, "
            f"{len(self._entries)} jobs)"
        )


class IncrementalPlan:
    """A plan that can be edited per event instead of rebuilt per event.

    State
    -----
    ``entries``
        One :class:`PlannedJob` per waiting job, in queue order.
    ``residual``
        The availability profile left over after subtracting every feasible
        entry's reservation from the cluster's base availability.  This is
        the profile a policy would hand to the *next* placement, so tail
        appends and what-if estimation queries need no replanning at all.
    ``now``
        Left edge of the residual; advanced lazily as simulated time moves.
    ``floor``
        A lower bound on every entry's ``planned_start`` (``inf`` when no
        entry was placed since the last :meth:`reset`), kept in O(1) per
        edit: :meth:`place` lowers it, removing entries leaves it valid,
        :meth:`splice` takes the lower of the two plans' floors.  Callers
        that need the exact minimum recompute it and store it back.

    One-job lookups (:meth:`entry_of`) go through a job id → entry map
    built in one pass on first use.  A time advance leaves it valid, a
    tail placement or a started job edits it in O(1), and only the edits
    that rewrite a suffix (:meth:`restore_suffix`, :meth:`splice`,
    :meth:`reset`) drop it.

    The **dirty-suffix invariant** ties the two together: at every queue
    position ``k``, the profile the reference planner would see before
    placing job ``k`` equals ``residual`` plus the reservations of entries
    ``k..end``.  Suffix replanning is therefore exact:
    :meth:`restore_suffix` adds those reservations back and truncates,
    after which placements continue as if the prefix had just been
    planned from scratch.
    """

    __slots__ = (
        "cluster_name", "now", "entries", "residual", "floor", "_by_id", "_frontier",
    )

    def __init__(self, cluster_name: str, residual: AvailabilityProfile, now: float) -> None:
        self.cluster_name = cluster_name
        self.now = now
        self.entries: List[PlannedJob] = []
        self.residual = residual
        self.floor = math.inf
        self._by_id: Optional[Dict[int, PlannedJob]] = None
        self._frontier: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Introspection                                                      #
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.entries)

    def _entry_map(self) -> Dict[int, PlannedJob]:
        if self._by_id is None:
            self._by_id = {entry.job_id: entry for entry in self.entries}
        return self._by_id

    def entry_of(self, job_id: int) -> Optional[PlannedJob]:
        """Entry of ``job_id`` (``None`` when it is not in the plan)."""
        return self._entry_map().get(job_id)

    def as_cluster_plan(self) -> ClusterPlan:
        """Materialise the entries as a regular :class:`ClusterPlan`."""
        return ClusterPlan(self.cluster_name, self.now, self._entry_map())

    def frontier(self) -> float:
        """FCFS queue-order frontier: latest finite planned start (or ``now``).

        Under FCFS planned starts are non-decreasing in queue order, so
        this is exactly the ``previous_start`` value the reference planner
        would hold after placing every current entry.
        """
        if self._frontier is None:
            frontier = self.now
            for entry in self.entries:
                if math.isfinite(entry.planned_start) and entry.planned_start > frontier:
                    frontier = entry.planned_start
            self._frontier = frontier
        return self._frontier

    # ------------------------------------------------------------------ #
    # Mutation                                                           #
    # ------------------------------------------------------------------ #
    def _invalidate(self) -> None:
        self._by_id = None
        self._frontier = None

    def advance(self, now: float) -> None:
        """Advance the residual's left edge; entries are unaffected."""
        if now == self.now:
            return
        self.residual.advance(now)
        self.now = now
        # The frontier is max(now, latest finite start): a cached value
        # only needs the new left edge folded in.
        if self._frontier is not None and now > self._frontier:
            self._frontier = now

    def place(self, job_id: int, procs: int, duration: float, earliest: float) -> PlannedJob:
        """Place one job at the earliest slot of the residual and append it.

        One walk of the residual finds the slot and reserves it
        (:meth:`AvailabilityProfile._place`).
        """
        start = self.residual._place(procs, duration, earliest)
        end = start + duration if math.isfinite(start) else math.inf
        entry = PlannedJob(job_id, procs, start, end)
        self.entries.append(entry)
        if start < self.floor:
            self.floor = start
        # A tail append can only raise the frontier, so the cached value is
        # maintained instead of recomputed — submits stay O(1) in queue
        # depth on the frontier side.
        if self._by_id is not None:
            self._by_id[job_id] = entry
        if (
            self._frontier is not None
            and math.isfinite(start)
            and start > self._frontier
        ):
            self._frontier = start
        return entry

    def restore_suffix(self, index: int) -> None:
        """Undo the placements of queue positions ``index..end``.

        The residual afterwards equals what the reference planner would
        see before placing position ``index``; callers then re-place the
        (possibly edited) suffix.
        """
        entries = self.entries
        if index >= len(entries):
            return
        suffix = [
            (entry.planned_start, entry.planned_end, entry.procs)
            for entry in entries[index:]
            if entry.is_feasible()
        ]
        del entries[index:]
        self.residual.release_many(suffix)
        self._invalidate()

    def splice(
        self,
        index: int,
        entries: List[PlannedJob],
        residual: AvailabilityProfile,
        frontier: float,
        floor: float,
        release: List[Tuple[float, float, int]],
        reserve: List[Tuple[float, float, int]],
    ) -> None:
        """Keep ``entries[index:]`` of an earlier plan behind the current entries.

        The caller has re-placed positions ``0..index-1`` and proved that
        the earlier plan's entries from ``index`` on are still exact.  The
        residual is rebuilt from the earlier plan's ``residual`` rather
        than by re-placing the tail: every ``(start, end, procs)`` of
        ``release`` is added back (freed processors and the old
        reservations of moved entries), every one of ``reserve`` (their new
        reservations) subtracted, then the profile is compacted — O(moved
        entries), not O(queue).  ``frontier`` and ``floor`` are the earlier
        plan's frontier and floor, which the kept tail carries over.
        ``entries`` itself becomes the plan's list, its head overwritten in
        O(index).
        """
        entries[:index] = self.entries
        self.entries = entries
        for start, end, procs in release:
            residual.add(start, end, procs)
        for start, end, procs in reserve:
            residual.subtract(start, end, procs)
        residual.compact()
        self.residual = residual
        self.floor = min(self.floor, floor)
        self._by_id = None
        self._frontier = frontier

    def remove_started(self, index: int) -> None:
        """Drop the entry of a job that started exactly at its planned slot.

        The reservation stays subtracted from the residual: it simply moved
        from the planned suffix to the cluster's running set, which is the
        one transition that costs nothing under the dirty-suffix invariant.
        """
        entry = self.entries.pop(index)
        if self._by_id is not None:
            del self._by_id[entry.job_id]
        self._frontier = None

    def reset(self, residual: AvailabilityProfile, now: float) -> None:
        """Restart from a fresh base profile (full replan)."""
        self.residual = residual
        self.now = now
        self.entries = []
        self.floor = math.inf
        self._invalidate()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IncrementalPlan({self.cluster_name}, t={self.now:.0f}, "
            f"{len(self.entries)} jobs)"
        )
