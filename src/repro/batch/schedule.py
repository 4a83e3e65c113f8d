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

    def __init__(self, cluster_name: str, computed_at: float) -> None:
        self.cluster_name = cluster_name
        self.computed_at = computed_at
        self._entries: Dict[int, PlannedJob] = {}

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

    The **dirty-suffix invariant** ties the two together: at every queue
    position ``k``, the profile the reference planner would see before
    placing job ``k`` equals ``residual`` plus the reservations of entries
    ``k..end`` (:meth:`residual_before`).  Suffix replanning is therefore
    exact: :meth:`restore_suffix` adds those reservations back and
    truncates, after which placements continue as if the prefix had just
    been planned from scratch.
    """

    __slots__ = ("cluster_name", "now", "entries", "residual", "_cached_plan", "_frontier")

    def __init__(self, cluster_name: str, residual: AvailabilityProfile, now: float) -> None:
        self.cluster_name = cluster_name
        self.now = now
        self.entries: List[PlannedJob] = []
        self.residual = residual
        self._cached_plan: Optional[ClusterPlan] = None
        self._frontier: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Introspection                                                      #
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.entries)

    def as_cluster_plan(self) -> ClusterPlan:
        """Materialise the entries as a regular :class:`ClusterPlan` (cached)."""
        if self._cached_plan is None:
            plan = ClusterPlan(self.cluster_name, computed_at=self.now)
            for entry in self.entries:
                plan.add(entry)
            self._cached_plan = plan
        return self._cached_plan

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

    def residual_before(self, index: int) -> AvailabilityProfile:
        """Profile a planner would see before placing queue position ``index``.

        Reconstructed as a copy (the live residual is observably untouched).
        On the array engine the suffix reservations are released in bulk on
        the live residual under a checkpoint and the mutation rolled back —
        O(suffix + breakpoints) instead of copy-and-replay; the list engine
        keeps the historical per-entry replay.
        """
        residual = self.residual
        suffix = [
            (entry.planned_start, entry.planned_end, entry.procs)
            for entry in self.entries[index:]
            if entry.is_feasible()
        ]
        if hasattr(residual, "checkpoint"):
            state = residual.checkpoint()
            try:
                residual.release_many(suffix)
                return residual.copy()
            finally:
                residual.rollback(state)
        profile = residual.copy()
        for start, end, procs in suffix:
            profile.add(start, end, procs)
        profile.compact()
        return profile

    # ------------------------------------------------------------------ #
    # Mutation                                                           #
    # ------------------------------------------------------------------ #
    def _invalidate(self) -> None:
        self._cached_plan = None
        self._frontier = None

    def advance(self, now: float) -> None:
        """Advance the residual's left edge; entries are unaffected."""
        if now == self.now:
            return
        self.residual.advance(now)
        self.now = now
        self._cached_plan = None
        # The frontier is max(now, latest finite start): a cached value
        # only needs the new left edge folded in.
        if self._frontier is not None and now > self._frontier:
            self._frontier = now

    def place(self, job_id: int, procs: int, duration: float, earliest: float) -> PlannedJob:
        """Place one job at the earliest slot of the residual and append it."""
        start = self.residual.earliest_slot(procs, duration, earliest)
        if math.isfinite(start):
            end = start + duration
            self.residual.subtract(start, end, procs)
        else:
            end = math.inf
        entry = PlannedJob(job_id, procs, start, end)
        self.entries.append(entry)
        # A tail append can only raise the frontier, so the cached value is
        # maintained instead of recomputed — submits stay O(1) in queue
        # depth on the frontier side.
        self._cached_plan = None
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
        if hasattr(self.residual, "release_many"):
            self.residual.release_many(suffix)
        else:
            for start, end, procs in suffix:
                self.residual.add(start, end, procs)
            self.residual.compact()
        self._invalidate()

    def splice(
        self,
        index: int,
        entries: List[PlannedJob],
        residual: AvailabilityProfile,
        frontier: float,
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
        entries), not O(queue).  ``frontier`` is the earlier plan's
        frontier, which the kept tail carries over.  ``entries`` itself
        becomes the plan's list, its head overwritten in O(index).
        """
        entries[:index] = self.entries
        self.entries = entries
        for start, end, procs in release:
            residual.add(start, end, procs)
        for start, end, procs in reserve:
            residual.subtract(start, end, procs)
        residual.compact()
        self.residual = residual
        self._cached_plan = None
        self._frontier = frontier

    def remove_started(self, index: int) -> None:
        """Drop the entry of a job that started exactly at its planned slot.

        The reservation stays subtracted from the residual: it simply moved
        from the planned suffix to the cluster's running set, which is the
        one transition that costs nothing under the dirty-suffix invariant.
        """
        del self.entries[index]
        self._invalidate()

    def reset(self, residual: AvailabilityProfile, now: float) -> None:
        """Restart from a fresh base profile (full replan)."""
        self.residual = residual
        self.now = now
        self.entries = []
        self._invalidate()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IncrementalPlan({self.cluster_name}, t={self.now:.0f}, "
            f"{len(self.entries)} jobs)"
        )
