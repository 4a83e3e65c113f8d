"""Planned schedules of waiting jobs.

One planning pass of a local scheduling policy over the waiting queue of
a cluster records, for every waiting job, a :class:`PlannedJob`: the
planned start and the planned (walltime-based) completion.  The
scheduling hot path maintains them in an :class:`IncrementalPlan` — the
entries in queue order plus the *residual* availability profile left
after every placed reservation — which supports suffix replanning:
appending a job at the tail places exactly one reservation, and
replanning from queue position ``k`` restores only the reservations of
positions ``k..end`` before placing them again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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

    def is_feasible(self) -> bool:
        """False when the policy could not place the job (start is infinite)."""
        return math.isfinite(self.planned_start)


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

    def entry_of(self, job_id: int) -> Optional[PlannedJob]:
        """Entry of ``job_id`` (``None`` when it is not in the plan)."""
        if self._by_id is None:
            self._by_id = {entry.job_id: entry for entry in self.entries}
        return self._by_id.get(job_id)

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

        The caller has re-placed every waiting job queued ahead of the
        earlier plan's position ``index`` and proved that the earlier
        plan's entries from ``index`` on are still exact.  The residual is
        rebuilt from the earlier plan's ``residual``, advanced to ``now``,
        rather than by re-placing the tail: ``release`` (freed processors
        and the old reservations of moved or started entries) is given
        back and ``reserve`` (their new reservations) taken as one net
        :meth:`~AvailabilityProfile.patch` — O(moved entries), not
        O(queue).  ``frontier`` and ``floor`` are the earlier plan's
        frontier and floor, which the kept tail carries over.  ``entries``
        itself becomes the plan's list, its head overwritten in O(index).
        """
        entries[:index] = self.entries
        self.entries = entries
        residual.advance(self.now)
        residual.patch(release, reserve)
        self.residual = residual
        self.floor = min(self.floor, floor)
        self._by_id = None
        self._frontier = max(frontier, self.now)

    def remove_started(self, index: int) -> None:
        """Drop the entry of a job that started exactly at its planned slot.

        The reservation stays subtracted from the residual: it simply moved
        from the planned suffix to the cluster's running set, which is the
        one transition that costs nothing under the dirty-suffix invariant.
        """
        entry = self.entries.pop(index)
        if self._by_id is not None:
            del self._by_id[entry.job_id]
        # The frontier is max(now, latest finite start): only an entry
        # holding it after ``now`` can take it away.
        if entry.planned_start == self._frontier != self.now:
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
