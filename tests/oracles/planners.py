"""From-scratch FCFS / CBF planning: the reference of the incremental planner.

Production plans through one event-driven
:class:`~repro.batch.policies.IncrementalPlanner`, which edits only the
dirty suffix of its plan per event.  The differential suites hold it,
after every event, to what these planners compute from nothing:

* :func:`build_profile` — the cluster's base availability rebuilt from
  its running set at its current capacity, one ``subtract`` per job (what
  :meth:`~repro.batch.cluster.ClusterState.availability` builds in one
  pass);
* :func:`plan_fcfs` / :func:`plan_cbf` (:data:`PLANNERS`) — every job of
  the queue placed in order on that profile, into a :class:`Plan`.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, Optional, Sequence

from repro.batch.cluster import ClusterState
from repro.batch.job import Job
from repro.batch.policies import BatchPolicy
from repro.batch.profile import AvailabilityProfile
from repro.batch.schedule import PlannedJob


class Plan:
    """Job id → :class:`PlannedJob` of one planning pass, in queue order."""

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: Dict[int, PlannedJob] = {}

    def add(self, entry: PlannedJob) -> None:
        if entry.job_id in self._entries:
            raise ValueError(f"job {entry.job_id} planned twice")
        self._entries[entry.job_id] = entry

    def get(self, job_id: int) -> Optional[PlannedJob]:
        return self._entries.get(job_id)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[PlannedJob]:
        return iter(self._entries.values())

    def planned_start(self, job_id: int) -> float:
        """Planned start of ``job_id`` (``inf`` if absent or not placeable)."""
        entry = self._entries.get(job_id)
        return entry.planned_start if entry is not None else math.inf

    def planned_end(self, job_id: int) -> float:
        """Planned completion of ``job_id`` (``inf`` if absent or not placeable)."""
        entry = self._entries.get(job_id)
        return entry.planned_end if entry is not None else math.inf


def build_profile(cluster: ClusterState, now: float) -> AvailabilityProfile:
    """Availability from ``now``, rebuilt from the cluster's running set.

    Each running job holds its processors to its *walltime* end, all the
    scheduler knows before it finishes; the base is the cluster's current
    capacity.  A job at its walltime boundary is treated as gone: its
    completion fires at this timestamp before any planning query.
    """
    profile = AvailabilityProfile(cluster.capacity, start_time=now)
    for entry in cluster.running_jobs():
        if entry.walltime_end > now:
            profile.subtract(now, entry.walltime_end, entry.procs)
    return profile


def _plan(
    profile: AvailabilityProfile,
    queue: Sequence[Job],
    speed: float,
    now: float,
    keep_queue_order: bool,
) -> Plan:
    """Place the jobs one by one in queue order, reserving each slot.

    ``keep_queue_order`` adds the FCFS constraint that a job may not start
    before the previous placeable job in the queue.
    """
    plan = Plan()
    previous_start = now
    for job in queue:
        duration = job.walltime_on(speed)
        earliest = previous_start if keep_queue_order else now
        start = profile.earliest_slot(job.procs, duration, earliest)
        if math.isfinite(start):
            profile.subtract(start, start + duration, job.procs)
            end = start + duration
            if keep_queue_order:
                previous_start = start
        else:
            end = math.inf
        plan.add(PlannedJob(job.job_id, job.procs, start, end))
    return plan


def plan_fcfs(
    profile: AvailabilityProfile, queue: Sequence[Job], speed: float, now: float
) -> Plan:
    """FCFS: the earliest slot not before the previous job's reservation."""
    return _plan(profile, queue, speed, now, keep_queue_order=True)


def plan_cbf(
    profile: AvailabilityProfile, queue: Sequence[Job], speed: float, now: float
) -> Plan:
    """CBF: the earliest slot from ``now`` left by the earlier reservations."""
    return _plan(profile, queue, speed, now, keep_queue_order=False)


PLANNERS = {BatchPolicy.FCFS: plan_fcfs, BatchPolicy.CBF: plan_cbf}
