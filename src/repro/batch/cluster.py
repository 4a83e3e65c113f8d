"""Cluster resource state.

:class:`ClusterState` tracks the processors of one cluster and the jobs
currently running on it.  It knows nothing about queues; the
:class:`~repro.batch.server.BatchServer` combines it with a waiting queue
and a planning policy.

The cluster also owns the *live* availability profile of its running set:
:meth:`ClusterState.start_job` reserves the job's walltime window in the
profile, :meth:`ClusterState.finish_job` releases the unused tail of the
window when a job completes early, and :meth:`ClusterState.availability`
advances the profile to the current time — no per-event reconstruction.
The from-scratch construction from the running set, which the
differential suites hold it to, lives in ``tests/oracles/planners.py``.

Since the dynamic-platform refactor the cluster's capacity is a function
of time: :meth:`ClusterState.apply_capacity` shrinks or grows the live
profile when a resource event (outage, maintenance window, join/leave,
degraded capacity) fires, killing just enough running jobs — most recently
started first, a deterministic LIFO victim order — to fit the new
capacity.  ``total_procs`` remains the *nominal* size (what a job must fit
for admission); :attr:`ClusterState.capacity` is what is available right
now.  On a static platform the two never diverge, so every historical
code path behaves byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.batch.job import Job
from repro.batch.profile import AvailabilityProfile


@dataclass(frozen=True, slots=True)
class RunningJob:
    """A job currently executing on the cluster.

    ``walltime_end`` is the time at which the local resource manager would
    kill the job; the *actual* completion is at most that and is only known
    to the simulation, not to the scheduler.
    """

    job: Job
    start_time: float
    walltime_end: float

    @property
    def procs(self) -> int:
        """Processors held by the job."""
        return self.job.procs


class ClusterState:
    """Processors, speed factor and running set of one cluster.

    Parameters
    ----------
    name:
        Cluster identifier (e.g. ``"bordeaux"``).
    total_procs:
        Nominal number of processors (cores) of the cluster.
    speed:
        Relative speed factor; 1.0 is the reference (slowest) cluster.
        Runtimes and walltimes are divided by this factor.
    """

    def __init__(self, name: str, total_procs: int, speed: float = 1.0) -> None:
        if total_procs <= 0:
            raise ValueError(f"cluster {name}: total_procs must be positive, got {total_procs}")
        if speed <= 0:
            raise ValueError(f"cluster {name}: speed must be positive, got {speed}")
        self.name = name
        self.total_procs = int(total_procs)
        self.speed = float(speed)
        #: currently available processors (== total_procs on static platforms)
        self.capacity = int(total_procs)
        self._running: Dict[int, RunningJob] = {}
        #: processors held by the running set, kept by start_job/finish_job
        self._used = 0
        # Live availability profile of the running set, updated in place by
        # start_job/finish_job and advanced lazily by availability().  The
        # profile picks its own storage from its searches, whatever the
        # policy planning on it.
        self._profile = AvailabilityProfile(self.total_procs, start_time=0.0)

    @property
    def profile_engine(self) -> str:
        """Class of the live profile (the same for every policy)."""
        return AvailabilityProfile.__name__

    # ------------------------------------------------------------------ #
    # Running set                                                        #
    # ------------------------------------------------------------------ #
    @property
    def used_procs(self) -> int:
        """Processors currently held by running jobs."""
        return self._used

    @property
    def free_procs(self) -> int:
        """Processors currently idle (within the current capacity)."""
        return self.capacity - self.used_procs

    @property
    def is_up(self) -> bool:
        """True while the cluster has any capacity at all."""
        return self.capacity > 0

    @property
    def running_count(self) -> int:
        """Number of running jobs."""
        return len(self._running)

    def running_jobs(self) -> Iterator[RunningJob]:
        """Iterate over the running set."""
        return iter(self._running.values())

    def is_running(self, job_id: int) -> bool:
        """True if the job with ``job_id`` is currently running here."""
        return job_id in self._running

    def start_job(self, job: Job, start_time: float) -> RunningJob:
        """Mark ``job`` as running from ``start_time``.

        Raises
        ------
        ValueError
            If the job does not fit in the currently free processors or is
            already running.
        """
        if job.job_id in self._running:
            raise ValueError(f"job {job.job_id} is already running on {self.name}")
        if job.procs > self.free_procs:
            raise ValueError(
                f"job {job.job_id} needs {job.procs} procs but only "
                f"{self.free_procs} are free on {self.name}"
            )
        entry = RunningJob(
            job=job,
            start_time=start_time,
            walltime_end=start_time + job.walltime_on(self.speed),
        )
        self._running[job.job_id] = entry
        self._used += job.procs
        self._profile.subtract(start_time, entry.walltime_end, job.procs)
        return entry

    def finish_job(self, job_id: int, now: Optional[float] = None) -> RunningJob:
        """Remove a running job (normal completion or walltime kill).

        ``now`` is the completion time; when the job finishes before its
        walltime end the unused tail ``[now, walltime_end)`` of its
        reservation is released from the live profile.  Without ``now``
        the entire remaining reservation is released, so the profile stays
        consistent with :attr:`free_procs` for callers that drive the
        cluster directly.
        """
        try:
            entry = self._running.pop(job_id)
        except KeyError as exc:
            raise ValueError(f"job {job_id} is not running on {self.name}") from exc
        self._used -= entry.procs
        released_from = entry.start_time if now is None else now
        if released_from < entry.walltime_end:
            self._profile.release(released_from, entry.walltime_end, entry.procs)
        return entry

    def fits(self, job: Job) -> bool:
        """True if the job's processor request does not exceed the nominal size."""
        return job.procs <= self.total_procs

    def fits_now(self, job: Job) -> bool:
        """True if the request fits in the *current* capacity.

        Identical to :meth:`fits` on a static platform; on a dynamic one a
        down or degraded cluster stops fitting jobs it nominally could run.
        """
        return job.procs <= self.capacity

    # ------------------------------------------------------------------ #
    # Capacity changes (resource events)                                 #
    # ------------------------------------------------------------------ #
    def apply_capacity(self, new_capacity: int, now: float) -> List[RunningJob]:
        """Shrink or grow the available capacity to ``new_capacity`` at ``now``.

        When shrinking below the processors currently in use, running jobs
        are killed — most recently started first (ties broken by the
        higher job id), a deterministic LIFO order that preserves the most
        sunk work — until the remaining running set fits.  Each victim's
        reservation is released in full, then the live profile's capacity
        moves to the new value over ``[now, inf)``.

        Returns the killed :class:`RunningJob` entries in kill order (the
        caller requeues the jobs and cancels their completion events).
        The running set and the live profile stay mutually consistent, so
        a profile rebuilt from the running set at the current capacity
        equals the live one after any sequence of capacity changes.
        """
        if new_capacity < 0:
            raise ValueError(
                f"cluster {self.name}: capacity must be >= 0, got {new_capacity}"
            )
        if new_capacity > self.total_procs:
            raise ValueError(
                f"cluster {self.name}: capacity {new_capacity} exceeds the "
                f"nominal size {self.total_procs}"
            )
        victims: List[RunningJob] = []
        while self._used > new_capacity:
            entry = max(
                self._running.values(),
                key=lambda e: (e.start_time, e.job.job_id),
            )
            self.finish_job(entry.job.job_id, now)
            victims.append(entry)
        self._profile.set_capacity(new_capacity, now)
        self.capacity = int(new_capacity)
        return victims

    # ------------------------------------------------------------------ #
    # Profiles                                                           #
    # ------------------------------------------------------------------ #
    def availability(self, now: float):
        """Live availability profile advanced to ``now`` (returned as a copy).

        The live profile is maintained incrementally by
        :meth:`start_job`/:meth:`finish_job` (and by capacity changes);
        this accessor only drops breakpoints that fell into the past.  As
        a step function over ``[now, inf)`` the result is identical to a
        profile rebuilt from the running set at the current capacity, each
        job holding its processors to its walltime end.
        """
        self._profile.advance(now)
        return self._profile.copy()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterState({self.name}, procs={self.used_procs}/{self.capacity}"
            f"/{self.total_procs}, speed={self.speed})"
        )
