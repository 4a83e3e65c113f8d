"""Cluster resource state.

:class:`ClusterState` tracks the processors of one cluster and the jobs
currently running on it.  It knows nothing about queues; the
:class:`~repro.batch.server.BatchServer` combines it with a waiting queue
and a planning policy.

The cluster's availability is derived, not stored:
:meth:`ClusterState.availability` builds the free-processor step function
from ``now`` on straight from the running set, each job holding its
processors to its walltime end — the base profile every FCFS and CBF
reservation is planned on (Mu'alem & Feitelson, IEEE TPDS 12(6), 2001).

Since the dynamic-platform refactor the cluster's capacity is a function
of time: :meth:`ClusterState.apply_capacity` shrinks or grows it when a
resource event (outage, maintenance window, join/leave, degraded
capacity) fires, killing just enough running jobs — most recently started
first, a deterministic LIFO victim order — to fit the new capacity.
``total_procs`` remains the *nominal* size (what a job must fit for
admission); :attr:`ClusterState.capacity` is what is available right now.
On a static platform the two never diverge, so every historical code path
behaves byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List

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

    @property
    def profile_engine(self) -> str:
        """Class of the profiles :meth:`availability` builds (one for every policy)."""
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
        return entry

    def finish_job(self, job_id: int) -> RunningJob:
        """Remove a running job (normal completion, walltime kill or outage kill)."""
        try:
            entry = self._running.pop(job_id)
        except KeyError as exc:
            raise ValueError(f"job {job_id} is not running on {self.name}") from exc
        self._used -= entry.procs
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
    def apply_capacity(self, new_capacity: int) -> List[RunningJob]:
        """Shrink or grow the available capacity to ``new_capacity``.

        When shrinking below the processors currently in use, running jobs
        are killed — most recently started first (ties broken by the
        higher job id), a deterministic LIFO order that preserves the most
        sunk work — until the remaining running set fits.

        Returns the killed :class:`RunningJob` entries in kill order (the
        caller requeues the jobs and cancels their completion events).
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
            self.finish_job(entry.job.job_id)
            victims.append(entry)
        self.capacity = int(new_capacity)
        return victims

    # ------------------------------------------------------------------ #
    # Profiles                                                           #
    # ------------------------------------------------------------------ #
    def availability(self, now: float) -> AvailabilityProfile:
        """Free processors from ``now`` on, built from the running set.

        The current capacity minus every running job whose walltime end
        lies after ``now``, each holding its processors to that end — all
        the scheduler knows before a job finishes.  A job at its walltime
        boundary is treated as gone: its completion fires at this
        timestamp before any planning query.  One sort and one pass give
        the canonical step function (every breakpoint after ``now`` is a
        walltime end, where the free count rises); the caller owns the
        returned profile.
        """
        ends = sorted(
            (entry.walltime_end, entry.procs)
            for entry in self._running.values()
            if entry.walltime_end > now
        )
        free = self.capacity - sum([procs for _, procs in ends])
        times = [float(now)]
        counts = [free]
        for end, procs in ends:
            free += procs
            if end == times[-1]:
                counts[-1] = free
            else:
                times.append(end)
                counts.append(free)
        return AvailabilityProfile._from_breakpoints(self.capacity, times, counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterState({self.name}, procs={self.used_procs}/{self.capacity}"
            f"/{self.total_procs}, speed={self.speed})"
        )
