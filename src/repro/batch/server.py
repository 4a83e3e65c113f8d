"""Per-cluster batch server (the frontal node).

The :class:`BatchServer` is the component deployed on the frontal of a
parallel resource in the paper's architecture.  It owns one
:class:`~repro.batch.cluster.ClusterState`, a waiting queue, and a local
scheduling policy (FCFS or CBF), and it exposes to the middleware exactly
the simple queries the paper allows itself:

* :meth:`BatchServer.submit` — add a job to the waiting queue;
* :meth:`BatchServer.cancel` — remove a *waiting* job from the queue
  (:meth:`BatchServer.cancel_waiting` empties the whole queue);
* :meth:`BatchServer.estimate_completion` — expected completion time of a
  job if it were submitted now (or of a job already waiting here);
* :meth:`BatchServer.waiting_jobs` — snapshot of the waiting queue.

Scheduling state is event-driven: instead of replanning the whole waiting
queue whenever anything changes, the server drives an
:class:`~repro.batch.policies.IncrementalPlanner` that edits only the
dirty suffix of the plan — a submission places one job at the tail, a
cancellation replans from the cancelled position, a job starting at its
planned slot and a completion at the walltime boundary cost nothing, and
only an early completion (processors returned at an unpredicted time)
replans the full queue.  Estimation queries are served straight from the
live residual profile, so the grid layer's ECT storms never trigger a
replan.  Because processors are only released by completion events,
handling these events is enough: between two events no new start can
become feasible.

On a *dynamic* platform the server also owns its cluster's
:class:`~repro.platform.timeline.AvailabilityTimeline`: every capacity
transition is scheduled as a ``RESOURCE_CHANGE`` kernel event (fired after
same-timestamp completions, before submissions).  When such an event
shrinks the capacity, running jobs that no longer fit are killed and
requeued at the head of the waiting queue, their completion events are
cancelled, and the plan is rebuilt against the post-change profile; a
recovery replans too, re-entering the stranded queue.  Estimates against a
down cluster come back infinite, so the meta-scheduler and the
reallocation agent naturally route work elsewhere until recovery.  A
server without a timeline schedules no resource events and behaves
byte-identically to the historical static implementation.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.batch.arrayprofile import DEFAULT_PROFILE_ENGINE
from repro.batch.cluster import ClusterState, RunningJob
from repro.batch.job import Job, JobState
from repro.batch.policies import BatchPolicy, IncrementalPlanner, resolve_profile_engine
from repro.batch.schedule import ClusterPlan
from repro.platform.timeline import AvailabilityTimeline
from repro.sim.events import Event, EventType
from repro.sim.kernel import SimulationKernel


class BatchServerError(RuntimeError):
    """Raised on invalid middleware requests (e.g. cancelling a running job)."""


class BatchServer:
    """Frontal of one cluster: waiting queue + local scheduling policy.

    Parameters
    ----------
    kernel:
        Simulation kernel used to schedule start and completion events.
    name:
        Cluster name.
    total_procs:
        Number of processors of the cluster.
    speed:
        Relative speed factor (1.0 = reference cluster).
    policy:
        Local scheduling policy (:class:`BatchPolicy` member or its name).
    on_completion:
        Optional callback invoked as ``on_completion(job)`` whenever a job
        finishes on this cluster (used by the grid simulation to collect
        results).
    on_start:
        Optional callback invoked as ``on_start(job)`` whenever a job starts
        executing on this cluster (used by the multi-submission agent to
        cancel the other copies of a job).
    timeline:
        Optional :class:`~repro.platform.timeline.AvailabilityTimeline`.
        A non-trivial timeline makes the cluster *dynamic*: its capacity
        transitions are scheduled as resource events on the kernel.
    on_outage_kill:
        Optional callback invoked as ``on_outage_kill(job)`` for every job
        killed (and requeued) by a capacity shrink.
    profile_engine:
        Availability-profile engine of the cluster (``"auto"``, the
        default, resolves per policy via
        :func:`~repro.batch.policies.resolve_profile_engine`; ``"array"``
        and ``"list"`` force an engine); see
        :class:`~repro.batch.cluster.ClusterState`.
    """

    def __init__(
        self,
        kernel: SimulationKernel,
        name: str,
        total_procs: int,
        speed: float = 1.0,
        policy: "BatchPolicy | str" = BatchPolicy.FCFS,
        on_completion: Optional[Callable[[Job], None]] = None,
        on_start: Optional[Callable[[Job], None]] = None,
        timeline: Optional[AvailabilityTimeline] = None,
        on_outage_kill: Optional[Callable[[Job], None]] = None,
        profile_engine: str = DEFAULT_PROFILE_ENGINE,
    ) -> None:
        self.kernel = kernel
        if isinstance(policy, str):
            policy = BatchPolicy(policy.lower())
        self.policy = policy
        self.cluster = ClusterState(
            name,
            total_procs,
            speed,
            profile_engine=resolve_profile_engine(profile_engine, policy),
        )
        self._planner = IncrementalPlanner(policy, self.cluster)
        self.on_completion = on_completion
        self.on_start = on_start
        self.on_outage_kill = on_outage_kill
        #: live completion events of the running set (cancelled on outage kills)
        self._completion_events: Dict[int, Event] = {}
        # Statistics.
        self.submitted_count = 0
        self.cancelled_count = 0
        self.started_count = 0
        self.completed_count = 0
        self.killed_count = 0
        #: running jobs killed by capacity shrinks (outages / degradations)
        self.outage_killed_count = 0
        #: jobs re-entered at the queue head after an outage kill
        self.requeued_count = 0
        #: core-seconds of execution thrown away by outage kills
        self.work_lost = 0.0
        #: resource events applied to this cluster
        self.capacity_changes = 0
        self.timeline = timeline
        if timeline is not None and not timeline.is_trivial:
            self._install_timeline(timeline)

    # ------------------------------------------------------------------ #
    # Properties                                                         #
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Cluster name."""
        return self.cluster.name

    @property
    def speed(self) -> float:
        """Relative speed factor of the cluster."""
        return self.cluster.speed

    @property
    def total_procs(self) -> int:
        """Nominal number of processors of the cluster."""
        return self.cluster.total_procs

    @property
    def capacity(self) -> int:
        """Processors currently available (== ``total_procs`` when static)."""
        return self.cluster.capacity

    @property
    def is_up(self) -> bool:
        """True while the cluster has any capacity at all."""
        return self.cluster.is_up

    @property
    def queue_length(self) -> int:
        """Number of waiting jobs."""
        return len(self._planner.jobs)

    @property
    def state_generation(self) -> int:
        """Monotonic counter of estimate-changing state transitions.

        Bumped by the planner on every submission, cancellation and replan
        (early completions, capacity changes — see
        :attr:`IncrementalPlanner.generation`).  Two queries made while the
        counter is unchanged see the same plan and residual profile, so a
        cached estimate taken at the same simulated time is still exact;
        the reallocation engine uses this to skip re-querying clean
        clusters across ticks.
        """
        return self._planner.generation

    def waiting_jobs(self) -> List[Job]:
        """Snapshot of the waiting queue, in queue order."""
        return list(self._planner.jobs)

    def work_left(self) -> float:
        """Remaining declared work, in core-seconds.

        This is what a "least work left" meta-scheduling policy queries: the
        walltime-based remaining occupation of the running jobs plus the
        full walltime-based demand of the waiting queue.
        """
        now = self.kernel.now
        running = sum(
            entry.procs * max(0.0, entry.walltime_end - now)
            for entry in self.cluster.running_jobs()
        )
        waiting = sum(job.procs * job.walltime_on(self.speed) for job in self._planner.jobs)
        return running + waiting

    def has_waiting(self, job: Job) -> bool:
        """True if the job is currently waiting in this server's queue."""
        return self._planner.contains(job.job_id)

    def fits(self, job: Job) -> bool:
        """True if the job's processor request fits the cluster's nominal size.

        Admission is nominal: a job may be submitted to (and wait on) a
        cluster that is momentarily down or degraded, exactly as a real
        batch system accepts submissions during a maintenance window.
        """
        return self.cluster.fits(job)

    def fits_now(self, job: Job) -> bool:
        """True if the request fits the *current* capacity.

        This is what availability-aware placement consults: a down cluster
        fits nothing, a degraded one only what its remaining processors can
        hold.  Identical to :meth:`fits` on a static platform.
        """
        return self.cluster.fits_now(job)

    # ------------------------------------------------------------------ #
    # Middleware-facing operations                                       #
    # ------------------------------------------------------------------ #
    def submit(self, job: Job) -> None:
        """Append a job to the waiting queue and try to start jobs."""
        self._enqueue(job)
        self._schedule_pass()

    def submit_many(self, jobs: Sequence[Job]) -> None:
        """Append a batch of jobs, then run **one** scheduling pass.

        Semantically this is ``for job in jobs: submit(job)`` — tail
        appends cannot change the planned start of an earlier append, and
        a job started between two appends occupies exactly the processors
        its reservation held — but the per-submission scheduling pass
        (an O(queue) scan for startable entries) is paid once per batch
        instead of once per job.  This is what makes deep-queue batched
        admission in the service shell O(batch + queue) rather than
        O(batch x queue).
        """
        if not jobs:
            return
        for job in jobs:
            self._enqueue(job)
        self._schedule_pass()

    def _enqueue(self, job: Job) -> None:
        """Validate and append one job to the waiting queue (no pass)."""
        if not self.cluster.fits(job):
            raise BatchServerError(
                f"job {job.job_id} needs {job.procs} procs but cluster "
                f"{self.name} only has {self.total_procs}"
            )
        if self.has_waiting(job) or self.cluster.is_running(job.job_id):
            raise BatchServerError(f"job {job.job_id} is already known to cluster {self.name}")
        job.state = JobState.WAITING
        job.cluster = self.name
        job.local_submit_time = self.kernel.now
        self._planner.submit(job, self.kernel.now)
        self.submitted_count += 1

    def cancel(self, job: Job) -> None:
        """Remove a *waiting* job from the queue.

        Running jobs cannot be cancelled (the paper's reallocation only ever
        moves jobs in the waiting state).
        """
        index = self._planner.index_of(job.job_id)
        if index < 0:
            raise BatchServerError(f"job {job.job_id} is not waiting on cluster {self.name}")
        self._planner.cancel(index, self.kernel.now)
        job.state = JobState.CANCELLED
        job.cluster = None
        self.cancelled_count += 1
        self._schedule_pass()

    def cancel_waiting(self) -> List[Job]:
        """Cancel every waiting job; returns them in cancellation order.

        Exactly equivalent to cancelling the queue head until the queue is
        empty — each cancellation's scheduling pass may start jobs behind
        the head, which then run instead of being cancelled — but without
        the suffix replan per job once no start remains possible.

        Let ``B`` be the running-jobs profile (:meth:`ClusterState.availability`).
        A job starts during the cascade only at a planned slot of ``now``,
        planned against ``B`` minus the reservations ahead of it, so it
        must fit at ``now`` in ``B`` for its whole walltime; and ``B``
        itself only changes when a job starts.  While some job behind the
        head passes that test, the head is cancelled through
        :meth:`cancel`; once none does, nothing can start for the rest of
        the cascade and the remaining queue is dropped at once through
        :meth:`IncrementalPlanner.cancel_all`.
        """
        planner = self._planner
        cancelled: List[Job] = []
        candidates: Set[int] = set()
        seen_starts = -1
        while planner.jobs:
            if seen_starts != self.started_count:
                seen_starts = self.started_count
                candidates = self._fit_now(planner.jobs)
            head = planner.jobs[0]
            candidates.discard(head.job_id)
            if not candidates:
                break
            self.cancel(head)
            cancelled.append(head)
        if planner.jobs:
            rest = planner.cancel_all(self.kernel.now)
            for job in rest:
                job.state = JobState.CANCELLED
                job.cluster = None
            self.cancelled_count += len(rest)
            cancelled.extend(rest)
        return cancelled

    def _fit_now(self, jobs: Sequence[Job]) -> Set[int]:
        """Ids of ``jobs`` that fit at ``now`` in the running-jobs profile."""
        now = self.kernel.now
        base = self.cluster.availability(now)
        free_now = base.free_at(now)
        speed = self.speed
        return {
            job.job_id
            for job in jobs
            if job.procs <= free_now
            and base.min_free_over(now, now + job.walltime_on(speed)) >= job.procs
        }

    def estimate_completion(self, job: Job) -> float:
        """Expected completion time (ECT) of ``job`` on this cluster.

        * If the job is already waiting here, this is its currently planned
          completion time.
        * Otherwise it is the completion the job would obtain if it were
          submitted right now (placed at the end of the waiting queue, with
          back-filling when the policy is CBF), computed as a pure query
          against the live residual profile.
        * ``math.inf`` when the job cannot fit on this cluster.
        """
        return self.estimate_completion_many((job,))[0]

    def estimate_completion_many(self, jobs: Sequence[Job]) -> List[float]:
        """ECT of every job in ``jobs``, one column refresh in a single pass.

        Semantically identical to calling :meth:`estimate_completion` per
        job, but the per-query constant work — advancing the planner,
        materialising the plan lookup and resolving the FCFS frontier — is
        paid once for the whole batch.  This is the query the grid layer's
        estimate table issues when a reallocation touches this cluster and
        the ECT column of every remaining candidate must be refreshed: the
        estimates are pure what-if placements against the live residual
        profile, so the batch never mutates scheduling state.
        """
        if not jobs:
            return []
        self._planner.advance(self.kernel.now)
        return self._planner.estimate_many(jobs)

    def planned_completion(self, job: Job) -> float:
        """Planned completion time of a job already waiting on this cluster."""
        self._planner.advance(self.kernel.now)
        plan = self._planner.cluster_plan()
        if job.job_id not in plan:
            raise BatchServerError(f"job {job.job_id} is not waiting on cluster {self.name}")
        return plan.planned_end(job.job_id)

    def planned_schedule(self) -> ClusterPlan:
        """Current plan of the waiting queue (one entry per waiting job)."""
        self._planner.advance(self.kernel.now)
        return self._planner.cluster_plan()

    def running_snapshot(self) -> List[RunningJob]:
        """Snapshot of the running jobs (start time and walltime-based end)."""
        return list(self.cluster.running_jobs())

    # ------------------------------------------------------------------ #
    # Resource events (dynamic platforms)                                #
    # ------------------------------------------------------------------ #
    def _install_timeline(self, timeline: AvailabilityTimeline) -> None:
        """Apply the initial capacity and schedule every future transition."""
        procs = self.cluster.total_procs
        initial = timeline.capacity_at(self.kernel.now, procs)
        if initial != self.cluster.capacity:
            # Before any job exists: no victims, no replanning needed beyond
            # resetting the empty plan's base profile.
            self.cluster.apply_capacity(initial, self.kernel.now)
            self._planner.replan_all(self.kernel.now)
        for time, capacity in timeline.transitions(procs):
            if time <= self.kernel.now:
                continue
            self.kernel.schedule_at(
                time,
                self.apply_capacity_change,
                capacity,
                event_type=EventType.RESOURCE_CHANGE,
            )

    def apply_capacity_change(self, new_capacity: int) -> None:
        """Resource event: the cluster's available capacity becomes ``new_capacity``.

        A shrink kills the most recently started running jobs until the
        rest fit, cancels their completion events, and requeues them at
        the head of the waiting queue (they had already earned their
        start); any change rebuilds the plan against the post-change
        profile and runs a scheduling pass, so a recovery immediately
        starts whatever now fits.
        """
        now = self.kernel.now
        self.capacity_changes += 1
        victims = self.cluster.apply_capacity(new_capacity, now)
        requeued: List[Job] = []
        for entry in victims:
            event = self._completion_events.pop(entry.job.job_id, None)
            if event is not None:
                event.cancel()
            job = entry.job
            job.state = JobState.WAITING
            job.start_time = None
            job.completion_time = None
            job.killed = False
            job.outage_kills += 1
            job.local_submit_time = now
            self.work_lost += entry.procs * (now - entry.start_time)
            requeued.append(job)
        # Victims were killed most-recently-started first; requeue them in
        # their original start order, earliest at the very head of the queue.
        requeued.reverse()
        self.outage_killed_count += len(victims)
        self.requeued_count += len(requeued)
        self._planner.requeue_front(requeued, now)
        self._schedule_pass()
        if self.on_outage_kill is not None:
            for job in requeued:
                self.on_outage_kill(job)

    # ------------------------------------------------------------------ #
    # Internal scheduling                                                #
    # ------------------------------------------------------------------ #
    def _schedule_pass(self) -> None:
        """Start every waiting job whose planned slot is now."""
        if not self._planner.jobs:
            return
        now = self.kernel.now
        self._planner.advance(now)
        startable = {
            entry.job_id for entry in self._planner.plan.entries if entry.planned_start == now
        }
        if not startable:
            return
        to_start = [job for job in self._planner.jobs if job.job_id in startable]
        for job in to_start:
            if job.state is not JobState.WAITING or not self.has_waiting(job):
                # Starting the previous job can trigger arbitrary observer
                # callbacks (e.g. the multi-submission agent cancelling
                # sibling copies), which may have removed or even started
                # this candidate through a nested scheduling pass.
                continue
            if job.procs > self.cluster.free_procs:
                # The plan treats jobs at their walltime boundary as already
                # finished, but their completion events (same timestamp,
                # higher priority) have not all fired yet, so the processors
                # are not released.  Stop here; the pass triggered by the
                # remaining completion events will start this job.
                break
            self._start_job(job)

    def _start_job(self, job: Job) -> None:
        """Transition a waiting job to running and schedule its completion."""
        now = self.kernel.now
        self.cluster.start_job(job, now)
        self._planner.job_started(job, now)
        job.state = JobState.RUNNING
        job.start_time = now
        job.killed = job.exceeds_walltime()
        duration = job.effective_runtime_on(self.speed)
        self.started_count += 1
        self._completion_events[job.job_id] = self.kernel.schedule_at(
            now + duration,
            self._complete_job,
            job,
            event_type=EventType.JOB_COMPLETION,
        )
        if self.on_start is not None:
            self.on_start(job)

    def _complete_job(self, job: Job) -> None:
        """Completion (or walltime kill) of a running job."""
        now = self.kernel.now
        self._completion_events.pop(job.job_id, None)
        entry = self.cluster.finish_job(job.job_id, now)
        self._planner.job_finished(now, entry.procs, entry.walltime_end)
        job.state = JobState.COMPLETED
        job.completion_time = now
        self.completed_count += 1
        if job.killed:
            self.killed_count += 1
        self._schedule_pass()
        if self.on_completion is not None:
            self.on_completion(job)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BatchServer({self.name}, {self.policy}, "
            f"running={self.cluster.running_count}, waiting={len(self._planner.jobs)})"
        )
