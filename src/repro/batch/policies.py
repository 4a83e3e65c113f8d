"""Local scheduling policies: FCFS and Conservative Back-Filling.

Both policies are *conservative*: every waiting job gets a reservation and
a later-queued job is never allowed to delay the reservation of an
earlier-queued job.  The difference is where the reservation may be placed:

* **FCFS** — "the earliest slot at the end of the job queue": jobs keep
  strict queue order, so a job may not start before the job ahead of it in
  the queue starts.  This is the default policy of PBS, Sun Grid Engine and
  Maui as cited in the paper.
* **CBF** — conservative back-filling: a job may slide into an earlier hole
  of the availability profile as long as the already-placed reservations
  (i.e. the earlier-queued jobs) are untouched.  Available in Maui,
  LoadLeveler and OAR.

Planning comes in two equivalent flavours:

* the *reference* planners :func:`plan_fcfs` / :func:`plan_cbf` (also
  exported as :data:`plan_fcfs_reference` / :data:`plan_cbf_reference`) —
  pure functions from ``(profile, queue, speed, now)`` to a
  :class:`~repro.batch.schedule.ClusterPlan`, rebuilding the whole plan;
* the :class:`IncrementalPlanner` — the event-driven engine used by the
  :class:`~repro.batch.server.BatchServer`, which maintains the *same*
  plan across submit/cancel/start/completion events by editing only the
  affected queue suffix.  The differential property suite asserts the two
  flavours agree on randomized event sequences.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, Iterable, List, Protocol, Sequence

from repro.batch.cluster import ClusterState
from repro.batch.job import Job
from repro.batch.profile import AvailabilityProfile
from repro.batch.schedule import ClusterPlan, IncrementalPlan, PlannedJob


class BatchPolicy(enum.Enum):
    """Identifier of a local scheduling policy."""

    FCFS = "fcfs"
    CBF = "cbf"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value.upper()


def resolve_profile_engine(engine: str, policy: BatchPolicy) -> str:
    """Concrete availability-profile engine for ``policy``.

    Resolves the ``"auto"`` default: FCFS gets the ``list`` engine —
    its placements are tail appends, where the per-call overhead of the
    NumPy primitives loses to plain Python lists (the regression the
    profile benchmark gates) — every other policy gets ``array``.
    Explicit engine names pass through untouched, so the
    ``--profile-engine`` escape hatch still forces either engine
    end-to-end.  The two engines are float-identical (the differential
    suite holds them to exact equality), so auto-selection never moves a
    table by a bit.
    """
    if engine != "auto":
        return engine
    return "list" if policy is BatchPolicy.FCFS else "array"


class PlanningPolicy(Protocol):
    """Signature of a planning function."""

    def __call__(
        self,
        profile: AvailabilityProfile,
        queue: Sequence[Job],
        speed: float,
        now: float,
        cluster_name: str = "",
    ) -> ClusterPlan:  # pragma: no cover - protocol definition
        ...


def _plan(
    profile: AvailabilityProfile,
    queue: Sequence[Job],
    speed: float,
    now: float,
    cluster_name: str,
    keep_queue_order: bool,
) -> ClusterPlan:
    """Shared planning loop for FCFS and CBF.

    Jobs are placed one by one in queue order.  ``keep_queue_order`` adds
    the FCFS constraint that a job may not start before the previous job in
    the queue.
    """
    plan = ClusterPlan(cluster_name, computed_at=now)
    previous_start = now
    for job in queue:
        duration = job.walltime_on(speed)
        earliest = previous_start if keep_queue_order else now
        start = profile.earliest_slot(job.procs, duration, earliest)
        if math.isfinite(start):
            profile.subtract(start, start + duration, job.procs)
            end = start + duration
        else:
            end = math.inf
        plan.add(PlannedJob(job.job_id, job.procs, start, end))
        if keep_queue_order and math.isfinite(start):
            previous_start = start
    return plan


def plan_fcfs(
    profile: AvailabilityProfile,
    queue: Sequence[Job],
    speed: float,
    now: float,
    cluster_name: str = "",
) -> ClusterPlan:
    """First-come-first-served conservative planning.

    The reservation of each job is the earliest slot that is not before the
    reservation of the previous job in the queue, so jobs start in queue
    order (ties resolved by processor availability).
    """
    return _plan(profile, queue, speed, now, cluster_name, keep_queue_order=True)


def plan_cbf(
    profile: AvailabilityProfile,
    queue: Sequence[Job],
    speed: float,
    now: float,
    cluster_name: str = "",
) -> ClusterPlan:
    """Conservative back-filling planning.

    Each job is placed at the earliest slot available in the profile after
    the reservations of all earlier-queued jobs have been subtracted; it may
    therefore start before an earlier-queued job (back-filling), but it can
    never delay one (conservative).
    """
    return _plan(profile, queue, speed, now, cluster_name, keep_queue_order=False)


#: From-scratch planners kept under explicit names: they are the oracle the
#: incremental engine is differentially tested against, and the "before"
#: side of the scheduler microbenchmark.
plan_fcfs_reference = plan_fcfs
plan_cbf_reference = plan_cbf


_POLICIES: dict[BatchPolicy, PlanningPolicy] = {
    BatchPolicy.FCFS: plan_fcfs,
    BatchPolicy.CBF: plan_cbf,
}


class IncrementalPlanner:
    """Event-driven planner producing the reference plans at suffix cost.

    One planner serves both policies: FCFS is CBF plus the queue-order
    constraint (``keep_queue_order``), exactly as in :func:`_plan`.  The
    planner owns the waiting queue (``jobs``) and an
    :class:`~repro.batch.schedule.IncrementalPlan` and keeps, between any
    two events, the invariant that its entries are byte-identical to what
    ``plan_fcfs``/``plan_cbf`` would compute from scratch over
    ``(cluster.build_profile(now), jobs, speed, now)``.

    Per-event cost:

    * ``submit`` — one placement at the tail (the residual already ends
      where the reference planner would look);
    * ``cancel`` at queue position ``k`` — restore + re-place positions
      ``k..end`` only;
    * ``cancel_all`` — one restore of the whole plan and no placement,
      O(queue + breakpoints) for the queue that ``cancel(0)`` per job
      would drain at O(queue²);
    * ``job_started`` — free: the started job ran at its planned slot, so
      its reservation simply moves from the plan to the running set;
    * ``job_finished`` at the walltime boundary — free: the availability
      from ``now`` on is unchanged;
    * ``job_finished`` early under FCFS — re-places the queue head only as
      far as the released window can reach: the walk stops once the new
      and old frontiers agree at or past the horizon of every change, then
      keeps the old tail and patches the residual in O(moved entries);
    * ``job_finished`` early under CBF, and capacity changes — a full
      replan: CBF searches from ``now``, not from a frontier, so a
      released window can move any placement.
    """

    __slots__ = (
        "policy", "keep_queue_order", "cluster", "speed", "jobs", "waiting_ids",
        "plan", "generation",
    )

    def __init__(self, policy: BatchPolicy, cluster: ClusterState) -> None:
        self.policy = policy
        self.keep_queue_order = policy is BatchPolicy.FCFS
        self.cluster = cluster
        self.speed = cluster.speed
        self.jobs: List[Job] = []
        #: ids of the jobs in :attr:`jobs` — O(1) membership for the
        #: duplicate-submission check on the service admission hot path.
        self.waiting_ids: set = set()
        self.plan = IncrementalPlan(cluster.name, cluster.availability(0.0), 0.0)
        #: bumped whenever the plan or residual profile changes in a way
        #: that can alter an estimate: submissions, cancellations, replans
        #: (early completions, capacity changes).  A job starting exactly at
        #: its planned slot does *not* bump it — the reservation moves from
        #: the plan to the running set with an identical residual, so every
        #: other job's estimate is unchanged.  The reallocation engine's
        #: dirty-cluster invalidation keys off this counter.
        self.generation = 0

    # ------------------------------------------------------------------ #
    # Queries                                                            #
    # ------------------------------------------------------------------ #
    @property
    def residual(self) -> AvailabilityProfile:
        """Residual profile after every planned reservation (do not mutate)."""
        return self.plan.residual

    def cluster_plan(self) -> ClusterPlan:
        """Current plan of the waiting queue as a :class:`ClusterPlan`."""
        return self.plan.as_cluster_plan()

    def frontier(self) -> float:
        """FCFS frontier: earliest start allowed for a job appended now."""
        return self.plan.frontier()

    def contains(self, job_id: int) -> bool:
        """Whether ``job_id`` is waiting here (O(1))."""
        return job_id in self.waiting_ids

    def index_of(self, job_id: int) -> int:
        """Queue position of ``job_id`` or -1 when it is not waiting here."""
        if job_id not in self.waiting_ids:
            return -1
        for index, job in enumerate(self.jobs):
            if job.job_id == job_id:
                return index
        return -1

    def estimate_many(self, jobs: Sequence[Job]) -> List[float]:
        """Expected completion time of every job in ``jobs``, as pure queries.

        A job already waiting here reports its planned completion; any
        other job is placed *hypothetically* at the end of the queue
        (respecting the FCFS frontier when the policy keeps queue order)
        against the live residual profile, which is never mutated.  On the
        array engine the hypothetical placements go through one
        :meth:`~repro.batch.arrayprofile.ArrayProfile.earliest_slot_many`
        call — the open-run structure of the residual is built once per
        distinct processor count instead of once per job — with results
        float-identical to per-job ``earliest_slot`` queries.  The
        whole-queue plan lookup is only materialised when a queried job
        is waiting here, and a lone hypothetical placement takes the
        scalar ``earliest_slot``.
        """
        waiting_ids = self.waiting_ids
        residual = self.plan.residual
        speed = self.speed
        cluster = self.cluster
        plan = None
        estimates: List[float] = [math.inf] * len(jobs)
        pending: List[tuple[int, int, float]] = []
        for position, job in enumerate(jobs):
            if not cluster.fits(job):
                continue
            if job.job_id in waiting_ids:
                if plan is None:
                    plan = self.cluster_plan()
                estimates[position] = plan.planned_end(job.job_id)
                continue
            pending.append((position, job.procs, job.walltime_on(speed)))
        if not pending:
            return estimates
        earliest = self.frontier() if self.keep_queue_order else self.plan.now
        if len(pending) > 1 and hasattr(residual, "earliest_slot_many"):
            starts = residual.earliest_slot_many(
                [procs for _, procs, _ in pending],
                [duration for _, _, duration in pending],
                earliest,
            )
        else:
            starts = [
                residual.earliest_slot(procs, duration, earliest)
                for _, procs, duration in pending
            ]
        for (position, _, duration), start in zip(pending, starts):
            if math.isfinite(start):
                estimates[position] = start + duration
        return estimates

    # ------------------------------------------------------------------ #
    # Events                                                             #
    # ------------------------------------------------------------------ #
    def advance(self, now: float) -> None:
        """Move to ``now``; previously planned starts stay valid.

        Between two events nothing changes, and a pure time advance cannot
        shift a reservation: the profile over ``[now, inf)`` is untouched
        and every planned start is at or after ``now`` (jobs planned to
        start earlier were started by the pass at their slot).  The stale
        guard rebuilds from scratch if that invariant is ever violated.
        """
        plan = self.plan
        if now == plan.now:
            return
        stale = any(entry.planned_start < now for entry in plan.entries)
        plan.advance(now)
        if stale:  # pragma: no cover - defensive, violates the invariant
            self.replan_all(now)

    def submit(self, job: Job, now: float) -> None:
        """Append ``job`` to the queue and place it at the tail."""
        self.advance(now)
        self.generation += 1
        self.jobs.append(job)
        self.waiting_ids.add(job.job_id)
        self._extend(len(self.jobs) - 1)

    def cancel(self, index: int, now: float) -> None:
        """Remove the job at queue position ``index``; replan the suffix."""
        self.advance(now)
        self.generation += 1
        self.waiting_ids.discard(self.jobs[index].job_id)
        del self.jobs[index]
        self.plan.restore_suffix(index)
        self._extend(index)

    def cancel_all(self, now: float) -> List[Job]:
        """Remove every waiting job; returns them in queue order.

        The end state equals ``cancel(0, now)`` repeated until the queue is
        empty: an empty plan whose residual is the base profile in its
        canonical compacted form.  It is reached by a single
        :meth:`~repro.batch.schedule.IncrementalPlan.restore_suffix` and one
        ``generation`` bump instead of one suffix replan per job.
        """
        self.advance(now)
        self.generation += 1
        jobs = self.jobs
        self.jobs = []
        self.waiting_ids = set()
        self.plan.restore_suffix(0)
        return jobs

    def job_started(self, job: Job, now: float) -> None:
        """A waiting job started; call *after* ``cluster.start_job``.

        When the job starts exactly at its planned slot (the only way the
        server starts jobs) the residual is already correct.  Any other
        start would break the invariant, so it falls back to a full replan
        against the cluster's live profile, which includes the new running
        reservation either way.
        """
        self.advance(now)
        index = self.index_of(job.job_id)
        if index < 0:  # pragma: no cover - server guarantees membership
            raise ValueError(f"job {job.job_id} is not planned on {self.cluster.name}")
        entry = self.plan.entries[index]
        del self.jobs[index]
        self.waiting_ids.discard(job.job_id)
        if entry.planned_start == now and entry.planned_end == now + job.walltime_on(self.speed):
            self.plan.remove_started(index)
        else:  # pragma: no cover - defensive, violates the invariant
            self.replan_all(now)

    def job_finished(self, now: float, procs: int, walltime_end: float) -> None:
        """A running job finished; call *after* ``cluster.finish_job``.

        The completion hands ``procs`` processors back over
        ``[now, walltime_end)``.  At the walltime boundary that window is
        empty and nothing changes from ``now`` on.  An early completion
        released processors the plan did not know about, which can improve
        any waiting job's placement: CBF replans the whole queue from the
        live base profile, FCFS re-places only the part of the queue the
        released window can reach (:meth:`_replan_released`).
        """
        if walltime_end <= now:
            self.advance(now)
        elif self.keep_queue_order:
            self._replan_released(now, procs, walltime_end)
        else:
            self.replan_all(now)

    def _replan_released(self, now: float, procs: int, walltime_end: float) -> None:
        """Exact FCFS replan after ``procs`` processors came back early.

        The queue is re-placed in order on the new base profile.  Before
        any queue position, the profile the new walk sees differs from the
        one the old plan saw only on ``[now, horizon)``: the released
        window ``[now, walltime_end)`` plus the old and new reservations of
        every entry that moved, whose ends raise ``horizon``.  An FCFS
        search from frontier ``F`` reads the profile on ``[F, inf)`` only,
        so once the new and old frontiers are equal and at or past the
        horizon, the next entry keeps its old placement, the horizon stays
        put, and by induction so does every entry behind it.  The walk stops
        there: the old tail is kept and the residual is patched from the
        old one in O(moved entries).  A walk that reaches the end of the
        queue leaves exactly the full replan.
        """
        self.advance(now)
        self.generation += 1
        plan = self.plan
        old_entries = plan.entries
        old_residual = plan.residual
        old_plan_frontier = plan.frontier()
        plan.reset(self.cluster.availability(now), now)
        plan.frontier()  # seed the cache that ``place`` maintains
        horizon = walltime_end
        old_frontier = new_frontier = now
        release = [(now, walltime_end, procs)]
        reserve = []
        speed = self.speed
        for index, job in enumerate(self.jobs):
            if new_frontier == old_frontier >= horizon:
                plan.splice(index, old_entries, old_residual, old_plan_frontier, release, reserve)
                return
            old = old_entries[index]
            new = plan.place(job.job_id, job.procs, job.walltime_on(speed), new_frontier)
            if not math.isfinite(new.planned_start):
                continue  # never placeable, in either plan: the capacity did not change
            new_frontier = new.planned_start
            old_frontier = old.planned_start
            if new.planned_start != old.planned_start:  # same duration: start decides
                release.append((old.planned_start, old.planned_end, old.procs))
                reserve.append((new.planned_start, new.planned_end, new.procs))
                horizon = max(horizon, old.planned_end, new.planned_end)

    def requeue_front(self, jobs: Sequence[Job], now: float) -> None:
        """Re-enter ``jobs`` at the head of the queue after a capacity change.

        This is the planner half of a resource event: jobs killed by an
        outage re-enter the waiting queue *ahead* of everything queued
        behind them (they had already earned their start), and the whole
        plan is rebuilt from the cluster's post-change availability —
        a capacity change moves the base profile itself, which can shift
        every placement, so the full replan is the only exact suffix.
        """
        if jobs:
            self.jobs[:0] = jobs
            self.waiting_ids.update(job.job_id for job in jobs)
        self.replan_all(now)

    def replan_all(self, now: float) -> None:
        """Rebuild the plan from the cluster's live availability profile."""
        self.generation += 1
        self.plan.reset(self.cluster.availability(now), now)
        self._extend(0)

    def _extend(self, start_index: int) -> None:
        """Place ``jobs[start_index:]`` (entries currently end at ``start_index``)."""
        plan = self.plan
        now = plan.now
        keep_queue_order = self.keep_queue_order
        frontier = plan.frontier() if keep_queue_order else now
        speed = self.speed
        for job in self.jobs[start_index:]:
            duration = job.walltime_on(speed)
            entry = plan.place(job.job_id, job.procs, duration, frontier if keep_queue_order else now)
            if keep_queue_order and math.isfinite(entry.planned_start):
                frontier = entry.planned_start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IncrementalPlanner({self.cluster.name}, {self.policy}, "
            f"{len(self.jobs)} waiting)"
        )


def get_policy(policy: "BatchPolicy | str") -> PlanningPolicy:
    """Resolve a policy identifier (enum member or name) to its function."""
    if isinstance(policy, str):
        try:
            policy = BatchPolicy(policy.lower())
        except ValueError as exc:
            valid = ", ".join(p.value for p in BatchPolicy)
            raise ValueError(f"unknown batch policy {policy!r}; expected one of {valid}") from exc
    return _POLICIES[policy]


def iter_policies() -> Iterable[tuple[BatchPolicy, PlanningPolicy]]:
    """Iterate over ``(identifier, planning function)`` pairs."""
    return _POLICIES.items()


def policy_name(policy: "BatchPolicy | Callable[..., ClusterPlan]") -> str:
    """Human-readable name of a policy identifier or planning function."""
    if isinstance(policy, BatchPolicy):
        return str(policy)
    for ident, func in _POLICIES.items():
        if func is policy:
            return str(ident)
    return getattr(policy, "__name__", repr(policy))
