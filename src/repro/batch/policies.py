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

One planner serves both: the :class:`IncrementalPlanner` used by the
:class:`~repro.batch.server.BatchServer`, which keeps the plan of the
waiting queue across submit/cancel/start/completion events by editing only
the affected queue suffix.  Its from-scratch reference, which rebuilds
the whole plan per call, lives in ``tests/oracles/planners.py``; the
differential suites assert the two agree on randomized event sequences.
"""

from __future__ import annotations

import enum
import math
from typing import List, Optional, Sequence, Tuple

from repro.batch.cluster import ClusterState
from repro.batch.job import Job
from repro.batch.profile import AvailabilityProfile
from repro.batch.schedule import IncrementalPlan, PlannedJob


class BatchPolicy(enum.Enum):
    """Identifier of a local scheduling policy."""

    FCFS = "fcfs"
    CBF = "cbf"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value.upper()


class IncrementalPlanner:
    """Event-driven planner producing the reference plans at suffix cost.

    One planner serves both policies: FCFS is CBF plus the queue-order
    constraint (``keep_queue_order``).  The planner owns the waiting queue
    (``jobs``) and an :class:`~repro.batch.schedule.IncrementalPlan` and
    keeps, between any two events, the invariant that its entries *once
    settled* are byte-identical to placing ``jobs`` one by one in queue
    order, from scratch, on the cluster's base availability at ``now``
    (the reference planners of ``tests/oracles/planners.py``).

    Only an FCFS early completion leaves the plan unsettled: its release
    walk pauses after the queue head (:meth:`_replan_released`), so
    ``plan.entries`` then holds the reference plan's first entries — every
    entry that starts at ``now`` and the first one that does not — and
    :meth:`advance` extends that head whenever time reaches its last
    start.  Every other read or edit (:meth:`estimate`,
    :meth:`estimate_many`, :meth:`planned_end`, :meth:`frontier`,
    :attr:`residual`, :meth:`submit`, :meth:`cancel`) calls :meth:`settle`
    first; :meth:`replan_all` and :meth:`cancel_all` drop the paused walk.
    The server's scheduling pass reads only the head.  Under CBF the plan
    is always settled and a read pays one attribute test.

    Per-event cost:

    * every event — an O(1) stale guard in :meth:`advance`: the plan's
      ``floor`` (a lower bound on every planned start) is compared with
      ``now``, and the exact earliest start is recomputed only when the
      floor lies before ``now`` (after a job started or left the queue);
    * every placement — one walk of the residual, which reserves the slot
      it finds (:meth:`~repro.batch.schedule.IncrementalPlan.place`);
    * ``submit`` — one placement at the tail (the residual already ends
      where the reference planner would look);
    * ``cancel`` at queue position ``k`` — restore + re-place positions
      ``k..end`` only;
    * ``cancel_all`` — no placement: the plan restarts from the cluster's
      availability (one sort of the running set) for the queue that
      ``cancel(0)`` per job would drain at O(queue²), and a paused walk is
      dropped unsettled;
    * ``job_started`` — free: the started job ran at its planned slot, so
      its reservation simply moves from the plan to the running set;
    * ``job_finished`` at the walltime boundary — free: the availability
      from ``now`` on is unchanged;
    * ``job_finished`` early under FCFS — re-places the queue head: every
      entry starting at ``now`` and the first one that does not.  The rest
      of the walk runs at the next read, and only as far as the released
      windows can reach: it stops once the new and old frontiers agree at
      or past the horizon of every change, then keeps the old tail and
      patches the residual in O(moved entries).  Further early completions
      before that read restart the head against the same last exact plan,
      so a burst of them costs one tail walk;
    * ``advance`` during a paused walk — the placements from the paused
      frontier up to ``now``, only once time reaches that frontier;
    * ``job_finished`` early under CBF, and capacity changes — a full
      replan: CBF searches from ``now``, not from a frontier, so a
      released window can move any placement.
    """

    __slots__ = (
        "policy", "keep_queue_order", "cluster", "speed", "jobs", "waiting_ids",
        "plan", "generation", "_walk",
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
        #: the paused FCFS release walk (``None`` when the plan is settled)
        self._walk: Optional[_ReleaseWalk] = None

    # ------------------------------------------------------------------ #
    # Queries                                                            #
    # ------------------------------------------------------------------ #
    @property
    def residual(self) -> AvailabilityProfile:
        """Residual profile after every planned reservation (do not mutate)."""
        if self._walk is not None:
            self.settle()
        return self.plan.residual

    def frontier(self) -> float:
        """FCFS frontier: earliest start allowed for a job appended now."""
        if self._walk is not None:
            self.settle()
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

    def planned_end(self, job_id: int) -> float:
        """Planned completion of a waiting job (``inf`` if absent or unplaceable)."""
        if self._walk is not None:
            self.settle()
        entry = self.plan.entry_of(job_id)
        return entry.planned_end if entry is not None else math.inf

    def _planned_end(self, job_id: int) -> float:
        entry = self.plan.entry_of(job_id)
        return entry.planned_end if entry is not None else math.inf

    def estimate(self, job: Job) -> float:
        """Expected completion time of one job, as a pure query.

        The scalar form of :meth:`estimate_many`: ``inf`` when the job
        does not fit the cluster, its planned completion when it waits
        here, else one hypothetical tail placement
        (:meth:`_hypothetical_end`).
        """
        if self._walk is not None:
            self.settle()
        if not self.cluster.fits(job):
            return math.inf
        if job.job_id in self.waiting_ids:
            return self._planned_end(job.job_id)
        return self._hypothetical_end(job.procs, job.walltime_on(self.speed))

    def _hypothetical_end(self, procs: int, duration: float) -> float:
        """End of one job placed now at the tail of the queue, reserving nothing.

        The search starts at the FCFS frontier when the policy keeps queue
        order, else at ``now``; the residual is never mutated.  The
        plan must be settled.
        """
        earliest = self.plan.frontier() if self.keep_queue_order else self.plan.now
        start = self.plan.residual.earliest_slot(procs, duration, earliest)
        return start + duration if math.isfinite(start) else math.inf

    def estimate_many(self, jobs: Sequence[Job]) -> List[float]:
        """Expected completion time of every job in ``jobs``, as pure queries.

        Float-identical to :meth:`estimate` per job.  The hypothetical
        placements of two or more jobs go through one
        ``earliest_slot_many`` call — in array storage one table of the
        residual's open runs serves every distinct processor count of the
        batch, and all jobs are resolved against it at once; a lone
        hypothetical placement takes :meth:`_hypothetical_end`.
        """
        if self._walk is not None:
            self.settle()
        waiting_ids = self.waiting_ids
        speed = self.speed
        cluster = self.cluster
        estimates: List[float] = [math.inf] * len(jobs)
        pending: List[tuple[int, int, float]] = []
        for position, job in enumerate(jobs):
            if not cluster.fits(job):
                continue
            if job.job_id in waiting_ids:
                estimates[position] = self._planned_end(job.job_id)
                continue
            pending.append((position, job.procs, job.walltime_on(speed)))
        if len(pending) == 1:
            position, procs, duration = pending[0]
            estimates[position] = self._hypothetical_end(procs, duration)
        elif pending:
            earliest = self.plan.frontier() if self.keep_queue_order else self.plan.now
            starts = self.plan.residual.earliest_slot_many(
                [procs for _, procs, _ in pending],
                [duration for _, _, duration in pending],
                earliest,
            )
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
        start earlier were started by the pass at their slot).  A paused
        FCFS release walk whose last placed start is at or before ``now``
        first goes on until it places a start after ``now``, so the pass
        sees every entry that may start at ``now``.  The stale guard
        rebuilds from scratch if that invariant is ever violated.
        It reads the plan's ``floor`` and only recomputes the exact
        earliest planned start when the floor lies before ``now``; the
        recomputed minimum becomes the new floor, so afterwards
        ``plan.floor >= now`` always holds.
        """
        plan = self.plan
        if now == plan.now:
            return
        walk = self._walk
        if walk is not None and walk.new_frontier <= now:
            self._walk_on(now)  # place every entry that may start at ``now``
        if plan.floor < now:
            plan.floor = min([entry.planned_start for entry in plan.entries], default=math.inf)
        plan.advance(now)
        if plan.floor < now:  # a planned start that never started
            self.replan_all(now)

    def submit(self, job: Job, now: float) -> None:
        """Append ``job`` to the queue and place it at the tail."""
        self.advance(now)
        if self._walk is not None:
            self.settle()
        self.generation += 1
        self.jobs.append(job)
        self.waiting_ids.add(job.job_id)
        self._extend(len(self.jobs) - 1)

    def cancel(self, index: int, now: float) -> None:
        """Remove the job at queue position ``index``; replan the suffix."""
        self.advance(now)
        if self._walk is not None:
            self.settle()
        self.generation += 1
        self.waiting_ids.discard(self.jobs[index].job_id)
        del self.jobs[index]
        self.plan.restore_suffix(index)
        self._extend(index)

    def cancel_all(self, now: float) -> List[Job]:
        """Remove every waiting job; returns them in queue order.

        The end state equals ``cancel(0, now)`` repeated until the queue is
        empty: an empty plan whose residual is the base profile in its
        canonical form.  That is the cluster's availability at ``now``,
        so the plan restarts from it with one ``generation`` bump instead
        of one suffix replan per job; a paused release walk is dropped,
        since nothing is left to place.
        """
        self._walk = None
        self.generation += 1
        jobs = self.jobs
        self.jobs = []
        self.waiting_ids = set()
        self.plan.reset(self.cluster.availability(now), now)
        return jobs

    def job_started(self, job: Job, now: float) -> None:
        """A waiting job started; call *after* ``cluster.start_job``.

        When the job starts exactly at its planned slot (the only way the
        server starts jobs) the residual is already correct.  Any other
        start would break the invariant, so it falls back to a full replan
        against the cluster's availability, which includes the new running
        reservation either way.  A paused release walk records the running
        reservation, which a restart of the walk patches in.
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
            if self._walk is not None:
                self._walk.started(index, entry)
        else:  # pragma: no cover - defensive, violates the invariant
            self.replan_all(now)

    def job_finished(self, now: float, procs: int, walltime_end: float) -> None:
        """A running job finished; call *after* ``cluster.finish_job``.

        The completion hands ``procs`` processors back over
        ``[now, walltime_end)``.  At the walltime boundary that window is
        empty and nothing changes from ``now`` on.  An early completion
        released processors the plan did not know about, which can improve
        any waiting job's placement: CBF replans the whole queue from the
        cluster's availability, FCFS re-places the queue head now and the rest
        of the part the released window can reach at the next read
        (:meth:`_replan_released`).
        """
        if walltime_end <= now:
            self.advance(now)
        elif self.keep_queue_order:
            self._replan_released(now, procs, walltime_end)
        else:
            self.replan_all(now)

    def _replan_released(self, now: float, procs: int, walltime_end: float) -> None:
        """Exact FCFS replan after ``procs`` processors came back early.

        The queue is re-placed in order on the new base profile, but only
        its head now (:meth:`_walk_on` up to ``now``); the rest of the
        walk waits for the next read.  The walk always compares against
        the *last exact plan*, kept in a :class:`_ReleaseWalk` when the
        first early completion pauses it: a second early completion before
        that read restarts the walk from the head against the same plan,
        with both released windows, so a burst of completions costs one
        tail walk.
        """
        walk = self._walk
        if walk is None:
            self.advance(now)
            plan = self.plan
            walk = self._walk = _ReleaseWalk(
                plan.entries, plan.residual, plan.frontier(), plan.floor
            )
        self.generation += 1
        walk.restart(now, procs, walltime_end)
        plan = self.plan
        plan.reset(self.cluster.availability(now), now)
        plan.frontier()  # seed the cache that ``place`` maintains
        self._walk_on(now)

    def _walk_on(self, limit: float) -> None:
        """Go on with the paused release walk; pause once a start passes ``limit``.

        Before any queue position, the profile the new walk sees differs
        from the one the last exact plan saw only on ``[now, horizon)``:
        the released windows plus the old and new reservations of every
        entry that moved or started since, whose ends raise ``horizon``.
        An FCFS search from frontier ``F`` reads the profile on ``[F,
        inf)`` only, so once the new and old frontiers are equal and at or
        past the horizon — and every job started since sat ahead of it in
        the old plan — the next entry keeps its old placement, the horizon
        stays put, and by induction so does every entry behind it.  The walk stops there:
        the old tail is kept and the residual is patched from the old one
        in O(moved entries).  A walk that reaches the end of the queue
        leaves exactly the full replan.

        The walk pauses right after placing an entry that starts after
        ``limit`` (the queue head of :meth:`job_finished` is every entry
        starting at ``now`` plus that one); ``limit = inf`` settles it.
        """
        walk = self._walk
        plan = self.plan
        old_entries = walk.entries
        passed = walk.passed
        release = walk.release
        reserve = walk.reserve
        started_last = walk.started_last
        position = walk.position
        horizon = walk.horizon
        new_frontier = walk.new_frontier
        old_frontier = walk.old_frontier
        speed = self.speed
        jobs = self.jobs
        for index in range(len(plan.entries), len(jobs)):
            job = jobs[index]
            job_id = job.job_id
            old = old_entries[position]
            # Skip the jobs started since the last exact plan.  Their old
            # starts need not enter ``old_frontier``: a moved one ends
            # before ``horizon``, an unmoved one started by ``now``.
            while old.job_id != job_id:
                position += 1
                old = old_entries[position]
            if position > started_last and new_frontier == old_frontier >= horizon:
                self._walk = None
                plan.splice(
                    position, old_entries, walk.residual, walk.frontier, walk.floor,
                    release, reserve,
                )
                return
            new = plan.place(job_id, job.procs, job.walltime_on(speed), new_frontier)
            passed.append(position)
            position += 1
            start = new.planned_start
            if start == math.inf:
                continue  # never placeable, in either plan: the capacity did not change
            new_frontier = start
            old_start = old.planned_start
            if old_start > old_frontier:
                old_frontier = old_start
            if start != old_start:  # same duration: start decides
                release.append((old_start, old.planned_end, old.procs))
                reserve.append((start, new.planned_end, new.procs))
                horizon = max(horizon, old.planned_end, new.planned_end)
            if start > limit:
                walk.position = position
                walk.horizon = horizon
                walk.new_frontier = new_frontier
                walk.old_frontier = old_frontier
                return
        self._walk = None

    def settle(self) -> None:
        """Finish a paused FCFS release walk, so ``plan`` is the reference plan."""
        if self._walk is not None:
            self._walk_on(math.inf)

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
        """Rebuild the plan from the cluster's availability at ``now``.

        A paused release walk is dropped: the rebuild is the full replan.
        """
        self._walk = None
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


class _ReleaseWalk:
    """A paused FCFS release walk and the last exact plan it compares against.

    ``entries``, ``residual``, ``frontier`` and ``floor`` are the plan as
    it stood before the first early completion of the pause.  Since then,
    ``freed`` holds the released windows, and every job started since has
    left its patch — its old slot released, its running slot reserved,
    when they differ — in ``started_release``/``started_reserve``, with
    their ends in ``started_horizon`` and its old position in
    ``started_last`` (the latest one).  :meth:`restart` turns both into the
    walk's first patches.  The rest is the walk's progress: ``passed`` (the
    old position of every placed entry), the position of the next job, the
    horizon, both frontiers, and the moved entries' ``release``/``reserve``.
    """

    __slots__ = (
        "entries", "residual", "frontier", "floor", "freed", "started_release",
        "started_reserve", "started_horizon", "started_last", "passed", "release",
        "reserve", "position", "horizon", "new_frontier", "old_frontier",
    )

    def __init__(
        self,
        entries: List[PlannedJob],
        residual: AvailabilityProfile,
        frontier: float,
        floor: float,
    ) -> None:
        self.entries = entries
        self.residual = residual
        self.frontier = frontier
        self.floor = floor
        self.freed: List[Tuple[float, float, int]] = []
        self.started_release: List[Tuple[float, float, int]] = []
        self.started_reserve: List[Tuple[float, float, int]] = []
        self.started_horizon = -math.inf
        self.started_last = -1

    def restart(self, now: float, procs: int, walltime_end: float) -> None:
        """Walk again from the queue head at ``now``, one more window released."""
        freed = [window for window in self.freed if window[1] > now]
        freed.append((now, walltime_end, procs))
        self.freed = freed
        self.release = freed + self.started_release
        self.reserve = list(self.started_reserve)
        self.passed: List[int] = []
        self.position = 0
        self.horizon = max(self.started_horizon, *[end for _, end, _ in freed])
        self.new_frontier = self.old_frontier = now

    def started(self, index: int, entry: PlannedJob) -> None:
        """The placed entry at ``index`` started at its slot: keep its patch."""
        position = self.passed.pop(index)
        old = self.entries[position]
        if old.planned_start != entry.planned_start:
            self.started_release.append((old.planned_start, old.planned_end, old.procs))
            self.started_reserve.append((entry.planned_start, entry.planned_end, entry.procs))
            self.started_horizon = max(self.started_horizon, old.planned_end, entry.planned_end)
        self.started_last = max(self.started_last, position)
