"""The reallocation mechanism (Algorithms 1 and 2 of the paper).

A :class:`ReallocationAgent` fires periodically (every hour in the paper,
starting one hour after the first submission).  At each tick it considers
every job waiting in the queues of all clusters and runs one of the two
algorithms of Section 2.2.1:

* :attr:`ReallocationAlgorithm.STANDARD` (Algorithm 1, *without
  cancellation*): jobs are examined one by one in the order chosen by the
  heuristic; a job is moved only if another cluster offers an expected
  completion time better by at least ``threshold`` seconds (one minute in
  the paper), in which case it is cancelled at its current location and
  submitted to the better cluster.
* :attr:`ReallocationAlgorithm.CANCELLATION` (Algorithm 2, *with
  cancellation*): every waiting job is first cancelled everywhere, then the
  jobs are re-submitted one by one, each to the cluster with the best
  expected completion time, in the order chosen by the heuristic.

Reallocation counting follows the paper: a move is counted when a job is
submitted to a cluster different from the one it was waiting on; a job
moved at several ticks is counted several times.

Implementation note — the heuristics conceptually re-query every remaining
job's per-cluster ECT at every step (the O(n²) cost the paper quotes for
the offline heuristics).  Within one tick the simulated clock does not
advance, so an ECT only changes when the state of its cluster changes
(a cancellation or a submission).  The agent therefore keeps a table of
estimates and refreshes, after each action, only the entries of the
clusters that were touched; the selection outcome is identical to the
naive re-query and the simulation stays fast.  The batch servers underneath
answer these queries from their live incremental planning state (see
:mod:`repro.batch.policies`), so a refresh costs one earliest-slot search
per estimate — the cancel/submit of a move replans only the affected queue
suffix, never the whole queue.

Since the columnar refactor the table is a thin wrapper over a
:class:`~repro.core.estimation.EstimateMatrix`: ECTs live in a NumPy
(candidates × clusters) matrix, table builds and column refreshes go
through the batched :meth:`BatchServer.estimate_completion_many` query,
and each selection step is a vectorised
:meth:`~repro.core.heuristics.Heuristic.select_index` over the alive rows.
A :class:`~repro.core.heuristics.JobEstimate` object is only materialised
for the finally-selected job of each step — never for the whole candidate
set.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.batch.job import Job, JobState
from repro.batch.server import BatchServer
from repro.core.estimation import EstimateMatrix
from repro.core.heuristics import Heuristic, JobEstimate, get_heuristic
from repro.sim.events import EventType
from repro.sim.kernel import SimulationKernel

#: Minimum improvement (seconds) required to move a job in Algorithm 1.
DEFAULT_THRESHOLD = 60.0
#: Period between reallocation events (seconds); one hour in the paper.
DEFAULT_PERIOD = 3600.0


class ReallocationAlgorithm(enum.Enum):
    """Which of the two reallocation algorithms to run at each tick."""

    STANDARD = "standard"  #: Algorithm 1 — reallocation without cancellation
    CANCELLATION = "cancellation"  #: Algorithm 2 — cancel everything, resubmit

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class _EstimateTable:
    """Per-cluster ECTs of the remaining candidates, refreshed incrementally.

    A thin wrapper over :class:`~repro.core.estimation.EstimateMatrix`:
    the wrapper owns the :class:`Job` objects and the batch-server
    handles, the matrix owns every number the heuristics read.  Table
    builds and column refreshes query whole candidate batches through
    :meth:`BatchServer.estimate_completion_many`, so the per-query planner
    bookkeeping is paid once per touched cluster instead of once per
    (job, cluster) pair.

    Fitting is judged against the *current* capacity
    (:meth:`BatchServer.fits_now`): on a dynamic platform the column of a
    down cluster is masked exactly like a cluster the job never fit on —
    down clusters attract no moves, and a job stranded on one has an
    infinite current ECT, so any live cluster wins it over.  A later tick
    rebuilt after the recovery re-enters the column naturally.  On a
    static platform ``fits_now`` equals ``fits`` and nothing changes.
    """

    def __init__(self, servers: Sequence[BatchServer]) -> None:
        self._servers = {server.name: server for server in servers}
        self._matrix = EstimateMatrix(self._servers)
        self._jobs: Dict[int, Job] = {}

    @property
    def matrix(self) -> EstimateMatrix:
        """The underlying columnar store (read-mostly; used by benchmarks)."""
        return self._matrix

    @property
    def alive_count(self) -> int:
        """Number of candidates still selectable."""
        return self._matrix.alive_count

    def alive_jobs(self) -> List[Job]:
        """Jobs of the still-selectable candidates, in insertion order."""
        return [self._jobs[job_id] for job_id in self._matrix.alive_job_ids()]

    def job_of(self, job_id: int) -> Job:
        """The :class:`Job` object of one candidate."""
        return self._jobs[job_id]

    # ------------------------------------------------------------------ #
    # Builds                                                             #
    # ------------------------------------------------------------------ #
    def add(self, job: Job, current_cluster: Optional[str], current_ect: float) -> None:
        """Register a candidate and compute its ECT on every fitting cluster."""
        ects: Dict[str, float] = {}
        for name, server in self._servers.items():
            if not server.fits_now(job):
                continue
            if name == current_cluster and job.state is JobState.WAITING:
                ects[name] = current_ect
            else:
                ects[name] = server.estimate_completion(job)
        self._insert(job, ects, current_cluster, current_ect)

    def add_waiting_many(self, entries: Sequence[Tuple[Job, float]]) -> None:
        """Batched Algorithm 1 build: ``(job, planned completion)`` pairs.

        Equivalent to calling :meth:`add` once per waiting job, but every
        foreign cluster's column is estimated in one
        :meth:`~BatchServer.estimate_completion_many` batch.
        """
        ects_of: Dict[int, Dict[str, float]] = {job.job_id: {} for job, _ in entries}
        for name, server in self._servers.items():
            batch: List[Job] = []
            for job, planned in entries:
                if not server.fits_now(job):
                    continue
                if name == job.cluster and job.state is JobState.WAITING:
                    ects_of[job.job_id][name] = planned
                else:
                    batch.append(job)
            for job, value in zip(batch, server.estimate_completion_many(batch)):
                ects_of[job.job_id][name] = value
        for job, planned in entries:
            self._insert(job, ects_of[job.job_id], job.cluster, planned)

    def add_cancelled(self, job: Job, origin: str) -> None:
        """Register a just-cancelled candidate (Algorithm 2 path).

        A cancelled job no longer occupies a queue slot anywhere, so its
        "current" ECT *is* the estimate of resubmitting it to the cluster
        it came from — which :meth:`add` would compute a second time after
        the caller pre-computed it for the ``current_ect`` argument.
        Building the tick's table directly from the cancelled set computes
        every (job, cluster) estimate exactly once.
        """
        ects: Dict[str, float] = {
            name: server.estimate_completion(job)
            for name, server in self._servers.items()
            if server.fits_now(job)
        }
        self._insert(job, ects, origin, ects.get(origin, math.inf))

    def add_cancelled_many(self, jobs: Sequence[Job], origin_of: Mapping[int, str]) -> None:
        """Batched Algorithm 2 build over the whole cancelled set."""
        ects_of: Dict[int, Dict[str, float]] = {job.job_id: {} for job in jobs}
        for name, server in self._servers.items():
            batch = [job for job in jobs if server.fits_now(job)]
            for job, value in zip(batch, server.estimate_completion_many(batch)):
                ects_of[job.job_id][name] = value
        for job in jobs:
            ects = ects_of[job.job_id]
            origin = origin_of[job.job_id]
            self._insert(job, ects, origin, ects.get(origin, math.inf))

    def _insert(
        self,
        job: Job,
        ects: Dict[str, float],
        current_cluster: Optional[str],
        current_ect: float,
    ) -> None:
        self._jobs[job.job_id] = job
        self._matrix.add_row(
            job.job_id, job.submit_time, job.procs, ects, current_cluster, current_ect
        )

    # ------------------------------------------------------------------ #
    # Selection-loop operations                                          #
    # ------------------------------------------------------------------ #
    def discard(self, job_id: int) -> None:
        """Remove a candidate from every subsequent selection."""
        self._jobs.pop(job_id, None)
        self._matrix.discard_job(job_id)

    def select(self, heuristic: Heuristic) -> int:
        """Vectorised pick over the alive rows; returns the chosen job id."""
        return self._matrix.job_id_at(heuristic.select_index(self._matrix))

    def estimate_of(self, job_id: int) -> JobEstimate:
        """Materialise the :class:`JobEstimate` of one candidate."""
        row = self._matrix.row_of(job_id)
        current_cluster, current_ect = self._matrix.current_of(row)
        return JobEstimate(
            job=self._jobs[job_id],
            current_cluster=current_cluster,
            current_ect=current_ect,
            ects=self._matrix.row_ects(row),
        )

    def refresh_clusters(self, cluster_names: Iterable[str]) -> None:
        """Recompute the ECTs of every candidate on the given clusters only.

        A candidate that no longer fits on a touched cluster has its old
        entry stale-pruned from the matrix (historically the outdated ECT
        survived the refresh); a pruned entry that was the candidate's
        "current" resubmission target degrades its current ECT to ``inf``.

        Each touched column is written in one vectorised
        :meth:`~repro.core.estimation.EstimateMatrix.write_column`; only
        the estimates themselves are per-job work.
        """
        names: Set[str] = {n for n in cluster_names if n in self._servers}
        if not names:
            return
        matrix = self._matrix
        rows = matrix.alive_rows()
        if rows.size == 0:
            return
        jobs = [self._jobs[job_id] for job_id in matrix.job_ids(rows).tolist()]
        current_cols = matrix.current_cols(rows)
        for name in names:
            server = self._servers[name]
            fits = np.array([server.fits_now(job) for job in jobs], dtype=bool)
            at_current = current_cols == matrix.col_index[name]
            waiting_here = np.zeros(len(jobs), dtype=bool)
            for index in np.flatnonzero(at_current).tolist():
                job = jobs[index]
                waiting_here[index] = job.state is JobState.WAITING and job.cluster == name
            values = np.full(len(jobs), math.inf)
            # Algorithm 1 candidates still waiting on the touched cluster:
            # their entry is their new planned completion.
            for index in np.flatnonzero(fits & waiting_here).tolist():
                values[index] = server.planned_completion(jobs[index])
            batch = np.flatnonzero(fits & ~waiting_here)
            values[batch] = server.estimate_completion_many(
                [jobs[index] for index in batch.tolist()]
            )
            matrix.write_column(rows, name, values, fits)
            # The current ECT follows the entry: the new planned completion
            # of a job waiting here, the resubmission estimate of an
            # Algorithm 2 candidate cancelled from here, or ``inf`` once
            # that origin can no longer take it back.  A job waiting here
            # that no longer fits keeps its current ECT.
            follow = at_current & (fits | ~waiting_here)
            matrix.set_current_ects(rows[follow], values[follow])

    def estimates(self, job_ids: Iterable[int]) -> List[JobEstimate]:
        """Materialise :class:`JobEstimate` objects for the given candidates.

        The differential-reference path: the selection loop itself only
        materialises the finally-selected job via :meth:`estimate_of`.
        """
        return [self.estimate_of(job_id) for job_id in job_ids]


class ReallocationEngine(_EstimateTable):
    """Persistent cross-tick estimate table with dirty-cluster invalidation.

    A fresh ``_EstimateTable`` build pays O(candidates × clusters)
    estimation queries at *every* tick, even when nothing changed since
    the last one.  The engine keeps the matrix alive across ticks and, at
    each tick, reconciles it with the new candidate set instead:

    * rows of departed candidates (started, completed, moved out of the
      waiting state) are masked out and eventually compacted away;
    * rows of returning candidates are revived with their cached entries;
    * only *dirty* clusters have their ECT column re-queried (through the
      same batched :meth:`BatchServer.estimate_completion_many` path a
      fresh build uses); brand-new candidates get a full fresh row.

    A cluster is **dirty** when either of two conditions holds:

    1. its :attr:`BatchServer.state_generation` moved since its column was
       last written — a submission, cancellation or replan (early
       completion, capacity change) changed the plan or residual profile,
       so any cached estimate against it may be stale;
    2. any cached entry of its column implies a hypothetical start before
       the current simulated time (``start = ect − walltime/speed``, with
       an ulp-scaled safety margin) — estimates are anchored at query
       time, and an entry starting in the past could not be reproduced by
       a fresh query issued now.

    Together these make cached reuse *exact*, not approximate: with an
    unchanged profile, ``earliest_slot`` is monotone in its ``earliest``
    argument, so a cached placement starting at or after ``now`` is
    precisely what a fresh query would return — the engine's decisions
    are float-identical to a rebuild's (the randomized cross-tick oracle
    in ``tests/test_reallocation_incremental.py`` enforces it).
    """

    #: Dead rows tolerated before the matrix is compacted.
    _GARBAGE_SLACK = 256

    def __init__(self, servers: Sequence[BatchServer]) -> None:
        super().__init__(servers)
        self._speeds = np.array(
            [server.speed for server in self._servers.values()], dtype=np.float64
        )
        self._synced_generation: Dict[str, int] = {}
        #: per-row walltimes, parallel to the matrix rows (start-time check)
        self._walltime = np.zeros(64, dtype=np.float64)
        #: statistics: column refreshes skipped thanks to clean clusters
        self.clean_columns_reused = 0
        self.sync_count = 0

    def _insert(
        self,
        job: Job,
        ects: Dict[str, float],
        current_cluster: Optional[str],
        current_ect: float,
    ) -> None:
        super()._insert(job, ects, current_cluster, current_ect)
        row = self._matrix.row_of(job.job_id)
        if row >= self._walltime.shape[0]:
            grown = np.zeros(
                max(self._walltime.shape[0] * 2, row + 1), dtype=np.float64
            )
            grown[: self._walltime.shape[0]] = self._walltime
            self._walltime = grown
        self._walltime[row] = job.walltime

    # ------------------------------------------------------------------ #
    # Cross-tick reconciliation                                          #
    # ------------------------------------------------------------------ #
    def _sync_rows(self, jobs: Sequence[Job]) -> Tuple[List[Job], List[Job]]:
        """Reconcile the row set with this tick's candidates.

        Masks out every row, revives the rows of returning candidates and
        garbage-collects the matrix once dead rows outnumber the live
        ones.  Returns ``(survivors, new)`` in candidate order.
        """
        matrix = self._matrix
        self._jobs = {job.job_id: job for job in jobs}
        survivors: List[Job] = []
        new: List[Job] = []
        rows: List[int] = []
        for job in jobs:
            if matrix.has_row(job.job_id):
                survivors.append(job)
                rows.append(matrix.row_of(job.job_id))
            else:
                new.append(job)
        matrix.discard_all()
        matrix.revive_rows(np.asarray(rows, dtype=np.intp))
        if matrix.n_rows - matrix.alive_count > max(
            self._GARBAGE_SLACK, matrix.alive_count
        ):
            kept = matrix.compact()
            self._walltime = self._walltime[kept]
        return survivors, new

    def _dirty_clusters(self, now: float) -> Set[str]:
        """Clusters whose cached ECT column cannot be reused at ``now``."""
        dirty = {
            name
            for name, server in self._servers.items()
            if self._synced_generation.get(name) != server.state_generation
        }
        matrix = self._matrix
        rows = matrix.alive_rows()
        if rows.size and len(dirty) < len(self._servers):
            ects = matrix.ects_block(rows)
            durations = self._walltime[rows][:, None] / self._speeds[None, :]
            with np.errstate(invalid="ignore"):
                starts = ects - durations - 4.0 * np.spacing(np.abs(ects))
            starts = np.where(np.isfinite(ects), starts, np.inf)
            for col in np.flatnonzero(np.min(starts, axis=0) < now):
                dirty.add(matrix.clusters[col])
        self.clean_columns_reused += len(self._servers) - len(dirty)
        return dirty

    def _record_generations(self) -> None:
        self._synced_generation = {
            name: server.state_generation for name, server in self._servers.items()
        }
        self.sync_count += 1

    def sync_waiting(
        self,
        jobs: Sequence[Job],
        planned_of: Callable[[Job], float],
        now: float,
    ) -> None:
        """Reconcile with an Algorithm 1 waiting snapshot.

        Afterwards every alive row is float-identical to what a fresh
        :meth:`_EstimateTable.add_waiting_many` build over ``jobs`` would
        hold; ``planned_of`` is only consulted for brand-new candidates.
        """
        survivors, new = self._sync_rows(jobs)
        dirty = self._dirty_clusters(now)
        matrix = self._matrix
        for job in survivors:
            row = matrix.row_of(job.job_id)
            current_cluster, _ = matrix.current_of(row)
            if current_cluster != job.cluster:
                # Moved by a previous tick: the destination saw a submit,
                # so its column is dirty and the refresh below overwrites
                # this placeholder with the real planned completion.
                matrix.set_current(row, job.cluster, math.inf)
        self.refresh_clusters(dirty)
        if new:
            self.add_waiting_many([(job, planned_of(job)) for job in new])
        self._record_generations()

    def sync_cancelled(
        self,
        jobs: Sequence[Job],
        origin_of: Mapping[int, str],
        now: float,
    ) -> None:
        """Reconcile with an Algorithm 2 cancelled set.

        Afterwards every alive row is float-identical to a fresh
        :meth:`_EstimateTable.add_cancelled_many` build: the cancels that
        produced ``jobs`` dirtied every origin, so each survivor's origin
        column — and with it the "current" resubmission estimate — is
        recomputed; only untouched foreign columns are reused.
        """
        survivors, new = self._sync_rows(jobs)
        dirty = self._dirty_clusters(now)
        matrix = self._matrix
        for job in survivors:
            # The cancel of this job bumped its origin's generation, so the
            # refresh below replaces this placeholder with the origin's
            # fresh resubmission estimate (or leaves inf if it fits no
            # longer), exactly like a fresh add_cancelled_many build.
            matrix.set_current(
                matrix.row_of(job.job_id), origin_of[job.job_id], math.inf
            )
        self.refresh_clusters(dirty)
        if new:
            self.add_cancelled_many(new, origin_of)
        self._record_generations()


class ReallocationAgent:
    """Periodic reallocation of waiting jobs between clusters.

    Parameters
    ----------
    kernel:
        Simulation kernel used to schedule the periodic ticks.
    servers:
        Batch servers of the platform.
    heuristic:
        Job-selection heuristic (name or :class:`Heuristic` instance).
    algorithm:
        Algorithm 1 (``standard``) or Algorithm 2 (``cancellation``).
    period:
        Seconds between ticks (3600 in the paper).
    threshold:
        Minimum ECT improvement, in seconds, required to move a job in
        Algorithm 1 (60 in the paper).
    has_pending_work:
        Callable returning True while the simulation still has unfinished
        jobs; the agent stops rescheduling itself once it returns False.
    incremental:
        When True (the default) the agent owns a persistent
        :class:`ReallocationEngine` and each tick reconciles it instead of
        rebuilding the estimate table from scratch; the decisions are
        float-identical either way (``False`` keeps the historical rebuild
        path, used as the differential reference oracle).
    """

    def __init__(
        self,
        kernel: SimulationKernel,
        servers: Sequence[BatchServer],
        heuristic: "str | Heuristic" = "mct",
        algorithm: "ReallocationAlgorithm | str" = ReallocationAlgorithm.STANDARD,
        period: float = DEFAULT_PERIOD,
        threshold: float = DEFAULT_THRESHOLD,
        has_pending_work: Optional[Callable[[], bool]] = None,
        incremental: bool = True,
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        if not servers:
            raise ValueError("ReallocationAgent needs at least one batch server")
        self.kernel = kernel
        self.servers: List[BatchServer] = list(servers)
        self._servers_by_name: Dict[str, BatchServer] = {s.name: s for s in self.servers}
        self.heuristic = get_heuristic(heuristic)
        if isinstance(algorithm, str):
            algorithm = ReallocationAlgorithm(algorithm.lower())
        self.algorithm = algorithm
        self.period = float(period)
        self.threshold = float(threshold)
        self.has_pending_work = has_pending_work
        self.incremental = bool(incremental)
        self._engine: Optional[ReallocationEngine] = (
            ReallocationEngine(self.servers) if self.incremental else None
        )
        #: total number of job moves (a job moved twice counts twice)
        self.total_reallocations = 0
        #: moves made by Algorithm 1 (tuning) ticks
        self.tuned_moves = 0
        #: jobs cancelled-and-resubmitted by Algorithm 2 ticks
        self.cancelled_resubmissions = 0
        #: number of reallocation ticks that fired
        self.tick_count = 0
        self._started = False

    @property
    def engine(self) -> Optional[ReallocationEngine]:
        """The persistent estimate table (``None`` in rebuild mode)."""
        return self._engine

    # ------------------------------------------------------------------ #
    # Tick scheduling                                                    #
    # ------------------------------------------------------------------ #
    def start(self, first_submit_time: float) -> None:
        """Schedule the first tick one period after the first submission."""
        if self._started:
            return
        self._started = True
        first_tick = max(first_submit_time, self.kernel.now) + self.period
        self.kernel.schedule_at(first_tick, self._tick, event_type=EventType.REALLOCATION)

    def _tick(self) -> None:
        self.tick_count += 1
        self.run_once()
        if self.has_pending_work is None or self.has_pending_work():
            self.kernel.schedule_in(self.period, self._tick, event_type=EventType.REALLOCATION)

    # ------------------------------------------------------------------ #
    # One reallocation event                                             #
    # ------------------------------------------------------------------ #
    def run_once(self) -> int:
        """Run one reallocation event now; returns the number of moves."""
        if not any(server.queue_length for server in self.servers):
            # Early exit: with no job waiting anywhere neither algorithm
            # can act, so skip the table build (and sync) outright.  This
            # is observationally identical to running the loop over an
            # empty candidate set — estimates are pure queries.
            return 0
        if self.algorithm is ReallocationAlgorithm.STANDARD:
            moves = (
                self._run_standard_incremental()
                if self._engine is not None
                else self._run_standard()
            )
            self.tuned_moves += moves
            return moves
        if self._engine is not None:
            return self._run_cancellation_incremental()
        return self._run_cancellation()

    def _collect_waiting(self) -> List[Job]:
        """Snapshot of all waiting jobs, over all clusters, in queue order."""
        waiting: List[Job] = []
        for server in self.servers:
            waiting.extend(server.waiting_jobs())
        return waiting

    # -- Algorithm 1 ----------------------------------------------------- #
    def _run_standard(self) -> int:
        moves = 0
        snapshot = self._collect_waiting()
        table = _EstimateTable(self.servers)
        table.add_waiting_many(
            [
                (job, self._servers_by_name[job.cluster].planned_completion(job))
                for job in snapshot
            ]
        )

        prune = True
        while table.alive_count:
            # Prune candidates that started meanwhile (cancelling a queue
            # head can let the local scheduler start jobs behind it).  Job
            # states only change in a move's cancel and submit, so the scan
            # runs once up front and once after each move.
            if prune:
                prune = False
                for candidate in table.alive_jobs():
                    if candidate.state is not JobState.WAITING:
                        table.discard(candidate.job_id)
                if not table.alive_count:
                    break
            # The selection is a vectorised argmin over the matrix rows;
            # only the winner is materialised as a JobEstimate.
            chosen = table.estimate_of(table.select(self.heuristic))
            job = chosen.job
            new_cluster = chosen.best_other_cluster
            new_ect = chosen.best_other_ect
            table.discard(job.job_id)
            if (
                new_cluster is not None
                and math.isfinite(new_ect)
                and new_ect + self.threshold < chosen.current_ect
            ):
                origin_name = job.cluster
                origin = self._servers_by_name[origin_name]
                destination = self._servers_by_name[new_cluster]
                origin.cancel(job)
                destination.submit(job)
                job.reallocation_count += 1
                self.total_reallocations += 1
                moves += 1
                prune = True
                table.refresh_clusters({origin_name, new_cluster})
        return moves

    # -- Algorithm 2 ----------------------------------------------------- #
    def _run_cancellation(self) -> int:
        moves = 0
        snapshot = self._collect_waiting()
        previous_cluster: Dict[int, str] = {}
        cancelled: List[Job] = []
        for job in snapshot:
            # A job may start while earlier jobs of the snapshot are being
            # cancelled; it then stays where it is.
            if job.state is not JobState.WAITING or job.cluster is None:
                continue
            previous_cluster[job.job_id] = job.cluster
            self._servers_by_name[job.cluster].cancel(job)
            cancelled.append(job)
        self.cancelled_resubmissions += len(cancelled)

        # One table serves the whole tick: every (job, cluster) estimate of
        # the cancelled set is computed exactly once here — one batched
        # column query per cluster — then only the clusters touched by a
        # resubmission are refreshed.
        table = _EstimateTable(self.servers)
        table.add_cancelled_many(cancelled, previous_cluster)

        while table.alive_count:
            chosen = table.estimate_of(table.select(self.heuristic))
            job = chosen.job
            target_name = chosen.best_cluster
            if target_name is None:
                # Fits nowhere (cannot happen for jobs that were waiting, but
                # keep the queue consistent by putting it back where it was).
                target_name = previous_cluster[job.job_id]
            target = self._servers_by_name[target_name]
            target.submit(job)
            if target_name != previous_cluster[job.job_id]:
                job.reallocation_count += 1
                self.total_reallocations += 1
                moves += 1
            table.discard(job.job_id)
            table.refresh_clusters({target_name})
        return moves

    # -- Incremental-engine ticks ---------------------------------------- #
    def _run_standard_incremental(self) -> int:
        """Algorithm 1 over the persistent engine, drained vectorised.

        The decision loop walks the heuristic's full lexicographic order
        once per move: between two moves nothing mutates, so discarding
        every non-mover up to the first row whose batched best-vs-current
        comparison passes the threshold is exactly the reference loop's
        select → discard → test sequence.  A tick that moves nothing costs
        one lexsort and one vectorised comparison — no per-job work at
        all.
        """
        engine = self._engine
        assert engine is not None
        engine.sync_waiting(
            self._collect_waiting(),
            lambda job: self._servers_by_name[job.cluster].planned_completion(job),
            self.kernel.now,
        )
        matrix = engine.matrix
        moves = 0
        remaining = matrix.alive_rows()
        while remaining.size:
            # Prune candidates that started meanwhile (cancelling a queue
            # head can let the local scheduler start jobs behind it).
            keep = np.fromiter(
                (
                    engine.job_of(matrix.job_id_at(int(row))).state is JobState.WAITING
                    for row in remaining
                ),
                dtype=bool,
                count=remaining.size,
            )
            if not keep.all():
                for row in remaining[~keep]:
                    engine.discard(matrix.job_id_at(int(row)))
                remaining = remaining[keep]
                if remaining.size == 0:
                    break
            keys = self.heuristic.key_array(matrix, remaining)
            order = np.lexsort(
                (matrix.job_ids(remaining), matrix.submit_times(remaining), keys)
            )
            other_cols, other_ects = matrix.best_other_cols(remaining)
            current_ects = matrix.current_ects(remaining)
            movable = (
                (other_cols >= 0)
                & np.isfinite(other_ects)
                & (other_ects + self.threshold < current_ects)
            )
            hits = np.flatnonzero(movable[order])
            ordered_rows = remaining[order]
            if hits.size == 0:
                for row in ordered_rows:
                    engine.discard(matrix.job_id_at(int(row)))
                break
            mover_index = int(hits[0])
            mover_row = int(ordered_rows[mover_index])
            job = engine.job_of(matrix.job_id_at(mover_row))
            new_cluster = matrix.clusters[int(other_cols[int(order[mover_index])])]
            for row in ordered_rows[: mover_index + 1]:
                engine.discard(matrix.job_id_at(int(row)))
            origin_name = job.cluster
            self._servers_by_name[origin_name].cancel(job)
            self._servers_by_name[new_cluster].submit(job)
            job.reallocation_count += 1
            self.total_reallocations += 1
            moves += 1
            engine.refresh_clusters({origin_name, new_cluster})
            remaining = ordered_rows[mover_index + 1 :]
        return moves

    def _run_cancellation_incremental(self) -> int:
        """Algorithm 2 over the persistent engine.

        The cancel step empties each queue, in server order, through
        :meth:`BatchServer.cancel_waiting`: the same cascade as the
        rebuild path's per-job loop, without one suffix replan per job.
        """
        engine = self._engine
        assert engine is not None
        previous_cluster: Dict[int, str] = {}
        cancelled: List[Job] = []
        for server in self.servers:
            for job in server.cancel_waiting():
                previous_cluster[job.job_id] = server.name
                cancelled.append(job)
        self.cancelled_resubmissions += len(cancelled)
        engine.sync_cancelled(cancelled, previous_cluster, self.kernel.now)
        if self.heuristic.online:
            return self._drain_cancellation_online(engine, previous_cluster)
        return self._drain_cancellation_batch(engine, previous_cluster)

    def _drain_cancellation_online(
        self, engine: ReallocationEngine, previous_cluster: Dict[int, str]
    ) -> int:
        """Row-lazy Algorithm 2 drain for the online heuristics.

        An online heuristic's visit order ignores the ECTs, so it is fixed
        by one lexsort up front; and each placement decision reads only
        the visited row's own entries.  Instead of refreshing the touched
        column over *all* remaining rows after every resubmission (the
        reference's O(n²) estimate storm), each row is refreshed lazily at
        its visit, only on the clusters touched since its entries were
        last written — O(n × clusters) estimates per tick.  The decisions
        are identical: estimates are pure queries, so recomputing an entry
        once at visit time yields the exact value the reference's
        last column refresh wrote.
        """
        matrix = engine.matrix
        rows = matrix.alive_rows()
        if rows.size == 0:
            return 0
        keys = self.heuristic.key_array(matrix, rows)
        order = np.lexsort((matrix.job_ids(rows), matrix.submit_times(rows), keys))
        row_epoch = np.zeros(matrix.n_rows, dtype=np.int64)
        cluster_epoch: Dict[str, int] = {}
        epoch = 0
        moves = 0
        single = np.zeros(1, dtype=np.intp)
        for row in rows[order]:
            row = int(row)
            job = engine.job_of(matrix.job_id_at(row))
            last_seen = int(row_epoch[row])
            for name, stamp in cluster_epoch.items():
                if stamp <= last_seen:
                    continue
                server = self._servers_by_name[name]
                current_cluster, _ = matrix.current_of(row)
                if not server.fits_now(job):
                    matrix.clear_entry(row, name)
                    if name == current_cluster:
                        matrix.set_current(row, current_cluster, math.inf)
                    continue
                value = server.estimate_completion(job)
                matrix.set_entry(row, name, value)
                if name == current_cluster:
                    matrix.set_current(row, current_cluster, value)
            row_epoch[row] = epoch
            single[0] = row
            cols, _ = matrix.best_cols(single)
            col = int(cols[0])
            target_name = (
                matrix.clusters[col] if col >= 0 else previous_cluster[job.job_id]
            )
            self._servers_by_name[target_name].submit(job)
            if target_name != previous_cluster[job.job_id]:
                job.reallocation_count += 1
                self.total_reallocations += 1
                moves += 1
            engine.discard(job.job_id)
            epoch += 1
            cluster_epoch[target_name] = epoch
        return moves

    def _drain_cancellation_batch(
        self, engine: ReallocationEngine, previous_cluster: Dict[int, str]
    ) -> int:
        """Per-step vectorised Algorithm 2 drain for the ECT heuristics.

        The offline heuristics read the ECTs to *order* the candidates, so
        every resubmission must refresh the touched column over all
        remaining rows before the next selection — the inherent O(n²) the
        paper quotes.  The win over the reference loop is per-step: the
        selection is the vectorised key argmin and the target pick reads
        the matrix row directly, with no ``JobEstimate`` materialisation.
        """
        matrix = engine.matrix
        moves = 0
        single = np.zeros(1, dtype=np.intp)
        while matrix.alive_count:
            row = self.heuristic.select_index(matrix)
            job = engine.job_of(matrix.job_id_at(row))
            single[0] = row
            cols, _ = matrix.best_cols(single)
            col = int(cols[0])
            target_name = (
                matrix.clusters[col] if col >= 0 else previous_cluster[job.job_id]
            )
            self._servers_by_name[target_name].submit(job)
            if target_name != previous_cluster[job.job_id]:
                job.reallocation_count += 1
                self.total_reallocations += 1
                moves += 1
            engine.discard(job.job_id)
            engine.refresh_clusters({target_name})
        return moves

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReallocationAgent(algorithm={self.algorithm}, heuristic={self.heuristic.name}, "
            f"period={self.period}, moves={self.total_reallocations})"
        )
