"""The long-running metascheduler service.

:class:`MetaSchedulerService` wraps the batch-simulation stack — one
:class:`~repro.batch.server.BatchServer` per cluster, the
:class:`~repro.grid.metascheduler.MetaScheduler` on top — in an asyncio
service loop that accepts a *continuous stream* of submissions instead of
a closed trace:

* **Bounded admission queue.**  :meth:`MetaSchedulerService.offer` is the
  synchronous fast path: it stamps the arrival, appends a
  :class:`Ticket` to a deque and returns; nothing is scheduled yet.  The
  queue is bounded (``max_queue``) and refuses work outright when full.
* **Batched admission per heartbeat.**  The admission loop drains up to
  ``admission_batch`` tickets per scheduler heartbeat and maps the whole
  batch through :meth:`MetaScheduler.submit_many` — one bulk ECT query
  per server instead of one scalar query per job per server.  This is
  where the columnar planner work of PRs 6-8 pays off: the shell adds a
  deque append and a ticket to each submission, the mapping cost is the
  bulk path's.
* **Explicit backpressure.**  Once the queue depth passes ``high_water``
  the service *engages backpressure*: :meth:`offer` rejects with
  :class:`SubmitRejected` (policy ``reject``) or :meth:`submit` awaits
  until the queue drains below ``low_water`` (policy ``await``).  The
  hysteresis prevents flapping at the mark.
* **Clean failure.**  If an admission pass raises, the loop stops: every
  ticket it can no longer admit ends ``failed``, later offers are refused,
  and :meth:`MetaSchedulerService.shutdown` re-raises the error.
* **Swappable clock.**  All timing goes through a
  :class:`~repro.service.clock.Clock`: virtual mode drives the simulation
  kernel as fast as the hardware allows (benchmarks, CI, tests), real
  mode follows the wall clock (an actual online service).

The service owns a registry of tickets for status/cancel queries.
Completed (and cancelled) tickets retire into a bounded history, and the
meta-scheduler's ``initial_mapping`` entries of retired jobs are dropped
with them — a service that has processed a hundred million jobs holds
state proportional to the *live* population plus the retention window,
not the full history.
"""

from __future__ import annotations

import asyncio
import enum
import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence

from repro.batch.job import Job, JobState
from repro.batch.server import BatchServer, BatchServerError
from repro.core.heuristics import HEURISTIC_NAMES
from repro.grid.metascheduler import MappingPolicy, MetaScheduler
from repro.grid.reallocation import (
    DEFAULT_PERIOD,
    DEFAULT_THRESHOLD,
    ReallocationAgent,
    check_timing,
)
from repro.platform.spec import PlatformSpec
from repro.service.clock import Clock, make_clock
from repro.sim.kernel import SimulationKernel


class SubmitRejected(RuntimeError):
    """An offered job was refused at the door (backpressure / full / closing)."""

    def __init__(self, reason: str, message: str) -> None:
        super().__init__(message)
        self.reason = reason


class BackpressurePolicy(enum.Enum):
    """What happens to submissions while backpressure is engaged."""

    REJECT = "reject"  #: refuse immediately with :class:`SubmitRejected`
    AWAIT = "await"  #: :meth:`MetaSchedulerService.submit` waits for drain

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class TicketState(enum.Enum):
    """Lifecycle of one submission inside the service."""

    QUEUED = "queued"  #: accepted, waiting in the admission queue
    WAITING = "waiting"  #: mapped to a cluster, waiting in its batch queue
    RUNNING = "running"  #: started on its cluster
    COMPLETED = "completed"  #: finished (normally or killed at walltime)
    CANCELLED = "cancelled"  #: cancelled before it started
    REJECTED = "rejected"  #: mapped to no cluster (fits nowhere)
    FAILED = "failed"  #: never mapped: the admission loop failed first


#: Job states that map one-to-one onto ticket states once admitted.
_JOB_TO_TICKET = {
    JobState.WAITING: TicketState.WAITING,
    JobState.RUNNING: TicketState.RUNNING,
    JobState.COMPLETED: TicketState.COMPLETED,
    JobState.CANCELLED: TicketState.CANCELLED,
    JobState.REJECTED: TicketState.REJECTED,
}


class Ticket:
    """One submission tracked by the service (status / cancel handle)."""

    __slots__ = (
        "job",
        "enqueued_at",
        "admitted_at",
        "admit_latency_s",
        "_queued_state",
        "_enqueued_perf",
    )

    def __init__(self, job: Job, enqueued_at: float) -> None:
        self.job = job
        #: service-clock time the submission entered the admission queue
        self.enqueued_at = enqueued_at
        #: service-clock time the submission was mapped (``None`` while queued)
        self.admitted_at: Optional[float] = None
        #: wall-clock seconds between enqueue and mapping (``None`` while queued)
        self.admit_latency_s: Optional[float] = None
        self._queued_state = TicketState.QUEUED
        self._enqueued_perf = time.perf_counter()

    @property
    def job_id(self) -> int:
        return self.job.job_id

    @property
    def admitted(self) -> bool:
        return self.admitted_at is not None

    @property
    def state(self) -> TicketState:
        """Current lifecycle state (delegates to the job once admitted)."""
        if not self.admitted:
            return self._queued_state
        return _JOB_TO_TICKET.get(self.job.state, TicketState.WAITING)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready status document (what ``GET /jobs/<id>`` returns)."""
        job = self.job
        return {
            "job_id": job.job_id,
            "state": self.state.value,
            "cluster": job.cluster,
            "procs": job.procs,
            "walltime": job.walltime,
            "enqueued_at": self.enqueued_at,
            "admitted_at": self.admitted_at,
            "admit_latency_s": self.admit_latency_s,
            "start_time": job.start_time,
            "completion_time": job.completion_time,
        }


@dataclass
class ServiceConfig:
    """Tunables of the service shell (all times in service-clock seconds)."""

    #: scheduler heartbeat: one admission pass per tick
    heartbeat: float = 0.05
    #: tickets mapped per admission pass (one bulk ECT query per server each)
    admission_batch: int = 512
    #: hard bound of the admission queue (offers beyond are refused)
    max_queue: int = 100_000
    #: queue depth at which backpressure engages
    high_water: int = 10_000
    #: queue depth at which engaged backpressure releases (hysteresis);
    #: defaults to half the high-water mark
    low_water: Optional[int] = None
    #: what happens to submissions while backpressure is engaged
    backpressure: "BackpressurePolicy | str" = BackpressurePolicy.REJECT
    #: completed/cancelled tickets kept for status queries (oldest evicted)
    completed_retention: int = 100_000
    #: recent admit latencies kept for the stats percentiles
    latency_window: int = 100_000
    #: service-clock seconds between reallocation heartbeats (``None``
    #: disables the engine — the default: reallocation is opt-in)
    reallocation_interval: Optional[float] = None
    #: the paper's Algorithm 1 (``"standard"``) or 2 (``"cancellation"``)
    reallocation_algorithm: str = "standard"
    #: heuristic ordering the reallocation scan (MCT, MinMin, ...)
    reallocation_heuristic: str = "mct"
    #: Algorithm 1 only moves a job when it gains more than this (seconds)
    reallocation_threshold: float = DEFAULT_THRESHOLD

    def __post_init__(self) -> None:
        if isinstance(self.backpressure, str):
            self.backpressure = BackpressurePolicy(self.backpressure.lower())
        if self.heartbeat < 0:
            raise ValueError(f"heartbeat must be >= 0, got {self.heartbeat}")
        if self.admission_batch <= 0:
            raise ValueError(f"admission_batch must be positive, got {self.admission_batch}")
        if self.max_queue <= 0:
            raise ValueError(f"max_queue must be positive, got {self.max_queue}")
        if self.high_water <= 0 or self.high_water > self.max_queue:
            raise ValueError(
                f"high_water must be in (0, max_queue], got {self.high_water}"
            )
        if self.low_water is None:
            self.low_water = max(1, self.high_water // 2)
        if not 0 < self.low_water <= self.high_water:
            raise ValueError(
                f"low_water must be in (0, high_water], got {self.low_water}"
            )
        if self.completed_retention < 0:
            raise ValueError(
                f"completed_retention must be >= 0, got {self.completed_retention}"
            )
        check_timing(
            DEFAULT_PERIOD
            if self.reallocation_interval is None
            else self.reallocation_interval,
            self.reallocation_threshold,
        )
        if self.reallocation_algorithm not in ("standard", "cancellation"):
            raise ValueError(
                "reallocation_algorithm must be 'standard' or 'cancellation', "
                f"got {self.reallocation_algorithm!r}"
            )
        if self.reallocation_heuristic not in HEURISTIC_NAMES:
            raise ValueError(
                f"unknown reallocation_heuristic {self.reallocation_heuristic!r}; "
                f"expected one of {HEURISTIC_NAMES}"
            )


class MetaSchedulerService:
    """Online metascheduler over a platform (see module docstring).

    Parameters
    ----------
    platform:
        Platform description; one batch server is built per cluster.
    batch_policy:
        Local scheduling policy of every cluster (FCFS or CBF).
    mapping_policy:
        Online mapping policy of the meta-scheduler (MCT by default).
    clock:
        ``"virtual"`` (simulated time, default), ``"real"`` (wall clock)
        or a prebuilt :class:`Clock` sharing the service's kernel.
    clock_rate:
        Simulated seconds per wall second in real mode.
    config:
        :class:`ServiceConfig` tunables.
    """

    def __init__(
        self,
        platform: PlatformSpec,
        batch_policy: str = "fcfs",
        mapping_policy: "MappingPolicy | str" = MappingPolicy.MCT,
        clock: "Clock | str" = "virtual",
        clock_rate: float = 1.0,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        self.platform = platform
        self.config = config if config is not None else ServiceConfig()
        self.kernel = SimulationKernel()
        if isinstance(clock, Clock):
            if clock.kernel is not self.kernel:  # pragma: no cover - defensive
                raise ValueError("a prebuilt clock must share the service kernel")
            self.clock = clock
        else:
            self.clock = make_clock(clock, self.kernel, rate=clock_rate)
        self.servers: List[BatchServer] = [
            BatchServer(
                self.kernel,
                spec.name,
                spec.procs,
                spec.speed,
                policy=batch_policy,
                on_completion=self._on_job_completion,
                timeline=spec.timeline,
            )
            for spec in platform
        ]
        # Retired tickets already call forget_mappings; the retention cap
        # is a second bound so the mapping dict cannot outgrow the ticket
        # registry even through code paths that bypass retirement.
        self.scheduler = MetaScheduler(
            self.servers,
            policy=mapping_policy,
            mapping_retention=self.config.completed_retention + self.config.max_queue,
        )
        # Live reallocation heartbeat (PR 9 follow-up): the agent's
        # persistent incremental engine re-tunes the waiting queues every
        # ``reallocation_interval`` service-clock seconds.  The agent is
        # never ``start()``-ed — the admission loop drives it directly, so
        # the same code path works under both clock modes.
        self._reallocator: Optional[ReallocationAgent] = None
        self._next_reallocation: Optional[float] = None
        self.reallocation_ticks = 0
        if self.config.reallocation_interval is not None:
            self._reallocator = ReallocationAgent(
                self.kernel,
                self.servers,
                heuristic=self.config.reallocation_heuristic,
                algorithm=self.config.reallocation_algorithm,
                period=self.config.reallocation_interval,
                threshold=self.config.reallocation_threshold,
            )

        # Admission pipeline state.
        self._pending: Deque[Ticket] = deque()
        self._cancelled_in_queue = 0
        self._registry: Dict[int, Ticket] = {}
        self._retired: Deque[int] = deque()
        self._next_job_id = 1
        self._closing = False
        #: the error that stopped the admission loop (``None`` while healthy)
        self._failure: Optional[Exception] = None
        self._task: Optional[asyncio.Task] = None
        self._wake = asyncio.Event()
        self._below_low_water = asyncio.Event()
        self._below_low_water.set()
        self.backpressure_engaged = False

        # Counters (monotonic over the service lifetime).
        self.accepted = 0
        self.admitted = 0
        self.completed = 0
        self.cancelled = 0
        self.rejected_unmappable = 0
        self.rejected_backpressure = 0
        self.rejected_full = 0
        self.rejected_closing = 0
        self.failed = 0
        self.backpressure_engagements = 0
        self.admission_passes = 0
        self._latencies: Deque[float] = deque(maxlen=self.config.latency_window)

    # ------------------------------------------------------------------ #
    # Introspection                                                      #
    # ------------------------------------------------------------------ #
    @property
    def queue_depth(self) -> int:
        """Live submissions waiting in the admission queue."""
        return len(self._pending) - self._cancelled_in_queue

    @property
    def in_flight(self) -> int:
        """Admitted jobs not yet completed, cancelled or rejected."""
        return self.admitted - self.completed - self.cancelled_after_admission \
            - self.rejected_unmappable

    @property
    def cancelled_after_admission(self) -> int:
        """Cancellations that removed a job from a cluster queue.

        Reallocation moves go through the same ``server.cancel`` path but
        immediately resubmit the job elsewhere — those cancels are backed
        out so a migrated job still counts as in flight.
        """
        total = sum(server.cancelled_count for server in self.servers)
        if self._reallocator is not None:
            total -= (
                self._reallocator.tuned_moves
                + self._reallocator.cancelled_resubmissions
            )
        return total

    def ticket(self, job_id: int) -> Ticket:
        """Ticket of a known job (raises ``KeyError`` for unknown ids)."""
        return self._registry[job_id]

    def health(self) -> Dict[str, object]:
        """Liveness document (what ``GET /health`` returns)."""
        return {
            "status": (
                "failed" if self._failure is not None
                else "draining" if self._closing else "ok"
            ),
            "clock": self.clock.mode,
            "now": self.clock.now(),
            "queue_depth": self.queue_depth,
            "in_flight": self.in_flight,
            "backpressure_engaged": self.backpressure_engaged,
            "clusters": {
                server.name: {
                    "up": server.is_up,
                    "capacity": server.capacity,
                    "waiting": server.queue_length,
                    "running": server.cluster.running_count,
                }
                for server in self.servers
            },
        }

    def stats(self) -> Dict[str, object]:
        """Counter snapshot (what ``GET /stats`` returns)."""
        latencies = sorted(self._latencies)
        document: Dict[str, object] = {
            "accepted": self.accepted,
            "admitted": self.admitted,
            "completed": self.completed,
            "cancelled": self.cancelled + self.cancelled_after_admission,
            "rejected_unmappable": self.rejected_unmappable,
            "rejected_backpressure": self.rejected_backpressure,
            "rejected_full": self.rejected_full,
            "rejected_closing": self.rejected_closing,
            "failed": self.failed,
            "queue_depth": self.queue_depth,
            "in_flight": self.in_flight,
            "admission_passes": self.admission_passes,
            "backpressure_engaged": self.backpressure_engaged,
            "backpressure_engagements": self.backpressure_engagements,
        }
        if latencies:
            document["admit_latency_s"] = {
                "p50": _percentile(latencies, 0.50),
                "p99": _percentile(latencies, 0.99),
                "max": latencies[-1],
                "samples": len(latencies),
            }
        if self._reallocator is not None:
            document["reallocation"] = {
                "interval": self.config.reallocation_interval,
                "algorithm": self.config.reallocation_algorithm,
                "heuristic": self.config.reallocation_heuristic,
                "ticks": self.reallocation_ticks,
                "tuned": self._reallocator.tuned_moves,
                "cancelled": self._reallocator.cancelled_resubmissions,
                "migrated": self._reallocator.total_reallocations,
            }
        return document

    # ------------------------------------------------------------------ #
    # Submission                                                         #
    # ------------------------------------------------------------------ #
    def offer(
        self,
        procs: int,
        runtime: float,
        walltime: Optional[float] = None,
    ) -> Ticket:
        """Accept one submission into the admission queue (fast, synchronous).

        Raises
        ------
        SubmitRejected
            When the service is shutting down or its admission loop
            failed, the queue is at its hard bound, or backpressure is
            engaged under the ``reject`` policy.
        ValueError
            On invalid job parameters (propagated from :class:`Job`).
        """
        if self._closing:
            self.rejected_closing += 1
            if self._failure is not None:
                raise SubmitRejected(
                    "failed", f"admission loop failed: {self._failure!r}"
                )
            raise SubmitRejected("closing", "service is shutting down")
        depth = self.queue_depth
        if depth >= self.config.max_queue:
            self.rejected_full += 1
            raise SubmitRejected(
                "queue-full", f"admission queue is at its bound ({self.config.max_queue})"
            )
        if depth >= self.config.high_water and not self.backpressure_engaged:
            self._engage_backpressure()
        if (
            self.backpressure_engaged
            and self.config.backpressure is BackpressurePolicy.REJECT
        ):
            self.rejected_backpressure += 1
            raise SubmitRejected(
                "backpressure",
                f"queue depth {depth} is past the high-water mark "
                f"({self.config.high_water})",
            )
        job_id = self._next_job_id
        self._next_job_id += 1
        job = Job(
            job_id=job_id,
            submit_time=self.clock.now(),
            procs=procs,
            runtime=runtime,
            walltime=walltime if walltime is not None else runtime,
        )
        ticket = Ticket(job, enqueued_at=job.submit_time)
        self._registry[job_id] = ticket
        self._pending.append(ticket)
        self.accepted += 1
        self._wake.set()
        return ticket

    async def submit(
        self,
        procs: int,
        runtime: float,
        walltime: Optional[float] = None,
    ) -> Ticket:
        """Awaitable :meth:`offer` honouring the ``await`` backpressure policy.

        Under the ``await`` policy the caller cooperatively blocks while
        backpressure is engaged and resumes once the queue drains below
        the low-water mark; under ``reject`` this is :meth:`offer`.
        """
        if self.config.backpressure is BackpressurePolicy.AWAIT:
            while self.backpressure_engaged and not self._closing:
                await self._below_low_water.wait()
        return self.offer(procs, runtime, walltime)

    def cancel(self, job_id: int) -> Ticket:
        """Cancel a queued or waiting job.

        Raises
        ------
        KeyError
            Unknown job id (never accepted, or already retired).
        ValueError
            The job already started or finished — the paper's model (and
            this service) only ever cancels jobs in the waiting state.
        """
        ticket = self._registry[job_id]
        state = ticket.state
        if state is TicketState.QUEUED:
            # Lazy removal: the admission loop skips cancelled tickets.
            ticket._queued_state = TicketState.CANCELLED
            self._cancelled_in_queue += 1
            self.cancelled += 1
            self._retire(ticket)
            return ticket
        if state is TicketState.WAITING:
            server = self.scheduler.server_by_name(ticket.job.cluster)
            try:
                server.cancel(ticket.job)
            except BatchServerError as exc:  # pragma: no cover - defensive
                raise ValueError(str(exc)) from exc
            self._retire(ticket)
            return ticket
        raise ValueError(f"job {job_id} is {state.value}; only queued or waiting jobs can be cancelled")

    # ------------------------------------------------------------------ #
    # Service loop                                                       #
    # ------------------------------------------------------------------ #
    def start(self) -> asyncio.Task:
        """Start the admission loop as an asyncio task (idempotent)."""
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(
                self._admission_loop(), name="repro-service-admission"
            )
        return self._task

    async def __aenter__(self) -> "MetaSchedulerService":
        self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.shutdown()

    async def shutdown(self, drain: bool = True) -> Dict[str, object]:
        """Stop accepting work and wind the service down.

        With ``drain`` (the default) every already-accepted submission is
        still admitted and mapped before the loop exits; without it the
        queued tickets are cancelled.  Jobs already waiting or running on
        clusters stay in flight — the returned document reports them, so
        a supervisor can hand the kernel to :meth:`run_until_idle` or
        persist state.  Idempotent.

        Raises the error that stopped the admission loop, if one did.
        """
        self._closing = True
        queued_cancelled = 0
        if not drain:
            for ticket in self._pending:
                if ticket.state is TicketState.QUEUED:
                    ticket._queued_state = TicketState.CANCELLED
                    self._cancelled_in_queue += 1
                    self.cancelled += 1
                    queued_cancelled += 1
                    self._retire(ticket)
        self._wake.set()
        # Release any submitter parked on the await-policy gate.
        self._below_low_water.set()
        if self._task is not None:
            await self._task
            self._task = None
        if self._failure is not None:
            raise self._failure
        return {
            "drained": drain,
            "queued_cancelled": queued_cancelled,
            "in_flight": self.in_flight,
            "accepted": self.accepted,
            "admitted": self.admitted,
            "completed": self.completed,
        }

    def run_until_idle(self, max_events: Optional[int] = None) -> int:
        """Drive the kernel until every in-flight job completed (virtual mode).

        Returns the number of events fired.  Only meaningful under the
        virtual clock (under a real clock the kernel follows wall time);
        used by tests and the ``repro serve`` shutdown path to finish
        jobs in flight after the admission loop stopped.
        """
        fired_before = self.kernel.fired_events
        if max_events is None:
            self.kernel.run()
        else:
            while self.kernel.pending_events and (
                self.kernel.fired_events - fired_before
            ) < max_events:
                self.kernel.step()
        return self.kernel.fired_events - fired_before

    async def _admission_loop(self) -> None:
        try:
            await self._admission_passes()
        except Exception as exc:
            self._fail(exc)

    async def _admission_passes(self) -> None:
        config = self.config
        pending = self._pending
        while True:
            batch: List[Ticket] = []
            while pending and len(batch) < config.admission_batch:
                ticket = pending.popleft()
                if ticket.state is TicketState.CANCELLED:
                    self._cancelled_in_queue -= 1
                    continue
                batch.append(ticket)
            if batch:
                self._admit(batch)
            self._update_backpressure()
            if self._reallocator is not None:
                self._maybe_reallocate()
            if self._closing and not pending:
                break
            if not pending and not self.kernel.pending_events:
                # Fully idle: no queued work and no scheduled events —
                # park until the next offer (or shutdown) instead of
                # spinning the virtual clock.
                self._wake.clear()
                await self._wake.wait()
                continue
            await self.clock.tick(config.heartbeat)

    def _maybe_reallocate(self) -> None:
        """Fire a reallocation tick when the interval elapsed.

        All-idle ticks are skipped entirely: when no cluster has a waiting
        job the interval is simply re-armed, without waking the engine.
        """
        now = self.clock.now()
        interval = self.config.reallocation_interval
        if self._next_reallocation is None:
            self._next_reallocation = now + interval
            return
        if now < self._next_reallocation:
            return
        self._next_reallocation = now + interval
        if any(server.queue_length for server in self.servers):
            self._reallocator.run_once()
            self.reallocation_ticks += 1

    def _admit(self, batch: List[Ticket]) -> None:
        """Map one admission batch through the bulk MCT path.

        A job the pass mapped (or rejected as unmappable) has left the
        ``PENDING`` state; its ticket is admitted even when the pass raises
        part-way, and the others stay queued for :meth:`_fail`.
        """
        self.admission_passes += 1
        try:
            self.scheduler.submit_many([ticket.job for ticket in batch])
        finally:
            admitted_at = self.clock.now()
            stamp = time.perf_counter()
            latencies = self._latencies
            for ticket in batch:
                state = ticket.job.state
                if state is JobState.PENDING:
                    continue
                ticket.admitted_at = admitted_at
                latency = stamp - ticket._enqueued_perf
                ticket.admit_latency_s = latency
                latencies.append(latency)
                self.admitted += 1
                if state is JobState.REJECTED:
                    self.rejected_unmappable += 1
                    self._retire(ticket)

    def _fail(self, error: Exception) -> None:
        """The admission loop died: fail every queued ticket, refuse new work.

        The tickets still queued — those of the pass that raised and the
        admission queue behind it — can no longer be admitted, so each
        ends ``failed`` and retires; the emptied queue reads depth 0.
        Offers are refused from now on, and :meth:`shutdown` re-raises
        ``error``.
        """
        self._failure = error
        self._closing = True
        stranded = [
            ticket for ticket in self._registry.values()
            if ticket.state is TicketState.QUEUED
        ]
        for ticket in stranded:
            ticket._queued_state = TicketState.FAILED
            self._retire(ticket)
        self.failed += len(stranded)
        self._pending.clear()
        self._cancelled_in_queue = 0
        self._below_low_water.set()

    def _engage_backpressure(self) -> None:
        self.backpressure_engaged = True
        self.backpressure_engagements += 1
        self._below_low_water.clear()

    def _update_backpressure(self) -> None:
        if self.backpressure_engaged and self.queue_depth <= self.config.low_water:
            self.backpressure_engaged = False
            self._below_low_water.set()

    # ------------------------------------------------------------------ #
    # Completion / retirement                                            #
    # ------------------------------------------------------------------ #
    def _on_job_completion(self, job: Job) -> None:
        self.completed += 1
        ticket = self._registry.get(job.job_id)
        if ticket is not None:
            self._retire(ticket)

    def _retire(self, ticket: Ticket) -> None:
        """Move a finished ticket into the bounded history window."""
        self._retired.append(ticket.job_id)
        retention = self.config.completed_retention
        while len(self._retired) > retention:
            job_id = self._retired.popleft()
            self._registry.pop(job_id, None)
            self.scheduler.forget_mappings(job_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetaSchedulerService({self.platform.name}, clock={self.clock.mode}, "
            f"queued={self.queue_depth}, in_flight={self.in_flight})"
        )


def _percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not sorted_values:
        return math.nan
    rank = max(0, min(len(sorted_values) - 1, math.ceil(fraction * len(sorted_values)) - 1))
    return sorted_values[rank]
