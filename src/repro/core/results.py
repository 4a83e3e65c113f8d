"""Result containers produced by the grid simulation.

A :class:`RunResult` is the immutable outcome of one simulated experiment:
the final state of every job of the trace plus run-level counters (number
of reallocations, simulated makespan, ...).  The evaluation metrics of the
paper (:mod:`repro.core.metrics`) are computed by comparing two
``RunResult`` objects over the same trace — one with reallocation, one
without.

A result is always backed by a :class:`~repro.batch.jobtable.JobTable`:
:meth:`RunResult.from_jobs` hands the final job state to the table in
bulk, the store serializes the table's columns directly, and the
aggregate metrics are NumPy reductions.  The object world — one
:class:`JobRecord` per job — is materialised *lazily*: per id on
:meth:`RunResult.__getitem__`, per chunk on iteration, and as a cached
read-only mapping only when :attr:`RunResult.records` is actually read.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Dict, Iterable, Iterator, Mapping, Optional

import numpy as np

from repro.batch.job import Job, JobState
from repro.batch.jobtable import JobTable


@dataclass(frozen=True, slots=True)
class JobRecord:
    """Final state of one job at the end of a run."""

    job_id: int
    submit_time: float
    procs: int
    runtime: float
    walltime: float
    origin_site: Optional[str]
    final_cluster: Optional[str]
    start_time: Optional[float]
    completion_time: Optional[float]
    state: JobState
    killed: bool
    reallocation_count: int
    outage_kills: int = 0

    @property
    def response_time(self) -> Optional[float]:
        """Completion minus submission, or ``None`` for unfinished jobs."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.submit_time

    @property
    def wait_time(self) -> Optional[float]:
        """Start minus submission, or ``None`` for jobs that never started."""
        if self.start_time is None:
            return None
        return self.start_time - self.submit_time

    @classmethod
    def from_job(cls, job: Job) -> "JobRecord":
        """Snapshot the final state of a live :class:`~repro.batch.job.Job`."""
        return cls(
            job_id=job.job_id,
            submit_time=job.submit_time,
            procs=job.procs,
            runtime=job.runtime,
            walltime=job.walltime,
            origin_site=job.origin_site,
            final_cluster=job.cluster,
            start_time=job.start_time,
            completion_time=job.completion_time,
            state=job.state,
            killed=job.killed,
            reallocation_count=job.reallocation_count,
            outage_kills=job.outage_kills,
        )


class RunResult:
    """Outcome of one simulated experiment.

    Parameters
    ----------
    label:
        Human-readable description of the configuration.
    table:
        Columnar :class:`~repro.batch.jobtable.JobTable` holding the final
        state of every job (empty when omitted).  Counts, makespans and
        comparisons are NumPy reductions over it; :class:`JobRecord`
        objects are materialised only on demand.
    total_reallocations:
        Number of job moves performed by the reallocation agent (0 for the
        baseline runs).
    reallocation_events:
        Number of reallocation ticks that fired.
    makespan:
        Simulated time at which the last job completed.
    jobs_killed_by_outage:
        Disruption accounting: running jobs killed by capacity shrinks
        (a job killed by two outages counts twice).
    jobs_requeued:
        Outage-killed jobs re-entered at the head of their queue.
    work_lost:
        Core-seconds of execution thrown away by outage kills.
    metadata:
        Free-form configuration details (scenario, platform, policy, ...).
    """

    __slots__ = (
        "label",
        "total_reallocations",
        "reallocation_events",
        "makespan",
        "jobs_killed_by_outage",
        "jobs_requeued",
        "work_lost",
        "metadata",
        "_records",
        "_table",
        "_row_index",
    )

    def __init__(
        self,
        label: str,
        *,
        table: Optional[JobTable] = None,
        total_reallocations: int = 0,
        reallocation_events: int = 0,
        makespan: float = 0.0,
        jobs_killed_by_outage: int = 0,
        jobs_requeued: int = 0,
        work_lost: float = 0.0,
        metadata: Optional[Dict[str, object]] = None,
    ) -> None:
        self.label = label
        self.total_reallocations = total_reallocations
        self.reallocation_events = reallocation_events
        self.makespan = makespan
        self.jobs_killed_by_outage = jobs_killed_by_outage
        self.jobs_requeued = jobs_requeued
        self.work_lost = work_lost
        self.metadata: Dict[str, object] = metadata if metadata is not None else {}
        self._table = table if table is not None else JobTable()
        self._records: Optional[Mapping[int, JobRecord]] = None
        self._row_index: Optional[Dict[int, int]] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RunResult(label={self.label!r}, jobs={len(self)}, "
            f"reallocations={self.total_reallocations}, makespan={self.makespan})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunResult):
            return NotImplemented
        return (
            self.label == other.label
            and self.total_reallocations == other.total_reallocations
            and self.reallocation_events == other.reallocation_events
            and self.makespan == other.makespan
            and self.jobs_killed_by_outage == other.jobs_killed_by_outage
            and self.jobs_requeued == other.jobs_requeued
            and self.work_lost == other.work_lost
            and self.metadata == other.metadata
            and self.records == other.records
        )

    # ------------------------------------------------------------------ #
    # Construction                                                       #
    # ------------------------------------------------------------------ #
    @classmethod
    def from_jobs(
        cls,
        label: str,
        jobs: Iterable[Job],
        total_reallocations: int = 0,
        reallocation_events: int = 0,
        jobs_killed_by_outage: int = 0,
        jobs_requeued: int = 0,
        work_lost: float = 0.0,
        metadata: Optional[Mapping[str, object]] = None,
    ) -> "RunResult":
        """Build a result from the final state of the trace's jobs.

        The jobs are snapshot *in bulk* into a columnar
        :class:`~repro.batch.jobtable.JobTable` (one row append per job,
        outcome columns written unconditionally — the final state is
        definitive); no per-job :class:`JobRecord` is materialised.
        """
        table = JobTable()
        for job in jobs:
            table.add_job(job, final=True)
        return cls.from_table(
            label,
            table,
            total_reallocations=total_reallocations,
            reallocation_events=reallocation_events,
            jobs_killed_by_outage=jobs_killed_by_outage,
            jobs_requeued=jobs_requeued,
            work_lost=work_lost,
            metadata=metadata,
        )

    @classmethod
    def from_table(
        cls,
        label: str,
        table: JobTable,
        total_reallocations: int = 0,
        reallocation_events: int = 0,
        jobs_killed_by_outage: int = 0,
        jobs_requeued: int = 0,
        work_lost: float = 0.0,
        metadata: Optional[Mapping[str, object]] = None,
    ) -> "RunResult":
        """Adopt a columnar :class:`~repro.batch.jobtable.JobTable` as backing.

        Zero copies: the result *owns* the table from here on, and the
        makespan is one vectorised reduction over its completion column.
        """
        return cls(
            label,
            table=table,
            total_reallocations=total_reallocations,
            reallocation_events=reallocation_events,
            makespan=table.makespan(),
            jobs_killed_by_outage=jobs_killed_by_outage,
            jobs_requeued=jobs_requeued,
            work_lost=work_lost,
            metadata=dict(metadata or {}),
        )

    @property
    def records(self) -> Mapping[int, JobRecord]:
        """Read-only mapping from job id to :class:`JobRecord`.

        Materialises (and caches) one record per row on first read.  The
        zero-object paths (:meth:`to_table`, the aggregate counts, the
        metric comparisons) never touch it.
        """
        if self._records is None:
            self._records = MappingProxyType({record.job_id: record for record in self})
        return self._records

    def to_table(self) -> JobTable:
        """The result's own columnar table (zero copies, simulation order).

        Aggregate metrics (counts, response-time means, makespan) are
        NumPy reductions over it — the form
        :func:`repro.core.metrics.compare_tables` consumes.
        """
        return self._table

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON representation, serialized straight from the columns.

        Records are emitted in ascending job-id order
        (:meth:`~repro.batch.jobtable.JobTable.record_dicts`) so the
        serialized form of a result is canonical: two equal results
        produce identical JSON documents.
        """
        return {
            "label": self.label,
            "total_reallocations": self.total_reallocations,
            "reallocation_events": self.reallocation_events,
            "makespan": self.makespan,
            "jobs_killed_by_outage": self.jobs_killed_by_outage,
            "jobs_requeued": self.jobs_requeued,
            "work_lost": self.work_lost,
            "metadata": dict(self.metadata),
            "records": self._table.record_dicts(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunResult":
        """Inverse of :meth:`to_dict` (columnar: no records are built)."""
        return cls(
            data["label"],
            table=JobTable.from_record_dicts(data["records"]),
            total_reallocations=int(data["total_reallocations"]),
            reallocation_events=int(data["reallocation_events"]),
            makespan=float(data["makespan"]),
            jobs_killed_by_outage=int(data.get("jobs_killed_by_outage", 0)),
            jobs_requeued=int(data.get("jobs_requeued", 0)),
            work_lost=float(data.get("work_lost", 0.0)),
            metadata=dict(data["metadata"]),
        )

    # ------------------------------------------------------------------ #
    # Access                                                             #
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._table)

    def __iter__(self) -> Iterator[JobRecord]:
        if len(self._table) == 0:
            return
        for chunk in self._table.records():
            yield from chunk

    def __getitem__(self, job_id: int) -> JobRecord:
        if self._row_index is None:
            self._row_index = {
                jid: i for i, jid in enumerate(self._table.job_id.tolist())
            }
        return self._table.record(self._row_index[job_id])

    @property
    def completed_count(self) -> int:
        """Number of jobs that finished."""
        return self._table.completed_count

    @property
    def rejected_count(self) -> int:
        """Number of jobs that fit on no cluster of the platform."""
        return self._table.rejected_count

    @property
    def killed_count(self) -> int:
        """Number of jobs killed at their walltime."""
        return self._table.killed_count

    @property
    def disrupted_count(self) -> int:
        """Number of distinct jobs killed at least once by an outage."""
        return self._table.disrupted_count

    def completion_times(self) -> Dict[int, float]:
        """Job id -> completion time, for completed jobs only."""
        completion = self._table.completion_time
        if completion is None:
            return {}
        mask = ~np.isnan(completion)
        return dict(zip(self._table.job_id[mask].tolist(), completion[mask].tolist()))

    def response_times(self) -> Dict[int, float]:
        """Job id -> response time, for completed jobs only."""
        table = self._table
        completion = table.completion_time
        if completion is None:
            return {}
        mask = ~np.isnan(completion)
        return dict(
            zip(
                table.job_id[mask].tolist(),
                (completion[mask] - table.submit_time[mask]).tolist(),
            )
        )

    def mean_response_time(self) -> float:
        """Mean response time over all completed jobs (0.0 if none completed)."""
        return self._table.mean_response_time()
