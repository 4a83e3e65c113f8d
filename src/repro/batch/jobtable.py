"""Columnar job storage: the structure-of-arrays companion of :class:`Job`.

A Python :class:`~repro.batch.job.Job` object costs hundreds of bytes and
one attribute walk per field read; at archive scale (10⁶–10⁷ records) the
objects alone dwarf the simulation state and every aggregation turns into
millions of attribute lookups.  :class:`JobTable` stores the same
information *columnar*, following the ``EstimateMatrix`` pattern from the
estimation engine:

* one NumPy column per static field — ``job_id``, ``submit_time``,
  ``procs``, ``runtime``, ``walltime`` — appended with capacity doubling;
* optional *outcome* columns (``start_time``, ``completion_time``,
  ``state``, ``killed``, ``reallocation_count``, ``outage_kills``) filled
  when the table snapshots finished runs, with ``NaN`` standing for the
  object world's ``None``;
* origin sites interned once into a small category list with per-row
  ``int32`` codes.

That is ~58 bytes per job instead of several hundred, and metric
aggregation (counts, means, response times) becomes a handful of NumPy
reductions instead of a per-object walk.  :meth:`from_jobs` consumes any
iterable — feed it the streaming :func:`~repro.workload.swf.iter_swf_file`
generator and a multi-year trace goes from gzip to columns without ever
existing as a list of objects — and :meth:`records` / :meth:`iter_jobs`
rebuild object views chunk by chunk when the object world is needed.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.batch.job import Job, JobState

#: Initial row capacity of a table (doubled on demand).
_INITIAL_CAPACITY = 1024

#: ``state`` column codes, in :class:`JobState` declaration order.
_STATE_ORDER: Tuple[JobState, ...] = tuple(JobState)
_STATE_CODE: Dict[JobState, int] = {state: i for i, state in enumerate(_STATE_ORDER)}
_STATE_CODE_BY_VALUE: Dict[str, int] = {
    state.value: code for state, code in _STATE_CODE.items()
}

#: Serialized column names and dtypes of the static fields, in layout order.
STATIC_COLUMNS: Tuple[Tuple[str, np.dtype], ...] = (
    ("job_id", np.dtype(np.int64)),
    ("submit_time", np.dtype(np.float64)),
    ("procs", np.dtype(np.int64)),
    ("runtime", np.dtype(np.float64)),
    ("walltime", np.dtype(np.float64)),
    ("site_code", np.dtype(np.int32)),
)

#: Serialized column names and dtypes of the outcome fields, in layout order.
OUTCOME_COLUMNS: Tuple[Tuple[str, np.dtype], ...] = (
    ("start_time", np.dtype(np.float64)),
    ("completion_time", np.dtype(np.float64)),
    ("state", np.dtype(np.int8)),
    ("killed", np.dtype(bool)),
    ("reallocation_count", np.dtype(np.int32)),
    ("outage_kills", np.dtype(np.int32)),
    ("cluster_code", np.dtype(np.int32)),
)


def _codes_within(codes: np.ndarray, size: int) -> bool:
    """True when every category code indexes a list of ``size`` entries.

    A negative code would index from the end of the list, so it is
    rejected like one past its end.
    """
    return not len(codes) or (int(codes.min()) >= 0 and int(codes.max()) < size)


class JobTable:
    """Append-only columnar store of job records.

    Rows are appended (``add_job`` / ``append``) and never
    removed; indices are therefore stable for the lifetime of the table.
    Columns are exposed as read-only views trimmed to the live row count.
    """

    def __init__(self, capacity: int = _INITIAL_CAPACITY) -> None:
        capacity = max(1, int(capacity))
        self._n = 0
        self._job_id = np.empty(capacity, dtype=np.int64)
        self._submit = np.empty(capacity, dtype=np.float64)
        self._procs = np.empty(capacity, dtype=np.int64)
        self._runtime = np.empty(capacity, dtype=np.float64)
        self._walltime = np.empty(capacity, dtype=np.float64)
        self._site_code = np.empty(capacity, dtype=np.int32)
        self._sites: List[Optional[str]] = []
        self._site_index: Dict[Optional[str], int] = {}
        # Outcome columns are allocated lazily on the first outcome write.
        self._start: Optional[np.ndarray] = None
        self._completion: Optional[np.ndarray] = None
        self._state: Optional[np.ndarray] = None
        self._killed: Optional[np.ndarray] = None
        self._realloc: Optional[np.ndarray] = None
        self._outage: Optional[np.ndarray] = None
        self._cluster_code: Optional[np.ndarray] = None
        self._clusters: List[Optional[str]] = [None]
        self._cluster_index: Dict[Optional[str], int] = {None: 0}

    # ------------------------------------------------------------------ #
    # Construction                                                       #
    # ------------------------------------------------------------------ #
    @classmethod
    def from_jobs(cls, jobs: Iterable[Job], capacity: int = _INITIAL_CAPACITY) -> "JobTable":
        """Build a table by draining any job iterable (generators welcome).

        Jobs carrying dynamic state (a start or completion time, a
        non-pending state) get outcome columns automatically.
        """
        table = cls(capacity=capacity)
        for job in jobs:
            table.add_job(job)
        return table

    @classmethod
    def from_records(cls, records: Iterable["object"]) -> "JobTable":
        """Build a table from :class:`~repro.core.results.JobRecord` rows.

        Outcome columns are always present on the result (record state is
        definitive even when a job never started).
        """
        table = cls()
        for record in records:
            index = table.append(
                record.job_id,
                record.submit_time,
                record.procs,
                record.runtime,
                record.walltime,
                site=record.origin_site,
            )
            table.set_outcome(
                index,
                start_time=record.start_time,
                completion_time=record.completion_time,
                state=record.state,
                killed=record.killed,
                reallocation_count=record.reallocation_count,
                outage_kills=record.outage_kills,
                final_cluster=record.final_cluster,
            )
        return table

    @classmethod
    def from_record_dicts(cls, rows: Sequence[Mapping[str, Any]]) -> "JobTable":
        """Build a table from serialized record dicts (see :meth:`record_dicts`).

        The columnar inverse of :meth:`record_dicts`: one generator pass
        per column straight into the backing arrays, so deserializing an
        archive-scale result document never builds a
        :class:`~repro.core.results.JobRecord` object.  An empty row list
        yields an empty table without outcome columns.
        """
        n = len(rows)
        table = cls(capacity=max(1, n))
        if n == 0:
            return table
        table._job_id[:n] = np.fromiter(
            (row["job_id"] for row in rows), dtype=np.int64, count=n
        )
        table._submit[:n] = np.fromiter(
            (row["submit_time"] for row in rows), dtype=np.float64, count=n
        )
        table._procs[:n] = np.fromiter(
            (row["procs"] for row in rows), dtype=np.int64, count=n
        )
        table._runtime[:n] = np.fromiter(
            (row["runtime"] for row in rows), dtype=np.float64, count=n
        )
        table._walltime[:n] = np.fromiter(
            (row["walltime"] for row in rows), dtype=np.float64, count=n
        )

        def intern(index: Dict[Optional[str], int], names: List[Optional[str]], name):
            code = index.get(name)
            if code is None:
                code = len(names)
                names.append(name)
                index[name] = code
            return code

        table._site_code[:n] = np.fromiter(
            (intern(table._site_index, table._sites, row["origin_site"]) for row in rows),
            dtype=np.int32,
            count=n,
        )
        table._alloc_outcomes()
        table._start[:n] = np.fromiter(
            (
                math.nan if row["start_time"] is None else row["start_time"]
                for row in rows
            ),
            dtype=np.float64,
            count=n,
        )
        table._completion[:n] = np.fromiter(
            (
                math.nan if row["completion_time"] is None else row["completion_time"]
                for row in rows
            ),
            dtype=np.float64,
            count=n,
        )
        table._state[:n] = np.fromiter(
            (_STATE_CODE_BY_VALUE[row["state"]] for row in rows), dtype=np.int8, count=n
        )
        table._killed[:n] = np.fromiter(
            (row["killed"] for row in rows), dtype=bool, count=n
        )
        table._realloc[:n] = np.fromiter(
            (row["reallocation_count"] for row in rows), dtype=np.int32, count=n
        )
        table._outage[:n] = np.fromiter(
            (row.get("outage_kills", 0) for row in rows), dtype=np.int32, count=n
        )
        table._cluster_code[:n] = np.fromiter(
            (
                intern(table._cluster_index, table._clusters, row["final_cluster"])
                for row in rows
            ),
            dtype=np.int32,
            count=n,
        )
        table._n = n
        return table

    @classmethod
    def from_columns(
        cls,
        columns: Mapping[str, np.ndarray],
        sites: Sequence[Optional[str]],
        clusters: Optional[Sequence[Optional[str]]] = None,
    ) -> "JobTable":
        """Adopt deserialized column arrays (inverse of :meth:`to_columns`).

        ``columns`` must hold every static column; the outcome columns are
        all-or-nothing.  Category codes are validated against the ``sites``
        / ``clusters`` lists so a corrupt document fails loudly (the store
        treats any :class:`ValueError` as a corrupt-document cache miss).
        """
        job_id = np.asarray(columns.get("job_id"))
        if job_id.dtype != np.int64 or job_id.ndim != 1:
            raise ValueError("job_id column must be a one-dimensional int64 array")
        n = job_id.shape[0]
        table = cls(capacity=max(1, n))
        present = set(columns)
        static_names = {name for name, _ in STATIC_COLUMNS}
        outcome_names = {name for name, _ in OUTCOME_COLUMNS}
        if not static_names <= present:
            raise ValueError(f"missing static columns: {sorted(static_names - present)}")
        has_outcomes = bool(outcome_names & present)
        if has_outcomes and not outcome_names <= present:
            raise ValueError(
                f"missing outcome columns: {sorted(outcome_names - present)}"
            )
        layout = STATIC_COLUMNS + (OUTCOME_COLUMNS if has_outcomes else ())
        if has_outcomes:
            table._alloc_outcomes()
        targets = {
            "job_id": table._job_id,
            "submit_time": table._submit,
            "procs": table._procs,
            "runtime": table._runtime,
            "walltime": table._walltime,
            "site_code": table._site_code,
            "start_time": table._start,
            "completion_time": table._completion,
            "state": table._state,
            "killed": table._killed,
            "reallocation_count": table._realloc,
            "outage_kills": table._outage,
            "cluster_code": table._cluster_code,
        }
        for name, dtype in layout:
            column = np.asarray(columns[name])
            if column.ndim != 1 or column.shape[0] != n:
                raise ValueError(f"column {name!r} must hold {n} rows")
            targets[name][:n] = column.astype(dtype, casting="same_kind", copy=False)
        table._n = n
        table._sites = list(sites)
        table._site_index = {site: i for i, site in enumerate(table._sites)}
        if not _codes_within(table._site_code[:n], len(table._sites)):
            raise ValueError("site codes fall outside the site category list")
        if has_outcomes:
            table._clusters = list(clusters) if clusters is not None else [None]
            table._cluster_index = {
                cluster: i for i, cluster in enumerate(table._clusters)
            }
            if not _codes_within(table._cluster_code[:n], len(table._clusters)):
                raise ValueError("cluster codes fall outside the cluster category list")
            if not _codes_within(table._state[:n], len(_STATE_ORDER)):
                raise ValueError("state codes fall outside the JobState order")
        return table

    def to_columns(
        self,
    ) -> Tuple[Dict[str, np.ndarray], List[Optional[str]], List[Optional[str]]]:
        """``(columns, sites, clusters)`` of the live rows, for serialization.

        Columns are read-only views trimmed to the live row count in the
        declaration order of :data:`STATIC_COLUMNS` /
        :data:`OUTCOME_COLUMNS` (stable key order keeps serialized
        documents byte-deterministic); outcome columns appear only when
        the table carries outcomes.
        """
        columns: Dict[str, np.ndarray] = {
            "job_id": self.job_id,
            "submit_time": self.submit_time,
            "procs": self.procs,
            "runtime": self.runtime,
            "walltime": self.walltime,
            "site_code": self._view(self._site_code),
        }
        if self.has_outcomes:
            columns["start_time"] = self.start_time
            columns["completion_time"] = self.completion_time
            columns["state"] = self.state_code
            columns["killed"] = self.killed
            columns["reallocation_count"] = self.reallocation_count
            columns["outage_kills"] = self.outage_kills
            columns["cluster_code"] = self._view(self._cluster_code)
        return columns, list(self._sites), list(self._clusters)

    def append(
        self,
        job_id: int,
        submit_time: float,
        procs: int,
        runtime: float,
        walltime: float,
        site: Optional[str] = None,
    ) -> int:
        """Append one row of static fields; returns its index."""
        index = self._n
        if index == self._job_id.shape[0]:
            self._grow()
        self._job_id[index] = job_id
        self._submit[index] = submit_time
        self._procs[index] = procs
        self._runtime[index] = runtime
        self._walltime[index] = walltime
        code = self._site_index.get(site)
        if code is None:
            code = len(self._sites)
            self._sites.append(site)
            self._site_index[site] = code
        self._site_code[index] = code
        self._n = index + 1
        return index

    def add_job(self, job: Job, final: bool = False) -> int:
        """Append one :class:`Job`; snapshots dynamic state when present.

        With ``final=True`` the outcome columns are written unconditionally
        — the snapshot path of a finished run, where even a job that never
        started (rejected, or still pending at a truncated horizon) has a
        definitive final state.
        """
        index = self.append(
            job.job_id,
            job.submit_time,
            job.procs,
            job.runtime,
            job.walltime,
            site=job.origin_site,
        )
        if (
            final
            or job.state is not JobState.PENDING
            or job.start_time is not None
            or job.completion_time is not None
        ):
            self.set_outcome(
                index,
                start_time=job.start_time,
                completion_time=job.completion_time,
                state=job.state,
                killed=job.killed,
                reallocation_count=job.reallocation_count,
                outage_kills=job.outage_kills,
                final_cluster=job.cluster,
            )
        return index

    def set_outcome(
        self,
        index: int,
        start_time: Optional[float] = None,
        completion_time: Optional[float] = None,
        state: JobState = JobState.PENDING,
        killed: bool = False,
        reallocation_count: int = 0,
        outage_kills: int = 0,
        final_cluster: Optional[str] = None,
    ) -> None:
        """Record the outcome of row ``index`` (``None`` times become NaN)."""
        if self._start is None:
            self._alloc_outcomes()
        self._start[index] = math.nan if start_time is None else start_time
        self._completion[index] = math.nan if completion_time is None else completion_time
        self._state[index] = _STATE_CODE[state]
        self._killed[index] = killed
        self._realloc[index] = reallocation_count
        self._outage[index] = outage_kills
        code = self._cluster_index.get(final_cluster)
        if code is None:
            code = len(self._clusters)
            self._clusters.append(final_cluster)
            self._cluster_index[final_cluster] = code
        self._cluster_code[index] = code

    def _alloc_outcomes(self) -> None:
        capacity = self._job_id.shape[0]
        self._start = np.full(capacity, np.nan, dtype=np.float64)
        self._completion = np.full(capacity, np.nan, dtype=np.float64)
        self._state = np.full(capacity, _STATE_CODE[JobState.PENDING], dtype=np.int8)
        self._killed = np.zeros(capacity, dtype=bool)
        self._realloc = np.zeros(capacity, dtype=np.int32)
        self._outage = np.zeros(capacity, dtype=np.int32)
        self._cluster_code = np.zeros(capacity, dtype=np.int32)

    def _grow(self) -> None:
        def enlarge(column: np.ndarray, fill=None) -> np.ndarray:
            grown = np.empty(column.shape[0] * 2, dtype=column.dtype)
            grown[: column.shape[0]] = column
            if fill is not None:
                grown[column.shape[0]:] = fill
            return grown

        self._job_id = enlarge(self._job_id)
        self._submit = enlarge(self._submit)
        self._procs = enlarge(self._procs)
        self._runtime = enlarge(self._runtime)
        self._walltime = enlarge(self._walltime)
        self._site_code = enlarge(self._site_code)
        if self._start is not None:
            self._start = enlarge(self._start, fill=np.nan)
            self._completion = enlarge(self._completion, fill=np.nan)
            self._state = enlarge(self._state, fill=_STATE_CODE[JobState.PENDING])
            self._killed = enlarge(self._killed, fill=False)
            self._realloc = enlarge(self._realloc, fill=0)
            self._outage = enlarge(self._outage, fill=0)
            self._cluster_code = enlarge(self._cluster_code, fill=0)

    # ------------------------------------------------------------------ #
    # Columns                                                            #
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._n

    @property
    def has_outcomes(self) -> bool:
        """True once any row carried dynamic state."""
        return self._start is not None

    def _view(self, column: Optional[np.ndarray]) -> Optional[np.ndarray]:
        if column is None:
            return None
        view = column[: self._n]
        view.flags.writeable = False
        return view

    @property
    def job_id(self) -> np.ndarray:
        return self._view(self._job_id)

    @property
    def submit_time(self) -> np.ndarray:
        return self._view(self._submit)

    @property
    def procs(self) -> np.ndarray:
        return self._view(self._procs)

    @property
    def runtime(self) -> np.ndarray:
        return self._view(self._runtime)

    @property
    def walltime(self) -> np.ndarray:
        return self._view(self._walltime)

    @property
    def start_time(self) -> Optional[np.ndarray]:
        return self._view(self._start)

    @property
    def completion_time(self) -> Optional[np.ndarray]:
        return self._view(self._completion)

    @property
    def state_code(self) -> Optional[np.ndarray]:
        return self._view(self._state)

    @property
    def killed(self) -> Optional[np.ndarray]:
        return self._view(self._killed)

    @property
    def reallocation_count(self) -> Optional[np.ndarray]:
        return self._view(self._realloc)

    @property
    def outage_kills(self) -> Optional[np.ndarray]:
        return self._view(self._outage)

    def site(self, index: int) -> Optional[str]:
        """Origin site of row ``index`` (interned)."""
        return self._sites[self._site_code[index]]

    def nbytes(self) -> int:
        """Bytes held by the live region of every allocated column."""
        columns = [
            self._job_id, self._submit, self._procs, self._runtime,
            self._walltime, self._site_code, self._start, self._completion,
            self._state, self._killed, self._realloc, self._outage,
            self._cluster_code,
        ]
        return sum(c[: self._n].nbytes for c in columns if c is not None)

    # ------------------------------------------------------------------ #
    # Aggregation (vectorised, no per-object walks)                      #
    # ------------------------------------------------------------------ #
    @property
    def completed_count(self) -> int:
        """Number of rows in the COMPLETED state (0 without outcomes)."""
        if self._state is None:
            return 0
        return int(np.count_nonzero(self.state_code == _STATE_CODE[JobState.COMPLETED]))

    @property
    def killed_count(self) -> int:
        """Number of rows killed at their walltime."""
        if self._killed is None:
            return 0
        return int(np.count_nonzero(self.killed))

    @property
    def rejected_count(self) -> int:
        """Number of rows in the REJECTED state."""
        if self._state is None:
            return 0
        return int(np.count_nonzero(self.state_code == _STATE_CODE[JobState.REJECTED]))

    @property
    def disrupted_count(self) -> int:
        """Number of rows killed at least once by an outage."""
        if self._outage is None:
            return 0
        return int(np.count_nonzero(self.outage_kills > 0))

    def response_times(self) -> np.ndarray:
        """Response times of rows with a completion time (compact array)."""
        if self._completion is None:
            return np.empty(0, dtype=np.float64)
        completion = self.completion_time
        mask = ~np.isnan(completion)
        return completion[mask] - self.submit_time[mask]

    def wait_times(self) -> np.ndarray:
        """Wait times of rows that started (compact array)."""
        if self._start is None:
            return np.empty(0, dtype=np.float64)
        start = self.start_time
        mask = ~np.isnan(start)
        return start[mask] - self.submit_time[mask]

    def mean_response_time(self) -> float:
        """Mean response time over completed rows (0.0 if none)."""
        values = self.response_times()
        return float(values.mean()) if values.size else 0.0

    def makespan(self) -> float:
        """Latest completion time (0.0 without any completion)."""
        if self._completion is None:
            return 0.0
        completion = self.completion_time
        mask = ~np.isnan(completion)
        return float(completion[mask].max()) if mask.any() else 0.0

    def total_core_seconds(self) -> float:
        """Σ procs · min(runtime, walltime) over all rows (demand volume)."""
        if self._n == 0:
            return 0.0
        effective = np.minimum(self.runtime, self.walltime)
        return float(np.dot(self.procs.astype(np.float64), effective))

    def completion_by_job_id(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(job_ids, completion_times)`` of completed rows, id-sorted."""
        if self._completion is None:
            empty = np.empty(0, dtype=np.int64)
            return empty, np.empty(0, dtype=np.float64)
        completion = self.completion_time
        mask = ~np.isnan(completion)
        ids = self.job_id[mask]
        times = completion[mask]
        order = np.argsort(ids, kind="stable")
        return ids[order], times[order]

    # ------------------------------------------------------------------ #
    # Chunked object views                                               #
    # ------------------------------------------------------------------ #
    def chunks(self, chunk_size: int = 65536) -> Iterator[slice]:
        """Yield row slices covering the table in ``chunk_size`` pieces."""
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        for lo in range(0, self._n, chunk_size):
            yield slice(lo, min(lo + chunk_size, self._n))

    def job(self, index: int) -> Job:
        """Materialise one row as a pristine :class:`Job`."""
        if not 0 <= index < self._n:
            raise IndexError(f"row {index} out of range (table holds {self._n})")
        return Job(
            job_id=int(self._job_id[index]),
            submit_time=float(self._submit[index]),
            procs=int(self._procs[index]),
            runtime=float(self._runtime[index]),
            walltime=float(self._walltime[index]),
            origin_site=self._sites[self._site_code[index]],
        )

    def iter_jobs(self) -> Iterator[Job]:
        """Materialise every row as a pristine :class:`Job`, lazily."""
        for index in range(self._n):
            yield self.job(index)

    def record(self, index: int):
        """Materialise one row as a :class:`~repro.core.results.JobRecord`.

        The per-id access path of a table-backed result: one object, not a
        per-table walk.  Requires outcome columns (a record's state is
        definitive by construction).
        """
        from repro.core.results import JobRecord

        if not self.has_outcomes:
            raise ValueError("record() needs outcome columns (no outcomes recorded)")
        if not 0 <= index < self._n:
            raise IndexError(f"row {index} out of range (table holds {self._n})")
        start = float(self._start[index])
        completion = float(self._completion[index])
        return JobRecord(
            job_id=int(self._job_id[index]),
            submit_time=float(self._submit[index]),
            procs=int(self._procs[index]),
            runtime=float(self._runtime[index]),
            walltime=float(self._walltime[index]),
            origin_site=self._sites[self._site_code[index]],
            final_cluster=self._clusters[self._cluster_code[index]],
            start_time=None if math.isnan(start) else start,
            completion_time=None if math.isnan(completion) else completion,
            state=_STATE_ORDER[self._state[index]],
            killed=bool(self._killed[index]),
            reallocation_count=int(self._realloc[index]),
            outage_kills=int(self._outage[index]),
        )

    def record_dicts(self, sort_by_job_id: bool = True) -> List[Dict[str, Any]]:
        """Serialized record dicts of every row, straight from the columns.

        One plain-JSON dict per row (floats, ints, strings, ``None``; the
        state as its string value), built from one column pass without
        materialising any :class:`~repro.core.results.JobRecord` — the
        canonical (ascending job-id) ``records`` payload of
        :meth:`~repro.core.results.RunResult.to_dict`.  Requires outcome
        columns on a non-empty table.
        """
        n = self._n
        if n == 0:
            return []
        if not self.has_outcomes:
            raise ValueError("record_dicts() needs outcome columns (no outcomes recorded)")
        if sort_by_job_id:
            order = np.argsort(self._job_id[:n], kind="stable")
            take = lambda column: column[:n][order].tolist()  # noqa: E731
        else:
            take = lambda column: column[:n].tolist()  # noqa: E731
        job_ids = take(self._job_id)
        submits = take(self._submit)
        procs = take(self._procs)
        runtimes = take(self._runtime)
        walltimes = take(self._walltime)
        site_codes = take(self._site_code)
        starts = take(self._start)
        completions = take(self._completion)
        states = take(self._state)
        killed = take(self._killed)
        reallocs = take(self._realloc)
        outages = take(self._outage)
        cluster_codes = take(self._cluster_code)
        sites = self._sites
        clusters = self._clusters
        return [
            {
                "job_id": job_ids[i],
                "submit_time": submits[i],
                "procs": procs[i],
                "runtime": runtimes[i],
                "walltime": walltimes[i],
                "origin_site": sites[site_codes[i]],
                "final_cluster": clusters[cluster_codes[i]],
                "start_time": None if math.isnan(starts[i]) else starts[i],
                "completion_time": (
                    None if math.isnan(completions[i]) else completions[i]
                ),
                "state": _STATE_ORDER[states[i]].value,
                "killed": killed[i],
                "reallocation_count": reallocs[i],
                "outage_kills": outages[i],
            }
            for i in range(n)
        ]

    def records(self, chunk_size: int = 65536) -> Iterator[list]:
        """Yield lists of :class:`~repro.core.results.JobRecord` per chunk.

        Reads each column exactly once per chunk (one NumPy slice per
        column) instead of walking per-object attributes, which is what
        keeps result snapshotting linear-with-small-constant at archive
        scale.
        """
        from repro.core.results import JobRecord

        if not self.has_outcomes:
            raise ValueError("records() needs outcome columns (no outcomes recorded)")
        for rows in self.chunks(chunk_size):
            job_ids = self._job_id[rows]
            submits = self._submit[rows]
            procs = self._procs[rows]
            runtimes = self._runtime[rows]
            walltimes = self._walltime[rows]
            site_codes = self._site_code[rows]
            starts = self._start[rows]
            completions = self._completion[rows]
            states = self._state[rows]
            killed = self._killed[rows]
            reallocs = self._realloc[rows]
            outages = self._outage[rows]
            cluster_codes = self._cluster_code[rows]
            sites = self._sites
            clusters = self._clusters
            chunk = [
                JobRecord(
                    job_id=int(job_ids[i]),
                    submit_time=float(submits[i]),
                    procs=int(procs[i]),
                    runtime=float(runtimes[i]),
                    walltime=float(walltimes[i]),
                    origin_site=sites[site_codes[i]],
                    final_cluster=clusters[cluster_codes[i]],
                    start_time=None if math.isnan(starts[i]) else float(starts[i]),
                    completion_time=(
                        None if math.isnan(completions[i]) else float(completions[i])
                    ),
                    state=_STATE_ORDER[states[i]],
                    killed=bool(killed[i]),
                    reallocation_count=int(reallocs[i]),
                    outage_kills=int(outages[i]),
                )
                for i in range(job_ids.shape[0])
            ]
            yield chunk

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JobTable(rows={self._n}, outcomes={self.has_outcomes}, "
            f"bytes={self.nbytes()})"
        )
