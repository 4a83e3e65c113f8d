"""Columnar estimation engine: the candidates × clusters ECT matrix.

The reallocation heuristics (Section 2.2.2) re-query, at every step of a
tick, the expected completion time of every remaining candidate on every
cluster — the O(n²) cost the paper quotes for the offline heuristics.  The
historical hot path materialised one :class:`~repro.core.heuristics
.JobEstimate` per candidate per step and ran the selection over Python
dicts; at 500 candidates that is ~125k object builds per tick.

:class:`EstimateMatrix` stores the same information *columnar*:

* one float64 matrix of ECTs, row = candidate, column = cluster, with
  ``math.inf`` where the job does not fit (or cannot be placed);
* a parallel boolean *fits* mask — needed because a job that fits on a
  single saturated cluster (ECT ``inf``) is not the same as a job that
  does not fit at all (the Sufferage criterion distinguishes the two);
* per-row scalars: current cluster (column index, -1 for "nowhere"),
  current ECT, submission time, job id and processor count — everything a
  heuristic key or tie-break reads.

Row and column index maps are stable: rows are appended and *discarded*
(masked out), never compacted, so a row index held by the selection loop
stays valid for the whole tick; columns are fixed at construction from the
platform's cluster list.  Refreshing the estimates of one touched cluster
is a column write, and the vectorised ``Heuristic.select_index`` path
reduces each selection step to a handful of NumPy reductions over the
alive rows.

The derived-quantity helpers (:meth:`EstimateMatrix.best_ects`,
:meth:`second_best_ects`, :meth:`gains`, :meth:`relative_gains`,
:meth:`sufferages`) replicate the scalar semantics of the corresponding
:class:`JobEstimate` properties bit for bit — same IEEE operations, same
infinity conventions — so the vectorised and the object-based selection
are interchangeable (the differential suite in
``tests/test_estimation_matrix.py`` enforces it).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

#: Initial row capacity of a matrix (doubled on demand).
_INITIAL_CAPACITY = 64


class EstimateMatrix:
    """Columnar store of per-candidate, per-cluster completion estimates.

    Parameters
    ----------
    clusters:
        Cluster names, fixing the column order of the matrix.

    Notes
    -----
    The matrix only holds numbers: it knows candidates by ``job_id``, not
    by :class:`~repro.batch.job.Job` object, so it can be built and
    benchmarked without a simulation behind it.  The grid layer's
    ``_EstimateTable`` owns the job objects and keeps them in sync.
    """

    __slots__ = (
        "clusters",
        "col_index",
        "_cols_by_name",
        "_ects",
        "_fits",
        "_current_ect",
        "_current_col",
        "_submit",
        "_job_ids",
        "_procs",
        "_alive",
        "_size",
        "_row_of",
        "_alive_count",
    )

    def __init__(self, clusters: Iterable[str]) -> None:
        self.clusters: Tuple[str, ...] = tuple(clusters)
        if len(set(self.clusters)) != len(self.clusters):
            raise ValueError(f"duplicate cluster names in {self.clusters!r}")
        self.col_index: Dict[str, int] = {
            name: index for index, name in enumerate(self.clusters)
        }
        # Column indices sorted by cluster name: the (ECT, name) tie-break
        # of best_cols/best_other_cols picks the first candidate in this
        # order, matching JobEstimate's min over (value, name) pairs.
        self._cols_by_name = np.array(
            sorted(range(len(self.clusters)), key=lambda col: self.clusters[col]),
            dtype=np.intp,
        )
        capacity = _INITIAL_CAPACITY
        width = len(self.clusters)
        self._ects = np.full((capacity, width), np.inf, dtype=np.float64)
        self._fits = np.zeros((capacity, width), dtype=bool)
        self._current_ect = np.full(capacity, np.inf, dtype=np.float64)
        self._current_col = np.full(capacity, -1, dtype=np.int64)
        self._submit = np.zeros(capacity, dtype=np.float64)
        self._job_ids = np.zeros(capacity, dtype=np.int64)
        self._procs = np.ones(capacity, dtype=np.int64)
        self._alive = np.zeros(capacity, dtype=bool)
        self._size = 0
        self._row_of: Dict[int, int] = {}
        self._alive_count = 0

    # ------------------------------------------------------------------ #
    # Shape and lookup                                                   #
    # ------------------------------------------------------------------ #
    @property
    def n_rows(self) -> int:
        """Rows ever inserted (alive and discarded)."""
        return self._size

    @property
    def n_clusters(self) -> int:
        """Number of columns."""
        return len(self.clusters)

    @property
    def alive_count(self) -> int:
        """Rows not yet discarded."""
        return self._alive_count

    def row_of(self, job_id: int) -> int:
        """Stable row index of a candidate (raises ``KeyError`` if unknown)."""
        return self._row_of[job_id]

    def job_id_at(self, row: int) -> int:
        """Candidate job id stored at ``row``."""
        self._check_row(row)
        return int(self._job_ids[row])

    def is_alive(self, row: int) -> bool:
        """True while the row has not been discarded."""
        self._check_row(row)
        return bool(self._alive[row])

    def alive_rows(self) -> np.ndarray:
        """Indices of the alive rows, in insertion order."""
        return np.flatnonzero(self._alive[: self._size])

    def alive_job_ids(self) -> List[int]:
        """Job ids of the alive rows, in insertion order."""
        return [int(jid) for jid in self._job_ids[self.alive_rows()]]

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self._size:
            raise IndexError(f"row {row} out of range (have {self._size})")

    # ------------------------------------------------------------------ #
    # Incremental mutation                                               #
    # ------------------------------------------------------------------ #
    def _grow(self) -> None:
        capacity = self._ects.shape[0] * 2
        grown_ects = np.full((capacity, self.n_clusters), np.inf, dtype=np.float64)
        grown_ects[: self._size] = self._ects[: self._size]
        self._ects = grown_ects
        grown_fits = np.zeros((capacity, self.n_clusters), dtype=bool)
        grown_fits[: self._size] = self._fits[: self._size]
        self._fits = grown_fits
        for name in ("_current_ect", "_current_col", "_submit", "_job_ids", "_procs", "_alive"):
            old = getattr(self, name)
            fill = np.inf if name == "_current_ect" else (-1 if name == "_current_col" else 0)
            grown = np.full(capacity, fill, dtype=old.dtype)
            grown[: self._size] = old[: self._size]
            setattr(self, name, grown)

    def add_row(
        self,
        job_id: int,
        submit_time: float,
        procs: int,
        ects: Mapping[str, float],
        current_cluster: Optional[str] = None,
        current_ect: float = math.inf,
    ) -> int:
        """Insert one candidate; returns its stable row index.

        ``ects`` maps cluster name to ECT for the clusters the job *fits*
        on (an entry may still be ``inf`` when the queue cannot place it);
        clusters absent from the mapping are recorded as not fitting.
        """
        if job_id in self._row_of:
            raise ValueError(f"candidate {job_id} already has a row")
        if self._size == self._ects.shape[0]:
            self._grow()
        row = self._size
        self._size += 1
        for name, value in ects.items():
            col = self.col_index[name]
            self._ects[row, col] = value
            self._fits[row, col] = True
        self._submit[row] = submit_time
        self._job_ids[row] = job_id
        self._procs[row] = procs
        self._current_col[row] = (
            self.col_index[current_cluster] if current_cluster is not None else -1
        )
        self._current_ect[row] = current_ect
        self._alive[row] = True
        self._alive_count += 1
        self._row_of[job_id] = row
        return row

    def discard_row(self, row: int) -> None:
        """Mask a row out of every subsequent selection (index stays valid)."""
        self._check_row(row)
        if self._alive[row]:
            self._alive[row] = False
            self._alive_count -= 1

    def discard_job(self, job_id: int) -> None:
        """Discard by candidate id; unknown ids are ignored."""
        row = self._row_of.get(job_id)
        if row is not None:
            self.discard_row(row)

    def has_row(self, job_id: int) -> bool:
        """True if the candidate has a row (alive *or* discarded)."""
        return job_id in self._row_of

    def discard_all(self) -> None:
        """Mask every row out; rows stay resolvable and can be revived."""
        self._alive[: self._size] = False
        self._alive_count = 0

    def revive_rows(self, rows: "np.ndarray | Iterable[int]") -> None:
        """Un-discard the given rows (the persistent-engine sync path)."""
        rows = np.asarray(rows, dtype=np.intp)
        if rows.size == 0:
            return
        if rows.min() < 0 or rows.max() >= self._size:
            raise IndexError(f"row out of range (have {self._size})")
        self._alive[rows] = True
        self._alive_count = int(np.count_nonzero(self._alive[: self._size]))

    def compact(self) -> np.ndarray:
        """Physically drop the discarded rows; returns the kept old indices.

        The persistent engine accumulates dead rows (jobs that started or
        completed between ticks) that :meth:`discard_row` only masks out;
        compaction garbage-collects them so a long-running service does
        not grow the matrix without bound.  Row indices *change*: callers
        must re-resolve through :meth:`row_of` and re-gather any parallel
        per-row arrays with the returned index array.
        """
        keep = np.flatnonzero(self._alive[: self._size])
        capacity = _INITIAL_CAPACITY
        while capacity < keep.size:
            capacity *= 2
        width = self.n_clusters
        ects = np.full((capacity, width), np.inf, dtype=np.float64)
        ects[: keep.size] = self._ects[keep]
        self._ects = ects
        fits = np.zeros((capacity, width), dtype=bool)
        fits[: keep.size] = self._fits[keep]
        self._fits = fits
        for name in ("_current_ect", "_current_col", "_submit", "_job_ids", "_procs", "_alive"):
            old = getattr(self, name)
            fill = np.inf if name == "_current_ect" else (-1 if name == "_current_col" else 0)
            packed = np.full(capacity, fill, dtype=old.dtype)
            packed[: keep.size] = old[keep]
            setattr(self, name, packed)
        self._size = keep.size
        self._alive_count = keep.size
        self._row_of = {
            int(jid): row for row, jid in enumerate(self._job_ids[: keep.size])
        }
        return keep

    def set_entry(self, row: int, cluster: str, ect: float) -> None:
        """Write one (candidate, cluster) estimate; marks the pair fitting."""
        self._check_row(row)
        col = self.col_index[cluster]
        self._ects[row, col] = ect
        self._fits[row, col] = True

    def clear_entry(self, row: int, cluster: str) -> None:
        """Stale-prune one (candidate, cluster) pair: not fitting, ECT ``inf``."""
        self._check_row(row)
        col = self.col_index[cluster]
        self._ects[row, col] = np.inf
        self._fits[row, col] = False

    def set_current(self, row: int, cluster: Optional[str], ect: float) -> None:
        """Update a candidate's current location and current ECT."""
        self._check_row(row)
        self._current_col[row] = self.col_index[cluster] if cluster is not None else -1
        self._current_ect[row] = ect

    def write_column(
        self, rows: np.ndarray, cluster: str, ects: np.ndarray, fits: np.ndarray
    ) -> None:
        """Bulk column write over existing rows.

        Equivalent to :meth:`set_entry` on the rows where ``fits`` holds
        and :meth:`clear_entry` on the others.
        """
        col = self.col_index[cluster]
        self._ects[rows, col] = np.where(fits, ects, np.inf)
        self._fits[rows, col] = fits

    def set_current_ects(self, rows: np.ndarray, ects: np.ndarray) -> None:
        """Bulk update of the current ECT of existing rows (location kept)."""
        self._current_ect[rows] = ects

    # ------------------------------------------------------------------ #
    # Row readback (for materialising the selected JobEstimate)          #
    # ------------------------------------------------------------------ #
    def row_ects(self, row: int) -> Dict[str, float]:
        """ECT dict of one row — only the clusters the candidate fits on."""
        self._check_row(row)
        fits = self._fits[row]
        values = self._ects[row]
        return {
            name: float(values[col])
            for col, name in enumerate(self.clusters)
            if fits[col]
        }

    def current_of(self, row: int) -> Tuple[Optional[str], float]:
        """(current cluster, current ECT) of one row."""
        self._check_row(row)
        col = int(self._current_col[row])
        cluster = self.clusters[col] if col >= 0 else None
        return cluster, float(self._current_ect[row])

    def submit_times(self, rows: np.ndarray) -> np.ndarray:
        """Submission times of the given rows (tie-break key 1)."""
        return self._submit[rows]

    def job_ids(self, rows: np.ndarray) -> np.ndarray:
        """Job ids of the given rows (tie-break key 2)."""
        return self._job_ids[rows]

    def current_cols(self, rows: np.ndarray) -> np.ndarray:
        """Current-cluster column index of the given rows (-1 = nowhere)."""
        return self._current_col[rows]

    def ects_block(self, rows: np.ndarray) -> np.ndarray:
        """ECT sub-matrix of the given rows (a copy; all columns)."""
        return self._ects[rows]

    def fits_block(self, rows: np.ndarray) -> np.ndarray:
        """Fits sub-matrix of the given rows (a copy; all columns)."""
        return self._fits[rows]

    def _pick_named(
        self, rows: np.ndarray, ects: np.ndarray, fits: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Shared (ECT, name)-tie-break argmin over fitting columns."""
        if self.n_clusters == 0:
            empty = np.full(len(rows), np.inf)
            return np.full(len(rows), -1, dtype=np.int64), empty
        best = np.min(ects, axis=1)
        candidates = fits & (ects == best[:, None])
        by_name = candidates[:, self._cols_by_name]
        cols = self._cols_by_name[np.argmax(by_name, axis=1)].astype(np.int64)
        return np.where(fits.any(axis=1), cols, -1), best

    def best_cols(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-row (best column, best ECT) over the fitting clusters.

        Mirrors :attr:`JobEstimate.best_cluster` / :attr:`best_ect`: ties
        on the ECT value are broken by cluster *name*, and a row that fits
        nowhere reports ``(-1, inf)``.  With every fitting ECT infinite the
        name-smallest fitting column is still reported, exactly like the
        scalar ``min`` over the ``(value, name)`` pairs of the dict.
        """
        return self._pick_named(rows, self._ects[rows], self._fits[rows])

    def best_other_cols(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-row (column, ECT) of the best cluster excluding the current.

        Mirrors :attr:`JobEstimate.best_other_cluster` /
        :attr:`best_other_ect`: the row's current column is excluded from
        the minimum, and ``(-1, inf)`` means no *other* cluster fits.
        """
        ects = self._ects[rows].copy()
        fits = self._fits[rows].copy()
        current = self._current_col[rows]
        placed = np.flatnonzero(current >= 0)
        ects[placed, current[placed]] = np.inf
        fits[placed, current[placed]] = False
        return self._pick_named(rows, ects, fits)

    # ------------------------------------------------------------------ #
    # Derived vectors (bit-identical to the JobEstimate properties)      #
    # ------------------------------------------------------------------ #
    def best_ects(self, rows: np.ndarray) -> np.ndarray:
        """Minimum ECT per row (``inf`` when the candidate fits nowhere)."""
        if self.n_clusters == 0:
            return np.full(len(rows), np.inf)
        return np.min(self._ects[rows], axis=1)

    def _best_and_second(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(best, second-best) ECT per row from a single partition pass."""
        if self.n_clusters < 2:
            best = self.best_ects(rows)
            return best, best
        partitioned = np.partition(self._ects[rows], 1, axis=1)
        best = partitioned[:, 0]
        fit_count = np.sum(self._fits[rows], axis=1)
        return best, np.where(fit_count <= 1, best, partitioned[:, 1])

    def second_best_ects(self, rows: np.ndarray) -> np.ndarray:
        """Second-smallest ECT per row, over the *fitting* clusters only.

        Mirrors :attr:`JobEstimate.second_best_ect`: with a single fitting
        cluster the second-best equals the best (not the ``inf`` padding of
        the non-fitting columns), and with none it is ``inf``.
        """
        return self._best_and_second(rows)[1]

    def current_ects(self, rows: np.ndarray) -> np.ndarray:
        """Current ECT per row."""
        return self._current_ect[rows]

    def gains(self, rows: np.ndarray) -> np.ndarray:
        """Seconds gained by moving to the best cluster (JobEstimate.gain)."""
        best = self.best_ects(rows)
        current = self._current_ect[rows]
        with np.errstate(invalid="ignore"):
            raw = current - best
        return np.where(
            np.isfinite(best),
            np.where(np.isfinite(current), raw, np.inf),
            -np.inf,
        )

    def relative_gains(self, rows: np.ndarray) -> np.ndarray:
        """Gain divided by the processor count (MaxRelGain criterion)."""
        return self.gains(rows) / self._procs[rows]

    def sufferages(self, rows: np.ndarray) -> np.ndarray:
        """Difference between the two best ECTs (Sufferage criterion)."""
        best, second = self._best_and_second(rows)
        with np.errstate(invalid="ignore"):
            raw = second - best
        return np.where(
            np.isfinite(best),
            np.where(np.isfinite(second), raw, np.inf),
            0.0,
        )

    def __len__(self) -> int:
        return self._alive_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EstimateMatrix({self.n_clusters} clusters, "
            f"{self._alive_count}/{self._size} rows alive)"
        )
