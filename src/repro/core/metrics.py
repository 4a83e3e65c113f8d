"""Evaluation metrics of Section 3.4 of the paper.

Every metric compares a run *with* reallocation against the *same* scenario
run *without* reallocation (the reference experiment):

* **Jobs impacted by reallocation** — percentage of jobs whose completion
  time changed (system metric, Tables 2, 3, 10, 11).
* **Number of reallocations** — how many times jobs were moved between
  clusters; a job moved twice counts twice (system metric, Tables 4, 5,
  12, 13).
* **Jobs finishing earlier** — among the impacted jobs, the percentage that
  finished earlier with reallocation (user metric, Tables 6, 7, 14, 15).
* **Relative average response time** — mean response time of the impacted
  jobs with reallocation divided by their mean response time without; a
  value below 1 is a gain (user metric, Tables 8, 9, 16, 17).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Dict, Mapping, Tuple

import numpy as np

from repro.core.results import RunResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.batch.jobtable import JobTable

#: Completion-time differences below this many seconds are considered
#: unchanged (guards against floating-point noise in the simulation).
COMPLETION_TOLERANCE = 1e-6


@dataclass(frozen=True, slots=True)
class ComparisonMetrics:
    """The four metrics of the paper for one (baseline, reallocation) pair."""

    #: number of jobs completed in both runs (the comparison population)
    compared_jobs: int
    #: number of jobs whose completion time changed
    impacted_jobs: int
    #: percentage of jobs whose completion time changed
    pct_impacted: float
    #: number of reallocations performed by the agent
    reallocations: int
    #: among impacted jobs, number finishing earlier with reallocation
    earlier_jobs: int
    #: among impacted jobs, percentage finishing earlier with reallocation
    pct_earlier: float
    #: mean response time of impacted jobs with reallocation divided by
    #: their mean response time without (1.0 when no job was impacted)
    relative_response_time: float

    @property
    def pct_later(self) -> float:
        """Among impacted jobs, percentage finishing later with reallocation."""
        return 100.0 - self.pct_earlier if self.impacted_jobs else 0.0

    @property
    def response_time_gain_pct(self) -> float:
        """Gain on the average response time, in percent (positive = faster)."""
        return (1.0 - self.relative_response_time) * 100.0

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON representation (used by :mod:`repro.store`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ComparisonMetrics":
        """Inverse of :meth:`to_dict`."""
        return cls(
            compared_jobs=int(data["compared_jobs"]),
            impacted_jobs=int(data["impacted_jobs"]),
            pct_impacted=float(data["pct_impacted"]),
            reallocations=int(data["reallocations"]),
            earlier_jobs=int(data["earlier_jobs"]),
            pct_earlier=float(data["pct_earlier"]),
            relative_response_time=float(data["relative_response_time"]),
        )


def compare_runs(
    baseline: RunResult,
    realloc: RunResult,
    tolerance: float = COMPLETION_TOLERANCE,
) -> ComparisonMetrics:
    """Compute the paper's four metrics for a (baseline, reallocation) pair.

    Both runs must cover the same trace; jobs missing from either run
    (never completed) are excluded from the comparison, as in the paper
    where only jobs with a completion time can be compared.

    This is a thin wrapper over :func:`compare_tables` — one metric
    semantics, computed columnar.  On table-backed results
    (:meth:`~repro.core.results.RunResult.to_table` is zero-copy there)
    no per-job object is built.  The per-record reference implementation
    lives in ``tests/oracles/metrics.py``.
    """
    return compare_tables(
        baseline.to_table(),
        realloc.to_table(),
        reallocations=realloc.total_reallocations,
        tolerance=tolerance,
    )


def _completed_columns(table: "JobTable") -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(job_ids, completions, submits)`` of completed rows, id-sorted."""
    completion = table.completion_time
    if completion is None:
        empty = np.empty(0, dtype=np.float64)
        return np.empty(0, dtype=np.int64), empty, empty
    mask = ~np.isnan(completion)
    ids = table.job_id[mask]
    order = np.argsort(ids, kind="stable")
    return ids[order], completion[mask][order], table.submit_time[mask][order]


def compare_tables(
    baseline: "JobTable",
    realloc: "JobTable",
    reallocations: int = 0,
    tolerance: float = COMPLETION_TOLERANCE,
) -> ComparisonMetrics:
    """Columnar counterpart of :func:`compare_runs`.

    Operates on two outcome-bearing
    :class:`~repro.batch.jobtable.JobTable` snapshots (see
    :meth:`~repro.core.results.RunResult.to_table`): the comparison
    population, impacted set and response-time means are NumPy reductions
    over the id-aligned completion columns instead of per-record dict
    walks, which is the form that scales to archive-size traces.  The
    table form does not carry run-level counters, so the reallocation
    count of the comparison is passed explicitly.

    Semantics match the per-record reference in ``tests/oracles/metrics.py``
    (the differential test in ``tests/test_jobtable.py`` holds the two to
    each other), including
    bit-identical float aggregates: the response-time sums run
    sequentially in ascending job-id order, the same order and
    associativity as the reference path.
    """
    base_ids, base_completions, base_submits = _completed_columns(baseline)
    re_ids, re_completions, re_submits = _completed_columns(realloc)
    _, base_idx, re_idx = np.intersect1d(
        base_ids, re_ids, assume_unique=True, return_indices=True
    )
    base_comp = base_completions[base_idx]
    re_comp = re_completions[re_idx]
    n_common = base_comp.shape[0]

    impacted = np.abs(re_comp - base_comp) > tolerance
    n_impacted = int(np.count_nonzero(impacted))
    earlier = int(np.count_nonzero(impacted & (re_comp < base_comp)))

    if n_impacted:
        # cumsum (not np.sum) so the additions stay strictly sequential:
        # np.sum's pairwise blocking would diverge from the reference
        # implementation in the last ulp on large impacted sets.
        base_mean = float(
            np.cumsum(base_comp[impacted] - base_submits[base_idx][impacted])[-1]
        ) / n_impacted
        realloc_mean = float(
            np.cumsum(re_comp[impacted] - re_submits[re_idx][impacted])[-1]
        ) / n_impacted
        relative = realloc_mean / base_mean if base_mean > 0 else 1.0
        pct_earlier = 100.0 * earlier / n_impacted
    else:
        relative = 1.0
        pct_earlier = 0.0

    return ComparisonMetrics(
        compared_jobs=n_common,
        impacted_jobs=n_impacted,
        pct_impacted=100.0 * n_impacted / n_common if n_common else 0.0,
        reallocations=reallocations,
        earlier_jobs=earlier,
        pct_earlier=pct_earlier,
        relative_response_time=relative,
    )
