"""Per-record reference of :func:`repro.core.metrics.compare_runs`.

Walks the completion-time dicts job by job, the way the original object
pipeline did; ``tests/test_jobtable.py`` holds the columnar
:func:`~repro.core.metrics.compare_tables` to it bit for bit.
"""

from __future__ import annotations

from repro.core.metrics import COMPLETION_TOLERANCE, ComparisonMetrics
from repro.core.results import RunResult


def compare_runs_reference(
    baseline: RunResult,
    realloc: RunResult,
    tolerance: float = COMPLETION_TOLERANCE,
) -> ComparisonMetrics:
    """The paper's four metrics for a (baseline, reallocation) pair."""
    base_completions = baseline.completion_times()
    realloc_completions = realloc.completion_times()
    common = sorted(set(base_completions) & set(realloc_completions))
    impacted = [
        job_id
        for job_id in common
        if abs(realloc_completions[job_id] - base_completions[job_id]) > tolerance
    ]
    n_common = len(common)
    n_impacted = len(impacted)
    earlier = sum(
        1 for job_id in impacted if realloc_completions[job_id] < base_completions[job_id]
    )

    if n_impacted:
        base_mean = sum(
            base_completions[job_id] - baseline[job_id].submit_time for job_id in impacted
        ) / n_impacted
        realloc_mean = sum(
            realloc_completions[job_id] - realloc[job_id].submit_time for job_id in impacted
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
        reallocations=realloc.total_reallocations,
        earlier_jobs=earlier,
        pct_earlier=pct_earlier,
        relative_response_time=relative,
    )
