"""Core contribution of the paper: rescheduling heuristics and evaluation metrics.

* :mod:`repro.core.heuristics` — the six job-selection heuristics compared
  by the paper (MCT, MinMin, MaxMin, MaxGain, MaxRelGain, Sufferage),
  operating on per-job, per-cluster completion-time estimates.
* :mod:`repro.core.estimation` — the columnar estimation engine: a
  NumPy-backed (candidates × clusters) ECT matrix with stable row/column
  index maps, backing the heuristics' vectorised ``select_index`` path.
* :mod:`repro.core.results` — per-job records and per-run result containers
  produced by the grid simulation.
* :mod:`repro.core.metrics` — the four evaluation metrics of Section 3.4,
  computed by comparing a run with reallocation against the baseline run
  without reallocation.
"""

from repro.core.estimation import EstimateMatrix
from repro.core.heuristics import (
    HEURISTIC_NAMES,
    Heuristic,
    MaxGain,
    MaxMin,
    MaxRelGain,
    MctOrder,
    MinMin,
    Sufferage,
    get_heuristic,
)
from repro.core.metrics import ComparisonMetrics, compare_runs, compare_tables
from repro.core.results import JobRecord, RunResult

__all__ = [
    "ComparisonMetrics",
    "EstimateMatrix",
    "HEURISTIC_NAMES",
    "Heuristic",
    "JobRecord",
    "MaxGain",
    "MaxMin",
    "MaxRelGain",
    "MctOrder",
    "MinMin",
    "RunResult",
    "Sufferage",
    "compare_runs",
    "compare_tables",
    "get_heuristic",
]
