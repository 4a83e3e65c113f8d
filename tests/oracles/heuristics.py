"""Object-based reference of the six selection heuristics.

One :class:`JobEstimate` per candidate holds its per-cluster ECTs; a
heuristic's decision is a ``min`` over scalar keys with the
``(submit_time, job_id)`` tie-break.  The production
:meth:`repro.core.heuristics.Heuristic.select_index` must pick the same
job bit for bit (``tests/test_estimation_matrix.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.batch.job import Job
from repro.core.heuristics import Heuristic


@dataclass(frozen=True, slots=True)
class JobEstimate:
    """Per-cluster completion estimates of one candidate job.

    Parameters
    ----------
    job:
        The candidate job.
    current_cluster:
        Cluster where the job currently waits (Algorithm 1) or waited
        before being cancelled (Algorithm 2).
    current_ect:
        Expected completion time at its current (or previous) location.
    ects:
        Expected completion time on every cluster of the platform the job
        fits on, including the current one.
    """

    job: Job
    current_cluster: Optional[str]
    current_ect: float
    ects: Dict[str, float]

    @property
    def best_cluster(self) -> Optional[str]:
        """Cluster with the minimum ECT (``None`` if the job fits nowhere)."""
        if not self.ects:
            return None
        return min(self.ects.items(), key=lambda item: (item[1], item[0]))[0]

    @property
    def best_ect(self) -> float:
        """Minimum ECT over all clusters."""
        if not self.ects:
            return math.inf
        return min(self.ects.values())

    @property
    def second_best_ect(self) -> float:
        """Second smallest ECT (equals :attr:`best_ect` with a single cluster)."""
        if not self.ects:
            return math.inf
        values = sorted(self.ects.values())
        return values[1] if len(values) > 1 else values[0]

    @property
    def best_other_cluster(self) -> Optional[str]:
        """Cluster with the minimum ECT excluding the current one."""
        others = {
            name: ect for name, ect in self.ects.items() if name != self.current_cluster
        }
        if not others:
            return None
        return min(others.items(), key=lambda item: (item[1], item[0]))[0]

    @property
    def best_other_ect(self) -> float:
        """Minimum ECT over the clusters other than the current one."""
        others = [ect for name, ect in self.ects.items() if name != self.current_cluster]
        return min(others) if others else math.inf

    @property
    def gain(self) -> float:
        """Seconds gained by moving to the best cluster (may be negative)."""
        best = self.best_ect
        if not math.isfinite(best) or not math.isfinite(self.current_ect):
            return -math.inf if not math.isfinite(best) else math.inf
        return self.current_ect - best

    @property
    def relative_gain(self) -> float:
        """Gain divided by the job's processor count (MaxRelGain criterion)."""
        return self.gain / self.job.procs

    @property
    def sufferage(self) -> float:
        """Difference between the two best ECTs (Sufferage criterion)."""
        best = self.best_ect
        second = self.second_best_ect
        if not math.isfinite(best):
            return 0.0
        if not math.isfinite(second):
            return math.inf
        return second - best


def _negated(value: float, missing: float) -> float:
    """``-value`` for a finite value, ``missing`` otherwise."""
    return -value if math.isfinite(value) else missing


#: Scalar selection key (minimised) of each heuristic, by name.
KEYS: Dict[str, Callable[[JobEstimate], float]] = {
    "mct": lambda est: est.job.submit_time,
    "minmin": lambda est: est.best_ect,
    "maxmin": lambda est: _negated(est.best_ect, math.inf),
    "maxgain": lambda est: _negated(est.gain, math.inf),
    "maxrelgain": lambda est: _negated(est.relative_gain, math.inf),
    "sufferage": lambda est: _negated(est.sufferage, -math.inf),
}


def _rank(heuristic: Heuristic, estimate: JobEstimate) -> Tuple[float, float, int]:
    return (KEYS[heuristic.name](estimate), estimate.job.submit_time, estimate.job.job_id)


def select(heuristic: Heuristic, candidates: Sequence[JobEstimate]) -> JobEstimate:
    """Pick the next job among ``candidates``; raises on an empty set."""
    if not candidates:
        raise ValueError(f"{heuristic.name}: cannot select from an empty candidate set")
    return min(candidates, key=lambda est: _rank(heuristic, est))


def order(heuristic: Heuristic, candidates: Sequence[JobEstimate]) -> List[JobEstimate]:
    """Full ordering of the candidates, best first."""
    return sorted(candidates, key=lambda est: _rank(heuristic, est))
