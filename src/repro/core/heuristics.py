"""Job-selection heuristics for the reallocation algorithms.

Section 2.2.2 of the paper compares one online heuristic (MCT) and five
offline heuristics (MinMin, MaxMin, MaxGain, MaxRelGain, Sufferage).  At
each step of a reallocation event the heuristic picks, among the remaining
candidate jobs, the next one to (re)schedule.  The inputs of a decision are
the per-cluster expected completion times (ECTs) of every candidate, held
in the rows of an :class:`~repro.core.estimation.EstimateMatrix`.

All heuristics are deterministic: ties on the selection criterion are
broken by the job's submission time and then its id, so experiments are
exactly reproducible.  :meth:`Heuristic.select_index` is an argmin of the
heuristic's :meth:`~Heuristic.key_array` over the alive matrix rows, with
the (submit_time, job_id) tie-break applied as secondary sort keys.

The object-based reference — one estimate object per candidate and a
``min`` over scalar keys — lives in ``tests/oracles/heuristics.py``;
``tests/test_estimation_matrix.py`` holds the two to each other bit for
bit on randomized inputs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple, Type

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (estimation is numbers-only)
    from repro.core.estimation import EstimateMatrix


class Heuristic:
    """Base class of the selection heuristics.

    Subclasses implement :meth:`key_array`, the per-row value to be
    minimised when choosing the next job.  ``name`` is the identifier used
    in tables and configuration files; ``online`` is True for heuristics
    whose ordering does not depend on the ECTs (the paper's O(n) case).
    """

    name: str = "abstract"
    online: bool = False

    def key_array(self, matrix: "EstimateMatrix", rows: np.ndarray) -> np.ndarray:
        """Selection keys (minimised) of the given matrix rows."""
        raise NotImplementedError  # pragma: no cover - abstract

    def select_index(
        self, matrix: "EstimateMatrix", rows: Optional[np.ndarray] = None
    ) -> int:
        """Pick the next candidate among the matrix rows; returns a row index.

        ``rows`` defaults to the matrix's alive rows.  The decision is the
        lexicographic minimum of ``(key, submit_time, job_id)``.

        Raises
        ------
        ValueError
            If there is no row to select from.
        """
        if rows is None:
            rows = matrix.alive_rows()
        else:
            rows = np.asarray(rows, dtype=np.intp)
        if rows.size == 0:
            raise ValueError(f"{self.name}: cannot select from an empty candidate set")
        keys = self.key_array(matrix, rows)
        tied = rows[keys == keys.min()]
        if tied.size > 1:
            submits = matrix.submit_times(tied)
            tied = tied[submits == submits.min()]
            if tied.size > 1:
                tied = tied[[np.argmin(matrix.job_ids(tied))]]
        return int(tied[0])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class MctOrder(Heuristic):
    """MCT: take jobs sequentially in their submission order (online)."""

    name = "mct"
    online = True

    def key_array(self, matrix: "EstimateMatrix", rows: np.ndarray) -> np.ndarray:
        return matrix.submit_times(rows)


class MinMin(Heuristic):
    """MinMin: pick the job with the smallest best ECT (favours small jobs)."""

    name = "minmin"

    def key_array(self, matrix: "EstimateMatrix", rows: np.ndarray) -> np.ndarray:
        return matrix.best_ects(rows)


class MaxMin(Heuristic):
    """MaxMin: pick the job with the largest best ECT (favours large jobs)."""

    name = "maxmin"

    def key_array(self, matrix: "EstimateMatrix", rows: np.ndarray) -> np.ndarray:
        best = matrix.best_ects(rows)
        return np.where(np.isfinite(best), -best, np.inf)


class MaxGain(Heuristic):
    """MaxGain: pick the job whose move yields the largest absolute gain."""

    name = "maxgain"

    def key_array(self, matrix: "EstimateMatrix", rows: np.ndarray) -> np.ndarray:
        gain = matrix.gains(rows)
        return np.where(np.isfinite(gain), -gain, np.inf)


class MaxRelGain(Heuristic):
    """MaxRelGain: MaxGain divided by the processor count (favours small jobs)."""

    name = "maxrelgain"

    def key_array(self, matrix: "EstimateMatrix", rows: np.ndarray) -> np.ndarray:
        gain = matrix.relative_gains(rows)
        return np.where(np.isfinite(gain), -gain, np.inf)


class Sufferage(Heuristic):
    """Sufferage: pick the job that suffers most from losing its best cluster."""

    name = "sufferage"

    def key_array(self, matrix: "EstimateMatrix", rows: np.ndarray) -> np.ndarray:
        value = matrix.sufferages(rows)
        return np.where(np.isfinite(value), -value, -np.inf)


_HEURISTICS: Dict[str, Type[Heuristic]] = {
    cls.name: cls
    for cls in (MctOrder, MinMin, MaxMin, MaxGain, MaxRelGain, Sufferage)
}

#: Canonical heuristic ordering used by every table of the paper.
HEURISTIC_NAMES: Tuple[str, ...] = ("mct", "minmin", "maxmin", "maxgain", "maxrelgain", "sufferage")

#: Pretty-printed heuristic labels, matching the paper's rows.
HEURISTIC_LABELS: Dict[str, str] = {
    "mct": "Mct",
    "minmin": "MinMin",
    "maxmin": "MaxMin",
    "maxgain": "MaxGain",
    "maxrelgain": "MaxRelGain",
    "sufferage": "Sufferage",
}


def get_heuristic(name: "str | Heuristic") -> Heuristic:
    """Instantiate a heuristic from its name (case-insensitive)."""
    if isinstance(name, Heuristic):
        return name
    key = name.lower().replace("-c", "").strip()
    if key not in _HEURISTICS:
        valid = ", ".join(HEURISTIC_NAMES)
        raise KeyError(f"unknown heuristic {name!r}; expected one of {valid}")
    return _HEURISTICS[key]()
