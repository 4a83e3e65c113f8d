"""Rebuild reference of the reallocation tick.

:class:`RebuildAgent` is a :class:`~repro.grid.reallocation.ReallocationAgent`
whose ticks ignore the persistent engine.  Every tick builds a fresh
:class:`~repro.grid.reallocation.ReallocationEngine` with the production
build methods, Algorithm 2 cancels the waiting jobs one by one through
:meth:`BatchServer.cancel`, and every action is followed by a column
refresh of the touched clusters and a new selection.  The production
agent must make the same moves (``tests/test_reallocation_incremental.py``).
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.batch.job import Job, JobState
from repro.grid.reallocation import ReallocationAgent, ReallocationEngine

from oracles.heuristics import JobEstimate


def estimate_of(table: ReallocationEngine, job_id: int) -> JobEstimate:
    """Materialise the :class:`JobEstimate` of one candidate of ``table``."""
    matrix = table.matrix
    row = matrix.row_of(job_id)
    current_cluster, current_ect = matrix.current_of(row)
    return JobEstimate(
        job=table.job_of(job_id),
        current_cluster=current_cluster,
        current_ect=current_ect,
        ects=matrix.row_ects(row),
    )


class RebuildAgent(ReallocationAgent):
    """Reallocation agent that rebuilds its estimate table at every tick."""

    def _select(self, table: ReallocationEngine) -> JobEstimate:
        matrix = table.matrix
        job_id = matrix.job_id_at(self.heuristic.select_index(matrix))
        return estimate_of(table, job_id)

    def _tick_standard(self) -> int:
        moves = 0
        table = ReallocationEngine(self.servers)
        table.add_waiting_many(
            [
                (job, self._servers_by_name[job.cluster].planned_completion(job))
                for job in self._collect_waiting()
            ]
        )
        prune = True
        while table.matrix.alive_count:
            # Prune candidates that started meanwhile (cancelling a queue
            # head can let the local scheduler start jobs behind it).  Job
            # states only change in a move's cancel and submit, so the scan
            # runs once up front and once after each move.
            if prune:
                prune = False
                for job_id in table.matrix.alive_job_ids():
                    if table.job_of(job_id).state is not JobState.WAITING:
                        table.discard(job_id)
                if not table.matrix.alive_count:
                    break
            chosen = self._select(table)
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
                self._servers_by_name[origin_name].cancel(job)
                self._servers_by_name[new_cluster].submit(job)
                job.reallocation_count += 1
                self.total_reallocations += 1
                moves += 1
                prune = True
                table.refresh_clusters({origin_name, new_cluster})
        return moves

    def _tick_cancellation(self) -> int:
        moves = 0
        previous_cluster: Dict[int, str] = {}
        cancelled: List[Job] = []
        for job in self._collect_waiting():
            # A job may start while earlier jobs of the snapshot are being
            # cancelled; it then stays where it is.
            if job.state is not JobState.WAITING or job.cluster is None:
                continue
            previous_cluster[job.job_id] = job.cluster
            self._servers_by_name[job.cluster].cancel(job)
            cancelled.append(job)
        self.cancelled_resubmissions += len(cancelled)

        # One table serves the whole tick: every (job, cluster) estimate of
        # the cancelled set is computed once here, then only the cluster
        # touched by each resubmission is refreshed.
        table = ReallocationEngine(self.servers)
        table.add_cancelled_many(cancelled, previous_cluster)
        while table.matrix.alive_count:
            chosen = self._select(table)
            job = chosen.job
            target_name = chosen.best_cluster
            if target_name is None:
                # Fits nowhere (cannot happen for jobs that were waiting, but
                # keep the queue consistent by putting it back where it was).
                target_name = previous_cluster[job.job_id]
            self._servers_by_name[target_name].submit(job)
            if target_name != previous_cluster[job.job_id]:
                job.reallocation_count += 1
                self.total_reallocations += 1
                moves += 1
            table.discard(job.job_id)
            table.refresh_clusters({target_name})
        return moves
