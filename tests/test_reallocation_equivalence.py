"""Cross-check of the reallocation agent against a naive reference.

The production :class:`~repro.grid.reallocation.ReallocationAgent` keeps an
incrementally refreshed table of per-cluster ECTs (only the clusters touched
by a move are re-queried).  These tests re-implement both algorithms naively
— re-querying every estimate from scratch at every step, exactly as written
in the paper's pseudo-code — and check that, starting from identical cluster
states, the naive reference and the production agent make the same moves.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.batch.job import Job, JobState
from repro.batch.server import BatchServer
from repro.core.heuristics import get_heuristic
from repro.grid.metascheduler import MetaScheduler
from repro.grid.reallocation import ReallocationAgent
from repro.sim.kernel import SimulationKernel
from oracles.heuristics import JobEstimate, select

CLUSTERS = (("one", 8, 1.0), ("two", 6, 1.3), ("three", 4, 1.6))


def build_state(seed: int):
    """A deterministic mid-simulation state: running jobs plus waiting queues."""
    rng = np.random.default_rng(seed)
    kernel = SimulationKernel()
    servers = [
        BatchServer(kernel, name, procs, speed, policy="fcfs")
        for name, procs, speed in CLUSTERS
    ]
    scheduler = MetaScheduler(servers)
    for job_id in range(40):
        job = Job(
            job_id=job_id,
            submit_time=float(job_id),
            procs=int(rng.integers(1, 7)),
            runtime=float(rng.uniform(50.0, 2000.0)),
            walltime=float(rng.uniform(2000.0, 6000.0)),
        )
        scheduler.submit(job)
    return kernel, servers


def naive_estimate(servers, job, current_cluster, current_ect):
    ects = {}
    for server in servers:
        if not server.fits(job):
            continue
        if server.name == current_cluster and job.state is JobState.WAITING:
            ects[server.name] = current_ect
        else:
            ects[server.name] = server.estimate_completion(job)
    return JobEstimate(job=job, current_cluster=current_cluster,
                       current_ect=current_ect, ects=ects)


def naive_algorithm1(servers, heuristic_name, threshold=60.0):
    """Paper pseudo-code of Algorithm 1, re-querying everything at each step."""
    heuristic = get_heuristic(heuristic_name)
    by_name = {server.name: server for server in servers}
    remaining = [job for server in servers for job in server.waiting_jobs()]
    moves = []
    while remaining:
        remaining = [j for j in remaining if j.state is JobState.WAITING]
        if not remaining:
            break
        candidates = [
            naive_estimate(servers, job, job.cluster,
                           by_name[job.cluster].planned_completion(job))
            for job in remaining
        ]
        chosen = select(heuristic, candidates)
        job = chosen.job
        target = chosen.best_other_cluster
        if (
            target is not None
            and math.isfinite(chosen.best_other_ect)
            and chosen.best_other_ect + threshold < chosen.current_ect
        ):
            by_name[job.cluster].cancel(job)
            by_name[target].submit(job)
            moves.append((job.job_id, target))
        remaining = [j for j in remaining if j.job_id != job.job_id]
    return moves


def naive_algorithm2(servers, heuristic_name):
    """Paper pseudo-code of Algorithm 2 (cancel everything, resubmit)."""
    heuristic = get_heuristic(heuristic_name)
    by_name = {server.name: server for server in servers}
    waiting = [job for server in servers for job in server.waiting_jobs()]
    previous = {}
    cancelled = []
    for job in waiting:
        if job.state is not JobState.WAITING:
            continue
        previous[job.job_id] = job.cluster
        by_name[job.cluster].cancel(job)
        cancelled.append(job)
    placements = []
    remaining = list(cancelled)
    while remaining:
        candidates = [
            naive_estimate(
                servers, job, previous[job.job_id],
                by_name[previous[job.job_id]].estimate_completion(job),
            )
            for job in remaining
        ]
        chosen = select(heuristic, candidates)
        job = chosen.job
        target = chosen.best_cluster or previous[job.job_id]
        by_name[target].submit(job)
        placements.append((job.job_id, target))
        remaining = [j for j in remaining if j.job_id != job.job_id]
    return placements


def waiting_assignment(servers):
    """job id -> cluster for every job currently waiting or running."""
    assignment = {}
    for server in servers:
        for job in server.waiting_jobs():
            assignment[job.job_id] = ("waiting", server.name)
        for entry in server.running_snapshot():
            assignment[entry.job.job_id] = ("running", server.name)
    return assignment


HEURISTICS = ("mct", "minmin", "maxmin", "maxgain", "maxrelgain", "sufferage")
SEEDS = (3, 17)


class TestAlgorithm1Equivalence:
    @pytest.mark.parametrize("heuristic", HEURISTICS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_moves_as_naive_reference(self, heuristic, seed):
        _, naive_servers = build_state(seed)
        naive_moves = naive_algorithm1(naive_servers, heuristic)

        kernel, servers = build_state(seed)
        agent = ReallocationAgent(kernel, servers, heuristic=heuristic, algorithm="standard")
        agent.run_once()

        assert agent.total_reallocations == len(naive_moves)
        assert waiting_assignment(servers) == waiting_assignment(naive_servers)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_some_reallocation_happens_in_the_generated_state(self, seed):
        # Guard: the fixture states must actually exercise the algorithms.
        kernel, servers = build_state(seed)
        assert sum(server.queue_length for server in servers) > 5


class TestAlgorithm2Equivalence:
    @pytest.mark.parametrize("heuristic", HEURISTICS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_placements_as_naive_reference(self, heuristic, seed):
        _, naive_servers = build_state(seed)
        naive_placements = naive_algorithm2(naive_servers, heuristic)

        kernel, servers = build_state(seed)
        agent = ReallocationAgent(kernel, servers, heuristic=heuristic, algorithm="cancellation")
        agent.run_once()

        assert waiting_assignment(servers) == waiting_assignment(naive_servers)
        # Sanity on the reference itself: the cancellation pass really did
        # resubmit a non-trivial number of jobs.
        assert len(naive_placements) > 5
