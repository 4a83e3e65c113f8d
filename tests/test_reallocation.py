"""Tests for the reallocation agent (Algorithms 1 and 2)."""

from __future__ import annotations

import math

import pytest

from repro.batch.job import JobState
from repro.experiments.config import ExperimentConfig
from repro.grid.reallocation import (
    DEFAULT_PERIOD,
    DEFAULT_THRESHOLD,
    ReallocationAgent,
    ReallocationAlgorithm,
)
from repro.service.service import ServiceConfig
from repro.sim.events import EventType
from repro.sim.kernel import SimulationKernel
from tests.conftest import make_job, make_server


def loaded_pair(kernel, other_walltime=900.0):
    """Two 4-processor clusters.

    Cluster 1 runs a job until t=1000 and queues a 100-second job (planned
    completion 1100).  Cluster 2 runs a job until ``other_walltime``; the
    queued job's ECT there is ``other_walltime + 100``.
    """
    s1 = make_server(kernel, "one", procs=4)
    s2 = make_server(kernel, "two", procs=4)
    r1 = make_job(1, procs=4, runtime=1000.0, walltime=1000.0)
    r2 = make_job(2, procs=4, runtime=other_walltime, walltime=other_walltime)
    waiting = make_job(3, procs=4, runtime=100.0, walltime=100.0)
    s1.submit(r1)
    s2.submit(r2)
    s1.submit(waiting)
    return s1, s2, waiting


class TestAlgorithm1:
    def test_moves_job_when_other_cluster_is_better(self, kernel):
        s1, s2, waiting = loaded_pair(kernel, other_walltime=900.0)
        agent = ReallocationAgent(kernel, [s1, s2], heuristic="mct", algorithm="standard")
        moves = agent.run_once()
        assert moves == 1
        assert agent.total_reallocations == 1
        assert waiting.cluster == "two"
        assert waiting.reallocation_count == 1
        assert s1.queue_length == 0
        assert s2.queue_length == 1

    def test_no_move_when_improvement_below_threshold(self, kernel):
        # ECT on cluster two would be 1080, only 20 seconds better than 1100.
        s1, s2, waiting = loaded_pair(kernel, other_walltime=980.0)
        agent = ReallocationAgent(kernel, [s1, s2], heuristic="mct", algorithm="standard")
        assert agent.run_once() == 0
        assert waiting.cluster == "one"

    def test_zero_threshold_allows_small_improvements(self, kernel):
        s1, s2, waiting = loaded_pair(kernel, other_walltime=980.0)
        agent = ReallocationAgent(
            kernel, [s1, s2], heuristic="mct", algorithm="standard", threshold=0.0
        )
        assert agent.run_once() == 1
        assert waiting.cluster == "two"

    def test_no_move_when_current_cluster_is_best(self, kernel):
        s1, s2, waiting = loaded_pair(kernel, other_walltime=1200.0)
        agent = ReallocationAgent(kernel, [s1, s2], heuristic="minmin", algorithm="standard")
        assert agent.run_once() == 0
        assert waiting.cluster == "one"

    def test_running_jobs_are_never_touched(self, kernel):
        s1, s2, _ = loaded_pair(kernel)
        running_before = {j.job.job_id for j in s1.running_snapshot()} | {
            j.job.job_id for j in s2.running_snapshot()
        }
        agent = ReallocationAgent(kernel, [s1, s2], heuristic="sufferage", algorithm="standard")
        agent.run_once()
        running_after = {j.job.job_id for j in s1.running_snapshot()} | {
            j.job.job_id for j in s2.running_snapshot()
        }
        assert running_before == running_after

    def test_moved_job_completes_on_new_cluster(self, kernel):
        s1, s2, waiting = loaded_pair(kernel, other_walltime=500.0)
        agent = ReallocationAgent(kernel, [s1, s2], heuristic="mct", algorithm="standard")
        agent.run_once()
        kernel.run()
        assert waiting.state is JobState.COMPLETED
        assert waiting.cluster == "two"
        assert waiting.completion_time == pytest.approx(600.0)

    def test_every_heuristic_handles_the_simple_case(self, kernel):
        for heuristic in ("mct", "minmin", "maxmin", "maxgain", "maxrelgain", "sufferage"):
            local_kernel = type(kernel)()
            s1, s2, waiting = loaded_pair(local_kernel, other_walltime=700.0)
            agent = ReallocationAgent(
                local_kernel, [s1, s2], heuristic=heuristic, algorithm="standard"
            )
            assert agent.run_once() == 1, heuristic
            assert waiting.cluster == "two", heuristic

    def test_multiple_jobs_can_move(self, kernel):
        s1 = make_server(kernel, "one", procs=4)
        s2 = make_server(kernel, "two", procs=4)
        s1.submit(make_job(1, procs=4, runtime=2000.0, walltime=2000.0))
        s2.submit(make_job(2, procs=4, runtime=100.0, walltime=100.0))
        queued = [make_job(10 + i, procs=2, runtime=100.0, walltime=100.0) for i in range(2)]
        for job in queued:
            s1.submit(job)
        agent = ReallocationAgent(kernel, [s1, s2], heuristic="minmin", algorithm="standard")
        moves = agent.run_once()
        assert moves == 2
        assert all(job.cluster == "two" for job in queued)

    def test_candidate_started_mid_tick_is_pruned(self, kernel):
        # FCFS cluster one: 2 of its 4 processors run until t=1000, the
        # head needs all 4 and waits for them, and the 2-processor job
        # behind it may not start before the head.  Moving the head to the
        # idle, twice as fast cluster two lets that job start at once,
        # mid-tick; its stale row would still show a gain on two (end 100
        # there, 200 on one), so the tick must drop it instead of trying
        # to move a running job.
        s1 = make_server(kernel, "one", procs=4)
        s2 = make_server(kernel, "two", procs=4, speed=2.0)
        s1.submit(make_job(1, procs=2, runtime=1000.0, walltime=1000.0))
        head = make_job(2, procs=4, runtime=100.0, walltime=100.0)
        behind = make_job(3, procs=2, runtime=100.0, walltime=100.0)
        s1.submit(head)
        s1.submit(behind)
        assert s1.planned_completion(behind) == 1200.0
        agent = ReallocationAgent(kernel, [s1, s2], heuristic="mct", algorithm="standard")
        assert agent.run_once() == 1
        assert head.cluster == "two" and head.reallocation_count == 1
        assert behind.state is JobState.RUNNING
        assert behind.cluster == "one" and behind.start_time == 0.0
        assert behind.reallocation_count == 0
        assert agent.engine.matrix.alive_count == 0


class TestAlgorithm2:
    def build(self, kernel):
        s1 = make_server(kernel, "one", procs=2)
        s2 = make_server(kernel, "two", procs=2)
        blocker = make_job(1, procs=2, runtime=500.0, walltime=500.0)
        s1.submit(blocker)
        job_a = make_job(2, submit_time=0.0, procs=2, runtime=300.0, walltime=300.0)
        job_b = make_job(3, submit_time=1.0, procs=1, runtime=100.0, walltime=100.0)
        s1.submit(job_a)
        s1.submit(job_b)
        return s1, s2, job_a, job_b

    def test_all_waiting_jobs_are_replaced(self, kernel):
        s1, s2, job_a, job_b = self.build(kernel)
        agent = ReallocationAgent(kernel, [s1, s2], heuristic="mct", algorithm="cancellation")
        agent.run_once()
        # No job is lost: both are now either waiting or running somewhere.
        assert job_a.state in (JobState.WAITING, JobState.RUNNING)
        assert job_b.state in (JobState.WAITING, JobState.RUNNING)
        assert job_a.cluster == "two"
        assert job_b.cluster == "two"
        assert agent.total_reallocations == 2

    def test_minmin_starts_the_small_job_first(self, kernel):
        s1, s2, job_a, job_b = self.build(kernel)
        agent = ReallocationAgent(kernel, [s1, s2], heuristic="minmin", algorithm="cancellation")
        agent.run_once()
        # MinMin resubmits the short job first, so it grabs cluster two now.
        assert job_b.state is JobState.RUNNING
        assert job_a.state is JobState.WAITING

    def test_maxmin_starts_the_large_job_first(self, kernel):
        s1, s2, job_a, job_b = self.build(kernel)
        agent = ReallocationAgent(kernel, [s1, s2], heuristic="maxmin", algorithm="cancellation")
        agent.run_once()
        assert job_a.state is JobState.RUNNING
        assert job_b.state is JobState.WAITING

    def test_reallocation_counted_only_on_cluster_change(self, kernel):
        # A single cluster: cancellation resubmits everything in place, so
        # no reallocation should be counted.
        s1 = make_server(kernel, "one", procs=2)
        s1.submit(make_job(1, procs=2, runtime=500.0, walltime=500.0))
        waiting = make_job(2, procs=2, runtime=50.0, walltime=50.0)
        s1.submit(waiting)
        agent = ReallocationAgent(kernel, [s1], heuristic="mct", algorithm="cancellation")
        agent.run_once()
        assert agent.total_reallocations == 0
        assert waiting.cluster == "one"
        assert waiting.state is JobState.WAITING

    def test_jobs_complete_after_cancellation_tick(self, kernel):
        s1, s2, job_a, job_b = self.build(kernel)
        agent = ReallocationAgent(kernel, [s1, s2], heuristic="minmin", algorithm="cancellation")
        agent.run_once()
        kernel.run()
        assert job_a.state is JobState.COMPLETED
        assert job_b.state is JobState.COMPLETED


class TestTickScheduling:
    def test_first_tick_one_period_after_first_submission(self, kernel):
        s1 = make_server(kernel, "one", procs=4)
        agent = ReallocationAgent(kernel, [s1], heuristic="mct", has_pending_work=lambda: False)
        agent.start(first_submit_time=100.0)
        kernel.run()
        assert agent.tick_count == 1
        assert kernel.now == pytest.approx(100.0 + DEFAULT_PERIOD)

    def test_ticks_repeat_while_work_pending(self, kernel):
        s1 = make_server(kernel, "one", procs=4)
        pending = {"value": True}
        agent = ReallocationAgent(
            kernel, [s1], heuristic="mct", period=100.0,
            has_pending_work=lambda: pending["value"],
        )
        agent.start(first_submit_time=0.0)
        kernel.run(until=450.0)
        assert agent.tick_count == 4  # ticks at 100, 200, 300, 400
        pending["value"] = False
        kernel.run()
        assert agent.tick_count == 5  # one final tick, then no rescheduling

    def test_start_is_idempotent(self, kernel):
        s1 = make_server(kernel, "one", procs=4)
        agent = ReallocationAgent(kernel, [s1], heuristic="mct", has_pending_work=lambda: False)
        agent.start(0.0)
        agent.start(0.0)
        kernel.run()
        assert agent.tick_count == 1

    def test_tick_events_use_reallocation_priority(self, kernel):
        s1 = make_server(kernel, "one", procs=4)
        agent = ReallocationAgent(kernel, [s1], heuristic="mct", has_pending_work=lambda: False)
        agent.start(0.0)
        assert kernel.pending_events == 1
        event = kernel._queue.peek()
        assert event.event_type is EventType.REALLOCATION


def _agent(period, threshold):
    kernel = SimulationKernel()
    return ReallocationAgent(kernel, [make_server(kernel)], period=period, threshold=threshold)


#: Every constructor taking a reallocation period and threshold; all three
#: share ``repro.grid.reallocation.check_timing``.
TIMED = {
    "agent": _agent,
    "service": lambda period, threshold: ServiceConfig(
        reallocation_interval=period, reallocation_threshold=threshold
    ),
    "experiment": lambda period, threshold: ExperimentConfig(
        "jan", algorithm="standard",
        reallocation_period=period, reallocation_threshold=threshold,
    ),
}


class TestTimingValidation:
    @pytest.mark.parametrize("owner", sorted(TIMED))
    @pytest.mark.parametrize("period", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_period(self, owner, period):
        with pytest.raises(ValueError, match="period"):
            TIMED[owner](period, DEFAULT_THRESHOLD)

    @pytest.mark.parametrize("owner", sorted(TIMED))
    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -1.0])
    def test_rejects_bad_threshold(self, owner, threshold):
        with pytest.raises(ValueError, match="threshold"):
            TIMED[owner](DEFAULT_PERIOD, threshold)

    @pytest.mark.parametrize("owner", sorted(TIMED))
    def test_accepts_zero_threshold(self, owner):
        TIMED[owner](DEFAULT_PERIOD, 0.0)


class TestValidation:
    def test_requires_servers(self, kernel):
        with pytest.raises(ValueError):
            ReallocationAgent(kernel, [])

    def test_algorithm_from_string(self, kernel):
        agent = ReallocationAgent(kernel, [make_server(kernel)], algorithm="cancellation")
        assert agent.algorithm is ReallocationAlgorithm.CANCELLATION

    def test_defaults_match_paper(self, kernel):
        agent = ReallocationAgent(kernel, [make_server(kernel)])
        assert agent.period == DEFAULT_PERIOD == 3600.0
        assert agent.threshold == DEFAULT_THRESHOLD == 60.0
        assert agent.algorithm is ReallocationAlgorithm.STANDARD
