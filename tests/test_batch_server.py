"""Tests for the per-cluster batch server."""

from __future__ import annotations

import math

import pytest

from repro.batch.job import JobState
from repro.batch.server import BatchServerError
from tests.conftest import make_job, make_server


class TestSubmission:
    def test_job_starts_immediately_when_cluster_is_free(self, kernel):
        server = make_server(kernel, procs=4)
        job = make_job(1, procs=2, runtime=100.0)
        server.submit(job)
        assert job.state is JobState.RUNNING
        assert job.start_time == 0.0
        assert server.queue_length == 0
        kernel.run()
        assert job.state is JobState.COMPLETED
        assert job.completion_time == 100.0

    def test_job_waits_when_cluster_is_busy(self, kernel):
        server = make_server(kernel, procs=4)
        first = make_job(1, procs=4, runtime=100.0, walltime=100.0)
        second = make_job(2, procs=4, runtime=50.0, walltime=50.0)
        server.submit(first)
        server.submit(second)
        assert first.state is JobState.RUNNING
        assert second.state is JobState.WAITING
        kernel.run()
        assert second.start_time == 100.0
        assert second.completion_time == 150.0

    def test_early_completion_lets_next_job_start_sooner(self, kernel):
        server = make_server(kernel, procs=4)
        # walltime is 200 but the job actually runs 50 seconds
        first = make_job(1, procs=4, runtime=50.0, walltime=200.0)
        second = make_job(2, procs=4, runtime=10.0, walltime=100.0)
        server.submit(first)
        server.submit(second)
        kernel.run()
        assert second.start_time == 50.0
        assert second.completion_time == 60.0

    def test_oversized_job_rejected(self, kernel):
        server = make_server(kernel, procs=4)
        with pytest.raises(BatchServerError):
            server.submit(make_job(1, procs=5))

    def test_duplicate_submission_rejected(self, kernel):
        server = make_server(kernel, procs=4)
        job = make_job(1, procs=4, runtime=100.0)
        blocker = make_job(2, procs=4, runtime=100.0)
        server.submit(job)
        server.submit(blocker)
        with pytest.raises(BatchServerError):
            server.submit(blocker)

    def test_submission_counters(self, kernel):
        server = make_server(kernel, procs=4)
        server.submit(make_job(1, procs=1, runtime=10.0))
        server.submit(make_job(2, procs=1, runtime=10.0))
        kernel.run()
        assert server.submitted_count == 2
        assert server.started_count == 2
        assert server.completed_count == 2

    def test_walltime_kill(self, kernel):
        server = make_server(kernel, procs=4)
        job = make_job(1, procs=1, runtime=500.0, walltime=100.0)
        server.submit(job)
        kernel.run()
        assert job.killed is True
        assert job.completion_time == 100.0
        assert server.killed_count == 1

    def test_speed_scales_execution(self, kernel):
        server = make_server(kernel, procs=4, speed=2.0)
        job = make_job(1, procs=1, runtime=100.0, walltime=300.0)
        server.submit(job)
        kernel.run()
        assert job.completion_time == pytest.approx(50.0)


class TestCancellation:
    def test_cancel_waiting_job(self, kernel):
        server = make_server(kernel, procs=4)
        blocker = make_job(1, procs=4, runtime=100.0, walltime=100.0)
        waiting = make_job(2, procs=4, runtime=50.0, walltime=50.0)
        server.submit(blocker)
        server.submit(waiting)
        server.cancel(waiting)
        assert waiting.state is JobState.CANCELLED
        assert waiting.cluster is None
        assert server.queue_length == 0
        kernel.run()
        assert waiting.completion_time is None

    def test_cancel_running_job_raises(self, kernel):
        server = make_server(kernel, procs=4)
        job = make_job(1, procs=1, runtime=100.0)
        server.submit(job)
        with pytest.raises(BatchServerError):
            server.cancel(job)

    def test_cancel_unknown_job_raises(self, kernel):
        server = make_server(kernel, procs=4)
        with pytest.raises(BatchServerError):
            server.cancel(make_job(9, procs=1))

    def test_cancel_unblocks_later_jobs_under_fcfs(self, kernel):
        server = make_server(kernel, procs=4, policy="fcfs")
        running = make_job(1, procs=2, runtime=100.0, walltime=100.0)
        big = make_job(2, procs=4, runtime=10.0, walltime=10.0)
        small = make_job(3, procs=2, runtime=10.0, walltime=10.0)
        server.submit(running)
        server.submit(big)  # cannot start: needs the whole cluster
        server.submit(small)  # blocked behind the big job under FCFS
        assert small.state is JobState.WAITING
        server.cancel(big)
        # With the head of the queue gone, the small job fits right now.
        assert small.state is JobState.RUNNING
        assert small.start_time == 0.0


class TestEstimation:
    def test_estimate_on_empty_cluster(self, kernel):
        server = make_server(kernel, procs=4)
        job = make_job(1, procs=2, runtime=100.0, walltime=300.0)
        assert server.estimate_completion(job) == 300.0

    def test_estimate_accounts_for_running_jobs(self, kernel):
        server = make_server(kernel, procs=4)
        server.submit(make_job(1, procs=4, runtime=400.0, walltime=400.0))
        foreign = make_job(2, procs=4, runtime=50.0, walltime=100.0)
        # must wait for the running job's walltime end at t=400
        assert server.estimate_completion(foreign) == 500.0

    def test_estimate_uses_walltime_not_runtime(self, kernel):
        server = make_server(kernel, procs=4)
        server.submit(make_job(1, procs=4, runtime=50.0, walltime=400.0))
        foreign = make_job(2, procs=4, runtime=10.0, walltime=100.0)
        # the scheduler only knows the walltime of the running job
        assert server.estimate_completion(foreign) == 500.0

    def test_estimate_of_waiting_job_equals_planned_completion(self, kernel):
        server = make_server(kernel, procs=4)
        server.submit(make_job(1, procs=4, runtime=400.0, walltime=400.0))
        waiting = make_job(2, procs=4, runtime=50.0, walltime=100.0)
        server.submit(waiting)
        assert server.estimate_completion(waiting) == server.planned_completion(waiting)

    def test_estimate_too_large_job_is_infinite(self, kernel):
        server = make_server(kernel, procs=4)
        assert server.estimate_completion(make_job(1, procs=8)) == math.inf

    def test_estimate_scales_with_speed(self, kernel):
        server = make_server(kernel, procs=4, speed=2.0)
        job = make_job(1, procs=2, runtime=100.0, walltime=300.0)
        assert server.estimate_completion(job) == pytest.approx(150.0)

    def test_estimate_does_not_mutate_state(self, kernel):
        server = make_server(kernel, procs=4)
        server.submit(make_job(1, procs=4, runtime=400.0, walltime=400.0))
        foreign = make_job(2, procs=2, runtime=50.0, walltime=100.0)
        before = server.queue_length
        server.estimate_completion(foreign)
        server.estimate_completion(foreign)
        assert server.queue_length == before
        assert foreign.state is JobState.PENDING

    def test_planned_completion_requires_waiting_job(self, kernel):
        server = make_server(kernel, procs=4)
        with pytest.raises(BatchServerError):
            server.planned_completion(make_job(1, procs=1))

    def test_cbf_estimate_backfills_foreign_job(self, kernel):
        server = make_server(kernel, "alpha", procs=4, policy="cbf")
        server.submit(make_job(1, procs=2, runtime=1000.0, walltime=1000.0))
        server.submit(make_job(2, procs=4, runtime=500.0, walltime=500.0))  # waits until 1000
        small = make_job(3, procs=2, runtime=50.0, walltime=100.0)
        # CBF backfills the small job into the 2 free processors right now.
        assert server.estimate_completion(small) == 100.0

    def test_fcfs_estimate_respects_queue_order(self, kernel):
        server = make_server(kernel, "alpha", procs=4, policy="fcfs")
        server.submit(make_job(1, procs=2, runtime=1000.0, walltime=1000.0))
        server.submit(make_job(2, procs=4, runtime=500.0, walltime=500.0))  # planned at 1000
        small = make_job(3, procs=2, runtime=50.0, walltime=100.0)
        # FCFS: the new job goes after the queued 4-processor job.
        assert server.estimate_completion(small) == pytest.approx(1600.0)


class TestBatchedEstimation:
    """estimate_completion_many == per-job estimate_completion, in one pass."""

    @pytest.mark.parametrize("policy", ["fcfs", "cbf"])
    def test_batch_matches_per_job_queries(self, kernel, policy):
        server = make_server(kernel, procs=8, policy=policy)
        server.submit(make_job(1, procs=8, runtime=500.0, walltime=600.0))
        server.submit(make_job(2, procs=4, runtime=200.0, walltime=300.0))  # waiting
        probes = [
            make_job(10, procs=2, runtime=50.0, walltime=100.0),   # backfillable
            make_job(11, procs=8, runtime=100.0, walltime=200.0),  # queue tail
            make_job(12, procs=16),                                # does not fit
            make_job(2, procs=4, runtime=200.0, walltime=300.0),   # already waiting
        ]
        batched = server.estimate_completion_many(probes)
        assert batched == [server.estimate_completion(job) for job in probes]
        assert batched[2] == math.inf
        assert batched[3] == server.planned_completion(probes[3])

    def test_empty_batch(self, kernel):
        server = make_server(kernel, procs=4)
        assert server.estimate_completion_many([]) == []

    def test_batch_is_a_pure_query(self, kernel):
        server = make_server(kernel, procs=4)
        server.submit(make_job(1, procs=4, runtime=400.0, walltime=400.0))
        probes = [make_job(i, procs=2, runtime=50.0, walltime=100.0) for i in range(10, 30)]
        before = server.queue_length
        server.estimate_completion_many(probes)
        assert server.queue_length == before
        assert all(job.state is JobState.PENDING for job in probes)

    @pytest.mark.parametrize("policy", ["fcfs", "cbf"])
    def test_empty_batch_on_a_busy_server(self, kernel, policy):
        # The degenerate fast path must not advance or replan anything.
        server = make_server(kernel, procs=4, policy=policy)
        server.submit(make_job(1, procs=4, runtime=400.0, walltime=400.0))
        server.submit(make_job(2, procs=4, runtime=100.0, walltime=200.0))
        plan_before = {e.job_id: (e.planned_start, e.planned_end)
                       for e in server.planned_schedule()}
        assert server.estimate_completion_many([]) == []
        plan_after = {e.job_id: (e.planned_start, e.planned_end)
                      for e in server.planned_schedule()}
        assert plan_after == plan_before

    @pytest.mark.parametrize("policy", ["fcfs", "cbf"])
    def test_all_non_fitting_batch_is_all_infinite(self, kernel, policy):
        server = make_server(kernel, procs=4, policy=policy)
        probes = [make_job(i, procs=5 + i) for i in range(3)]
        assert server.estimate_completion_many(probes) == [math.inf] * 3
        # A fully-down cluster degrades every estimate the same way, even
        # for jobs that nominally fit.
        server.apply_capacity_change(0)
        fitting = [make_job(10 + i, procs=1 + i) for i in range(3)]
        assert server.estimate_completion_many(fitting) == [math.inf] * 3

    @pytest.mark.parametrize("policy", ["fcfs", "cbf"])
    def test_single_cluster_platform_batch(self, kernel, policy):
        # The one-server degenerate of the grid layer's column refresh:
        # batched answers must equal the scalar query with nobody else to
        # compare against, mixed fits included.
        server = make_server(kernel, procs=4, policy=policy)
        server.submit(make_job(1, procs=4, runtime=300.0, walltime=400.0))
        probes = [
            make_job(10, procs=1, runtime=50.0, walltime=100.0),
            make_job(11, procs=4, runtime=50.0, walltime=100.0),
            make_job(12, procs=9),  # never fits
        ]
        batched = server.estimate_completion_many(probes)
        assert batched == [server.estimate_completion(job) for job in probes]
        assert math.isfinite(batched[0]) and math.isfinite(batched[1])
        assert batched[2] == math.inf


class TestWaitingQueue:
    def test_waiting_jobs_snapshot_in_queue_order(self, kernel):
        server = make_server(kernel, procs=2)
        blocker = make_job(1, procs=2, runtime=100.0, walltime=100.0)
        second = make_job(2, procs=2, runtime=10.0, walltime=10.0)
        third = make_job(3, procs=1, runtime=10.0, walltime=10.0)
        for job in (blocker, second, third):
            server.submit(job)
        waiting = server.waiting_jobs()
        assert [j.job_id for j in waiting] == [2, 3]
        # snapshot is a copy: mutating it does not affect the server
        waiting.clear()
        assert server.queue_length == 2

    def test_has_waiting(self, kernel):
        server = make_server(kernel, procs=2)
        blocker = make_job(1, procs=2, runtime=100.0, walltime=100.0)
        queued = make_job(2, procs=2, runtime=10.0, walltime=10.0)
        server.submit(blocker)
        server.submit(queued)
        assert server.has_waiting(queued)
        assert not server.has_waiting(blocker)

    def test_planned_schedule_exposes_waiting_plan(self, kernel):
        server = make_server(kernel, procs=2)
        blocker = make_job(1, procs=2, runtime=100.0, walltime=100.0)
        queued = make_job(2, procs=2, runtime=10.0, walltime=20.0)
        server.submit(blocker)
        server.submit(queued)
        plan = server.planned_schedule()
        assert [(e.job_id, e.planned_start, e.planned_end) for e in plan] == [(2, 100.0, 120.0)]

    def test_running_snapshot(self, kernel):
        server = make_server(kernel, procs=4)
        job = make_job(1, procs=2, runtime=50.0, walltime=100.0)
        server.submit(job)
        snapshot = server.running_snapshot()
        assert len(snapshot) == 1
        assert snapshot[0].job.job_id == 1
        assert snapshot[0].walltime_end == 100.0


class TestCompletionCallback:
    def test_on_completion_invoked_per_job(self, kernel):
        completed = []
        server = make_server(kernel, procs=4)
        server.on_completion = completed.append
        for i in range(3):
            server.submit(make_job(i, procs=1, runtime=10.0 * (i + 1)))
        kernel.run()
        assert [job.job_id for job in completed] == [0, 1, 2]

    def test_fifo_start_order_under_fcfs(self, kernel):
        server = make_server(kernel, procs=1, policy="fcfs")
        jobs = [make_job(i, procs=1, runtime=10.0, walltime=10.0) for i in range(5)]
        for job in jobs:
            server.submit(job)
        kernel.run()
        starts = [job.start_time for job in jobs]
        assert starts == sorted(starts)
        assert starts == [0.0, 10.0, 20.0, 30.0, 40.0]


class TestSubmitMany:
    """``submit_many`` pays one schedule pass per batch; the resulting
    plan must be indistinguishable from per-job submission."""

    @pytest.mark.parametrize("policy", ["fcfs", "cbf"])
    def test_matches_sequential_submits(self, kernel, policy):
        import random

        rng = random.Random(20100612)
        specs = [
            (i, rng.randint(1, 4), 10.0 * rng.randint(1, 20))
            for i in range(1, 41)
        ]
        batch = make_server(kernel, "batch", procs=4, policy=policy)
        serial = make_server(kernel, "serial", procs=4, policy=policy)
        batched = [make_job(i, procs=p, runtime=r, walltime=r) for i, p, r in specs]
        batch.submit_many(batched)
        sequential = [make_job(i, procs=p, runtime=r, walltime=r) for i, p, r in specs]
        for job in sequential:
            serial.submit(job)
        probe = make_job(9999, procs=1, runtime=1.0, walltime=1.0)
        assert batch.estimate_completion(probe) == serial.estimate_completion(probe)
        kernel.run()
        assert batch.completed_count == serial.completed_count == 40
        for job_a, job_b in zip(batched, sequential):
            assert job_a.start_time == job_b.start_time
            assert job_a.completion_time == job_b.completion_time

    def test_batch_validation_per_job(self, kernel):
        server = make_server(kernel, procs=4)
        good = make_job(1, procs=2, runtime=10.0)
        with pytest.raises(BatchServerError):
            server.submit_many([good, make_job(2, procs=100, runtime=10.0)])
        # The job enqueued before the failing one is already accepted.
        assert server.has_waiting(good) or server.cluster.is_running(1)
        assert server.submitted_count == 1

    def test_empty_batch_is_a_no_op(self, kernel):
        server = make_server(kernel, procs=4)
        server.submit_many([])
        assert server.submitted_count == 0
