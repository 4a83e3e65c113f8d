"""Tests for the FCFS and CBF planning policies.

Every hand-computed plan is checked twice: on the from-scratch reference
planner of ``oracles.planners`` and on the production
:class:`~repro.batch.policies.IncrementalPlanner`.  The busy windows of a
test (all starting at 0) are a profile subtraction for the reference and
running jobs of a :class:`~repro.batch.cluster.ClusterState` for the
planner.
"""

from __future__ import annotations

import math

import pytest

from repro.batch.cluster import ClusterState
from repro.batch.policies import BatchPolicy, IncrementalPlanner
from repro.batch.profile import AvailabilityProfile
from tests.conftest import make_job

from oracles.planners import PLANNERS, Plan

FCFS, CBF = BatchPolicy.FCFS, BatchPolicy.CBF


def _reference_plan(policy, jobs, procs, busy, speed):
    profile = AvailabilityProfile(procs, start_time=0.0)
    for start, end, used in busy:
        profile.subtract(start, end, used)
    return PLANNERS[policy](profile, jobs, speed, 0.0)


def _incremental_plan(policy, jobs, procs, busy, speed):
    cluster = ClusterState("alpha", procs, speed)
    for index, (start, end, used) in enumerate(busy):
        assert start == 0.0
        cluster.start_job(make_job(1000 + index, procs=used, walltime=end * speed), 0.0)
    planner = IncrementalPlanner(policy, cluster)
    for job in jobs:
        planner.submit(job, 0.0)
    plan = Plan()
    for entry in planner.plan.entries:
        plan.add(entry)
    return plan


@pytest.fixture(params=["reference", "incremental"])
def plan_of(request):
    """``plan_of(policy, jobs, procs=4, busy=(), speed=1.0)`` on one planner."""
    build = _reference_plan if request.param == "reference" else _incremental_plan

    def plan_of(policy, jobs, procs=4, busy=(), speed=1.0):
        return build(policy, jobs, procs, busy, speed)

    return plan_of


class TestFcfs:
    def test_empty_queue(self, plan_of):
        plan = plan_of(FCFS, [])
        assert len(plan) == 0

    def test_jobs_start_immediately_when_free(self, plan_of):
        jobs = [make_job(1, procs=2, walltime=100.0), make_job(2, procs=2, walltime=100.0)]
        plan = plan_of(FCFS, jobs, 4)
        assert plan.planned_start(1) == 0.0
        assert plan.planned_start(2) == 0.0

    def test_second_job_queues_behind_first(self, plan_of):
        jobs = [make_job(1, procs=4, walltime=100.0), make_job(2, procs=1, walltime=50.0)]
        plan = plan_of(FCFS, jobs, 4)
        assert plan.planned_start(1) == 0.0
        # FCFS: job 2 cannot start before job 1 even though a single
        # processor is conceptually available only after job 1's reservation.
        assert plan.planned_start(2) == 100.0

    def test_no_backfilling_into_holes(self, plan_of):
        # Running jobs leave a hole before a big reservation, but FCFS keeps
        # queue order: the small job may not start before the big one.
        jobs = [make_job(1, procs=4, walltime=50.0), make_job(2, procs=1, walltime=10.0)]
        plan = plan_of(FCFS, jobs, 4, busy=[(0.0, 100.0, 2)])
        assert plan.planned_start(1) == 100.0
        # The one-processor job could run in the hole before job 1, but FCFS
        # keeps queue order: it only starts once job 1's reservation ends.
        assert plan.planned_start(2) == 150.0

    def test_starts_are_monotone_in_queue_order(self, plan_of):
        jobs = [make_job(i, procs=2, walltime=60.0 * i) for i in range(1, 6)]
        plan = plan_of(FCFS, jobs, 4)
        starts = [plan.planned_start(i) for i in range(1, 6)]
        assert starts == sorted(starts)

    def test_planned_end_uses_walltime_scaled_by_speed(self, plan_of):
        jobs = [make_job(1, procs=1, walltime=100.0)]
        plan = plan_of(FCFS, jobs, 4, speed=2.0)
        assert plan.planned_end(1) == pytest.approx(50.0)

    def test_oversized_job_gets_infinite_start(self, plan_of):
        jobs = [make_job(1, procs=10, walltime=100.0)]
        plan = plan_of(FCFS, jobs, 4)
        assert plan.planned_start(1) == math.inf
        assert not plan.get(1).is_feasible()


class TestCbf:
    def test_backfills_small_job_into_hole(self, plan_of):
        jobs = [make_job(1, procs=4, walltime=50.0), make_job(2, procs=1, walltime=10.0)]
        plan = plan_of(CBF, jobs, 4, busy=[(0.0, 100.0, 2)])
        assert plan.planned_start(1) == 100.0
        # CBF: the one-processor job slides into the hole before job 1.
        assert plan.planned_start(2) == 0.0

    def test_backfilling_never_delays_earlier_reservation(self, plan_of):
        jobs = [
            make_job(1, procs=4, walltime=50.0),
            make_job(2, procs=2, walltime=200.0),
        ]
        plan = plan_of(CBF, jobs, 4, busy=[(0.0, 100.0, 2)])
        # Job 2 would delay job 1 if it started at t=0 (it would still hold
        # its processors at t=100); it must therefore start after job 1.
        assert plan.planned_start(1) == 100.0
        assert plan.planned_start(2) == 150.0

    def test_cbf_equals_fcfs_when_no_holes(self, plan_of):
        jobs = [make_job(i, procs=4, walltime=100.0) for i in range(1, 4)]
        fcfs = plan_of(FCFS, jobs, 4)
        cbf = plan_of(CBF, jobs, 4)
        for i in range(1, 4):
            assert fcfs.planned_start(i) == cbf.planned_start(i)

    def test_cbf_starts_not_necessarily_monotone(self, plan_of):
        jobs = [make_job(1, procs=4, walltime=50.0), make_job(2, procs=1, walltime=10.0)]
        plan = plan_of(CBF, jobs, 4, busy=[(0.0, 100.0, 2)])
        assert plan.planned_start(2) < plan.planned_start(1)


class TestPolicyEnum:
    def test_str_of_policy_enum(self):
        assert str(BatchPolicy.FCFS) == "FCFS"
        assert str(BatchPolicy.CBF) == "CBF"
