"""Property-based tests for the availability profile and planning policies."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.profile import AvailabilityProfile
from tests.conftest import make_job

from oracles.planners import plan_cbf, plan_fcfs
from oracles.profiles import reserve

# A reservation request: (procs, duration) with procs within a 16-core box.
reservation = st.tuples(st.integers(1, 16), st.floats(1.0, 500.0))


class TestProfileInvariants:
    @given(st.lists(reservation, min_size=0, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_free_count_stays_within_bounds(self, requests):
        profile = AvailabilityProfile(16, start_time=0.0)
        for procs, duration in requests:
            reserve(profile, procs, duration, earliest=0.0)
        for _, free in profile.breakpoints():
            assert 0 <= free <= 16

    @given(st.lists(reservation, min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_reserved_slot_is_feasible(self, requests):
        profile = AvailabilityProfile(16, start_time=0.0)
        for procs, duration in requests:
            probe = profile.copy()
            start = probe.earliest_slot(procs, duration, earliest=0.0)
            assert math.isfinite(start)
            # the returned slot really has enough free processors
            assert profile.min_free_over(start, start + duration) >= procs
            profile.subtract(start, start + duration, procs)

    @given(st.lists(reservation, min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_earliest_slot_is_minimal_among_breakpoints(self, requests):
        """No earlier breakpoint-aligned start is feasible."""
        profile = AvailabilityProfile(16, start_time=0.0)
        for procs, duration in requests[:-1]:
            reserve(profile, procs, duration, earliest=0.0)
        procs, duration = requests[-1]
        start = profile.earliest_slot(procs, duration, earliest=0.0)
        for time, _ in profile.breakpoints():
            if time < start:
                assert profile.min_free_over(time, time + duration) < procs

    @given(
        st.lists(reservation, min_size=1, max_size=15),
        st.floats(0.0, 1000.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_subtract_add_roundtrip(self, requests, start):
        profile = AvailabilityProfile(16, start_time=0.0)
        placed = []
        for procs, duration in requests:
            slot = reserve(profile, procs, duration, earliest=start)
            placed.append((slot, slot + duration, procs))
        for slot, end, procs in placed:
            profile.add(slot, end, procs)
        assert all(free == 16 for _, free in profile.breakpoints())


job_spec = st.tuples(
    st.integers(1, 8),          # procs
    st.floats(10.0, 2000.0),    # walltime
)


class TestPolicyInvariants:
    @given(st.lists(job_spec, min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_plans_never_oversubscribe(self, specs):
        jobs = [make_job(i, procs=p, runtime=w, walltime=w) for i, (p, w) in enumerate(specs)]
        for planner in (plan_fcfs, plan_cbf):
            profile = AvailabilityProfile(8, start_time=0.0)
            check = AvailabilityProfile(8, start_time=0.0)
            plan = planner(profile, jobs, speed=1.0, now=0.0)
            # Re-apply every reservation on a fresh profile: it must fit.
            for entry in plan:
                assert math.isfinite(entry.planned_start)
                check.subtract(entry.planned_start, entry.planned_end, entry.procs)

    @given(st.lists(job_spec, min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_fcfs_starts_follow_queue_order(self, specs):
        jobs = [make_job(i, procs=p, runtime=w, walltime=w) for i, (p, w) in enumerate(specs)]
        profile = AvailabilityProfile(8, start_time=0.0)
        plan = plan_fcfs(profile, jobs, speed=1.0, now=0.0)
        starts = [plan.planned_start(i) for i in range(len(jobs))]
        assert starts == sorted(starts)

    @given(st.lists(job_spec, min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_cbf_never_starts_later_than_fcfs_overall(self, specs):
        """Back-filling can only improve (or keep) each job's planned start.

        This is the conservative-backfilling guarantee given identical
        queues: every job's CBF reservation starts no later than its FCFS
        reservation because CBF relaxes the queue-order constraint without
        delaying earlier reservations.
        """
        jobs = [make_job(i, procs=p, runtime=w, walltime=w) for i, (p, w) in enumerate(specs)]
        fcfs = plan_fcfs(AvailabilityProfile(8, 0.0), jobs, speed=1.0, now=0.0)
        cbf = plan_cbf(AvailabilityProfile(8, 0.0), jobs, speed=1.0, now=0.0)
        for job in jobs:
            assert cbf.planned_start(job.job_id) <= fcfs.planned_start(job.job_id) + 1e-9

    @given(st.lists(job_spec, min_size=1, max_size=15), st.floats(1.1, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_faster_cluster_never_worsens_plans(self, specs, speed):
        jobs = [make_job(i, procs=p, runtime=w, walltime=w) for i, (p, w) in enumerate(specs)]
        slow = plan_fcfs(AvailabilityProfile(8, 0.0), jobs, speed=1.0, now=0.0)
        fast = plan_fcfs(AvailabilityProfile(8, 0.0), jobs, speed=speed, now=0.0)
        for job in jobs:
            assert fast.planned_end(job.job_id) <= slow.planned_end(job.job_id) + 1e-6
