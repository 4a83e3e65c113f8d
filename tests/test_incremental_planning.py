"""Differential oracle: incremental scheduling vs the from-scratch planners.

The :class:`~repro.batch.policies.IncrementalPlanner` claims that after any
event sequence its plan is *identical* (same floats, not approximately
equal) to what the reference planners would compute from scratch over the
current cluster state.  These tests drive randomized submit / cancel /
start / completion sequences through a :class:`BatchServer` — under both
policies and heterogeneous cluster speeds — and check, after every event:

* the incremental plan entries match the reference ``plan_fcfs`` /
  ``plan_cbf`` of ``oracles.planners`` exactly;
* the live residual profile equals the reference residual as a step
  function;
* the cluster's availability profile equals the from-scratch
  ``build_profile`` construction;
* foreign-job completion estimates match the reference formula;
* the plan's ``floor`` is at most its earliest planned start.

The stale guard of :meth:`IncrementalPlanner.advance` never fires behind a
server (every job planned at ``now`` is started at ``now``), so it is
driven on a bare planner whose head is never started.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.cluster import ClusterState
from repro.batch.job import Job, JobState
from repro.batch.policies import BatchPolicy, IncrementalPlanner
from repro.sim.kernel import SimulationKernel
from tests.conftest import make_job, make_server

from oracles.planners import PLANNERS, build_profile
from oracles.profiles import use_server_mode

# Random rigid jobs: submit time, procs, runtime, walltime factor.
job_spec = st.tuples(
    st.floats(0.0, 5000.0),
    st.integers(1, 8),
    st.floats(1.0, 1000.0),
    st.floats(0.5, 4.0),
)


def build_jobs(specs):
    jobs = []
    for index, (submit, procs, runtime, factor) in enumerate(specs):
        jobs.append(
            Job(
                job_id=index,
                submit_time=submit,
                procs=procs,
                runtime=runtime,
                walltime=max(1.0, runtime * factor),
            )
        )
    return jobs


def profile_points(profile, since):
    """Normalised ``(time, free)`` list of a profile from ``since`` on."""
    clone = profile.copy()
    clone.advance(since)
    clone.compact()
    return list(clone.breakpoints())


def reference_state(server):
    """Plan, residual and FCFS frontier recomputed from scratch."""
    now = server.kernel.now
    profile = build_profile(server.cluster, now)
    plan = PLANNERS[server.policy](profile, server.waiting_jobs(), server.speed, now)
    last_start = now
    for entry in plan:
        if math.isfinite(entry.planned_start):
            last_start = max(last_start, entry.planned_start)
    return plan, profile, last_start


def assert_matches_reference(server, probe_jobs=()):
    """Full differential check of one server against the reference planner."""
    now = server.kernel.now
    ref_plan, ref_residual, ref_last_start = reference_state(server)
    # Same entries, same floats, same (queue) order.
    assert server.planned_schedule() == list(ref_plan)

    planner = server._planner
    # The plan's floor is a lower bound on every planned start.
    starts = [entry.planned_start for entry in planner.plan.entries]
    assert planner.plan.floor <= min(starts, default=math.inf)
    # The live residual is the same step function as the reference residual.
    assert profile_points(planner.residual, now) == profile_points(ref_residual, now)
    # The cluster's availability matches the from-scratch construction.
    assert profile_points(server.cluster.availability(now), now) == profile_points(
        build_profile(server.cluster, now), now
    )
    # FCFS frontier equals the reference "last planned start".
    if server.policy is BatchPolicy.FCFS:
        assert planner.frontier() == ref_last_start

    # Foreign-job estimates follow the reference formula.
    for probe in probe_jobs:
        if not server.fits(probe):
            assert server.estimate_completion(probe) == math.inf
            continue
        duration = probe.walltime_on(server.speed)
        earliest = ref_last_start if server.policy is BatchPolicy.FCFS else now
        start = ref_residual.earliest_slot(probe.procs, duration, earliest)
        expected = start + duration if math.isfinite(start) else math.inf
        assert server.estimate_completion(probe) == expected


PROBES = [
    make_job(9001, procs=1, runtime=50.0, walltime=120.0),
    make_job(9002, procs=3, runtime=400.0, walltime=900.0),
    make_job(9003, procs=8, runtime=10.0, walltime=30.0),
]


class TestDifferentialSingleServer:
    @given(
        st.lists(job_spec, min_size=1, max_size=20),
        st.sampled_from(["fcfs", "cbf"]),
        st.sampled_from([0.5, 1.0, 1.3, 2.0]),
        st.lists(st.tuples(st.floats(0.0, 6000.0), st.integers(0, 30)), max_size=6),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_event_sequences_match_reference(self, specs, policy, speed, cancels, seed):
        """Submit/cancel/complete sequences: plans equal the oracle after every event."""
        kernel = SimulationKernel()
        server = make_server(kernel, procs=8, speed=speed, policy=policy)
        rng = random.Random(seed)
        jobs = build_jobs(specs)

        def submit_and_check(job):
            server.submit(job)
            assert_matches_reference(server, PROBES)

        def cancel_and_check(position):
            waiting = server.waiting_jobs()
            if not waiting:
                return
            victim = waiting[position % len(waiting)]
            server.cancel(victim)
            assert victim.state is JobState.CANCELLED
            assert_matches_reference(server, PROBES)

        for job in jobs:
            kernel.schedule_at(job.submit_time, submit_and_check, job)
        for time, position in cancels:
            kernel.schedule_at(time, cancel_and_check, position)
        server.on_completion = lambda job: assert_matches_reference(
            server, [PROBES[rng.randrange(len(PROBES))]]
        )
        server.on_start = lambda job: assert_matches_reference(server)
        kernel.run()

        # Everything not cancelled ran to completion.
        for job in jobs:
            assert job.state in (JobState.COMPLETED, JobState.CANCELLED)
        assert_matches_reference(server, PROBES)

    @given(st.lists(job_spec, min_size=2, max_size=15), st.sampled_from(["fcfs", "cbf"]))
    @settings(max_examples=30, deadline=None)
    def test_walltime_kills_match_reference(self, specs, policy):
        """Jobs killed exactly at their walltime exercise the no-op completion path."""
        kernel = SimulationKernel()
        server = make_server(kernel, procs=8, policy=policy)
        jobs = []
        for index, (submit, procs, runtime, _factor) in enumerate(specs):
            # Forced kills: runtime beyond walltime, so completions land
            # exactly on the walltime boundary.
            jobs.append(
                Job(
                    job_id=index,
                    submit_time=submit,
                    procs=procs,
                    runtime=runtime * 2.0,
                    walltime=runtime,
                )
            )
        for job in jobs:
            kernel.schedule_at(job.submit_time, server.submit, job)
        server.on_completion = lambda job: assert_matches_reference(server, PROBES)
        kernel.run()
        assert all(job.killed for job in jobs)


class TestDifferentialCrossServer:
    @given(
        st.lists(job_spec, min_size=2, max_size=16),
        st.sampled_from(["fcfs", "cbf"]),
        st.lists(st.tuples(st.floats(0.0, 6000.0), st.integers(0, 30)), min_size=1, max_size=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_reallocation_style_moves_match_reference(self, specs, policy, moves):
        """Cancel-here/submit-there sequences (the reallocation pattern)."""
        kernel = SimulationKernel()
        servers = [
            make_server(kernel, "alpha", procs=8, speed=1.0, policy=policy),
            make_server(kernel, "beta", procs=8, speed=2.0, policy=policy),
        ]
        jobs = build_jobs(specs)

        def check_all():
            for server in servers:
                assert_matches_reference(server, PROBES[:1])

        def submit(job, index):
            servers[index % len(servers)].submit(job)
            check_all()

        def move(position):
            origin, destination = servers
            waiting = origin.waiting_jobs()
            if not waiting:
                return
            victim = waiting[position % len(waiting)]
            origin.cancel(victim)
            check_all()
            destination.submit(victim)
            check_all()

        for index, job in enumerate(jobs):
            kernel.schedule_at(job.submit_time, submit, job, index)
        for time, position in moves:
            kernel.schedule_at(time, move, position)
        kernel.run()
        check_all()


class TestSuffixBehaviour:
    """The incremental engine must actually be incremental, not just correct."""

    def test_submit_keeps_prefix_entries_identical(self, kernel):
        server = make_server(kernel, procs=4, policy="cbf")
        blocker = make_job(1, procs=4, runtime=500.0, walltime=500.0)
        server.submit(blocker)
        for job_id in (2, 3, 4):
            server.submit(make_job(job_id, procs=2, runtime=100.0, walltime=200.0))
        before = list(server._planner.plan.entries)
        server.submit(make_job(5, procs=1, runtime=10.0, walltime=20.0))
        after = server._planner.plan.entries
        # A tail submission must not have replanned the existing queue:
        # the prefix entries are the very same objects.
        assert after[: len(before)] == before
        assert all(a is b for a, b in zip(after, before))

    def test_cancel_keeps_prefix_entries_identical(self, kernel):
        server = make_server(kernel, procs=4, policy="fcfs")
        server.submit(make_job(1, procs=4, runtime=500.0, walltime=500.0))
        queued = [make_job(job_id, procs=2, runtime=100.0, walltime=200.0) for job_id in (2, 3, 4, 5)]
        for job in queued:
            server.submit(job)
        entries_before = list(server._planner.plan.entries)
        server.cancel(queued[2])  # queue position 2
        entries_after = server._planner.plan.entries
        assert all(a is b for a, b in zip(entries_after[:2], entries_before[:2]))
        assert_matches_reference(server, PROBES)

    @pytest.mark.parametrize("mode", ["list", "array"])
    @pytest.mark.parametrize("policy", ["fcfs", "cbf"])
    def test_restore_suffix_restores_base_profile(self, kernel, policy, mode):
        # Pinned to each storage, so both release_many implementations
        # are held to the rebuilt profile.
        server = use_server_mode(make_server(kernel, procs=8, policy=policy), mode)
        server.submit(make_job(1, procs=8, runtime=300.0, walltime=400.0))
        for job_id in (2, 3, 4):
            server.submit(make_job(job_id, procs=3, runtime=50.0, walltime=100.0))
        plan = server._planner.plan
        plan.restore_suffix(0)
        assert plan.entries == []
        assert profile_points(plan.residual, kernel.now) == profile_points(
            build_profile(server.cluster, kernel.now), kernel.now
        )

    def test_estimates_do_not_mutate_incremental_state(self, kernel):
        server = make_server(kernel, procs=4, policy="cbf")
        server.submit(make_job(1, procs=4, runtime=400.0, walltime=400.0))
        server.submit(make_job(2, procs=2, runtime=50.0, walltime=100.0))
        snapshot = profile_points(server._planner.residual, kernel.now)
        entries = list(server._planner.plan.entries)
        for probe in PROBES:
            server.estimate_completion(probe)
        assert profile_points(server._planner.residual, kernel.now) == snapshot
        assert server._planner.plan.entries == entries


class TestHeterogeneousSpeeds:
    @pytest.mark.parametrize("policy", ["fcfs", "cbf"])
    @pytest.mark.parametrize("speed", [0.5, 1.3, 2.0])
    def test_speed_scaling_matches_reference(self, kernel, policy, speed):
        server = make_server(kernel, procs=8, speed=speed, policy=policy)
        server.submit(make_job(1, procs=8, runtime=400.0, walltime=600.0))
        for job_id in (2, 3, 4, 5):
            server.submit(make_job(job_id, procs=3, runtime=100.0, walltime=250.0))
        assert_matches_reference(server, PROBES)
        kernel.run()
        assert_matches_reference(server, PROBES)


class TestStaleGuard:
    @pytest.mark.parametrize("policy", ["fcfs", "cbf"])
    def test_advancing_past_a_start_that_never_happened_replans(self, policy):
        cluster = ClusterState("alpha", 4)
        planner = IncrementalPlanner(BatchPolicy(policy), cluster)
        for job in (
            make_job(1, procs=4, runtime=100.0, walltime=100.0),
            make_job(2, procs=2, runtime=50.0, walltime=50.0),
            make_job(3, procs=1, runtime=20.0, walltime=30.0),
        ):
            planner.submit(job, 0.0)
        plan = planner.plan
        assert [entry.planned_start for entry in plan.entries] == [0.0, 100.0, 100.0]
        assert plan.floor == 0.0
        # Nothing started the head at 0: at 40 its planned start is stale.
        generation = planner.generation
        planner.advance(40.0)
        assert planner.generation == generation + 1  # the guard replanned
        reference = PLANNERS[planner.policy](
            build_profile(cluster, 40.0), planner.jobs, planner.speed, 40.0
        )
        assert planner.plan.entries == list(reference)
        assert planner.plan.floor == 40.0

    def test_a_floor_left_behind_by_a_started_job_is_tightened(self):
        cluster = ClusterState("alpha", 4)
        planner = IncrementalPlanner(BatchPolicy.FCFS, cluster)
        head = make_job(1, procs=2, runtime=100.0, walltime=100.0)
        tail = make_job(2, procs=4, runtime=50.0, walltime=50.0)
        planner.submit(head, 0.0)
        planner.submit(tail, 0.0)
        cluster.start_job(head, 0.0)
        planner.job_started(head, 0.0)
        plan = planner.plan
        assert plan.floor == 0.0  # removing the head left the bound as it was
        generation = planner.generation
        planner.advance(10.0)
        assert plan.floor == 100.0  # the exact minimum, recomputed once
        assert planner.generation == generation  # nothing was stale
