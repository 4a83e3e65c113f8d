"""Property-based tests for the batch server and the full grid simulation."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.job import Job, JobState
from repro.batch.server import BatchServer
from repro.grid.simulation import GridSimulation
from repro.platform.spec import ClusterSpec, PlatformSpec
from repro.sim.kernel import SimulationKernel
from oracles.planners import PLANNERS, build_profile
from oracles.profiles import mode_of, use_server_mode
from tests.conftest import make_server

# Random rigid jobs on an 8-core box: submit time, procs, runtime, walltime factor.
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


def run_checking_used_procs(kernel, server):
    """Run the kernel dry, checking the cluster's processor counter after every event."""
    cluster = server.cluster
    while kernel.step():
        assert cluster.used_procs == sum(e.procs for e in cluster.running_jobs())
        assert cluster.free_procs == cluster.capacity - cluster.used_procs


class TestServerInvariants:
    @given(st.lists(job_spec, min_size=1, max_size=25), st.sampled_from(["fcfs", "cbf"]))
    @settings(max_examples=50, deadline=None)
    def test_all_jobs_complete_and_capacity_is_respected(self, specs, policy):
        kernel = SimulationKernel()
        server = make_server(kernel, procs=8, policy=policy)
        jobs = build_jobs(specs)
        for job in jobs:
            kernel.schedule_at(job.submit_time, server.submit, job)
        run_checking_used_procs(kernel, server)

        assert all(job.state is JobState.COMPLETED for job in jobs)
        for job in jobs:
            assert job.start_time >= job.submit_time - 1e-9
            expected = min(job.runtime, job.walltime)
            assert job.completion_time == pytest.approx(job.start_time + expected)

        # Capacity check: rebuild the utilisation timeline from the results.
        events = []
        for job in jobs:
            events.append((job.start_time, job.procs))
            events.append((job.completion_time, -job.procs))
        events.sort()
        used = 0
        for _, delta in events:
            used += delta
            assert used <= 8

    @given(st.lists(job_spec, min_size=1, max_size=25), st.sampled_from(["fcfs", "cbf"]))
    @settings(max_examples=30, deadline=None)
    def test_fcfs_never_beats_walltime_plan(self, specs, policy):
        """A job never completes after its walltime-based worst-case plan start."""
        kernel = SimulationKernel()
        server = make_server(kernel, procs=8, policy=policy)
        jobs = build_jobs(specs)
        for job in jobs:
            kernel.schedule_at(job.submit_time, server.submit, job)
        run_checking_used_procs(kernel, server)
        for job in jobs:
            assert job.killed == (job.runtime > job.walltime)


def loaded_server(storage, policy, speed, specs, steps):
    """An 8-processor server after ``specs`` were submitted at t=0 and
    ``steps`` kernel events fired (starts, early and walltime ends)."""
    kernel = SimulationKernel()
    server = BatchServer(kernel, "alpha", 8, speed, policy=policy)
    if storage != "adaptive":
        use_server_mode(server, storage)
    jobs = [
        Job(job_id=index, submit_time=0.0, procs=procs, runtime=runtime,
            walltime=max(1.0, runtime * factor))
        for index, (_, procs, runtime, factor) in enumerate(specs)
    ]
    for job in jobs:
        server.submit(job)
    for _ in range(steps):
        if not kernel.step():
            break
    return server, jobs


class TestScalarEstimate:
    """``estimate_completion`` (scalar) against ``estimate_completion_many([job])[0]``."""

    @given(
        storage=st.sampled_from(["list", "array", "adaptive"]),
        policy=st.sampled_from(["fcfs", "cbf"]),
        speed=st.sampled_from([1.0, 1.5]),
        specs=st.lists(job_spec, min_size=1, max_size=20),
        steps=st.integers(0, 6),
        probe=st.one_of(
            st.tuples(st.just("known"), st.integers(0, 19)),
            st.tuples(st.just("fresh"), st.integers(1, 8)),
            st.tuples(st.just("oversized"), st.integers(9, 16)),
        ),
        duration=st.floats(1.0, 2000.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_scalar_matches_batch_of_one(
        self, storage, policy, speed, specs, steps, probe, duration
    ):
        # "known" probes a submitted job: waiting here, or running or
        # completed (hypothetical placement); the others are new jobs.
        # The batch of one must also leave the residual in the same
        # storage, with the same score, as the scalar query.
        scalar_server, scalar_jobs = loaded_server(storage, policy, speed, specs, steps)
        batch_server, batch_jobs = loaded_server(storage, policy, speed, specs, steps)
        kind, value = probe
        if kind == "known":
            index = value % len(specs)
            scalar_probe, batch_probe = scalar_jobs[index], batch_jobs[index]
        else:
            scalar_probe, batch_probe = (
                Job(job_id=1000, submit_time=0.0, procs=value, runtime=duration,
                    walltime=duration)
                for _ in range(2)
            )
        scalar = scalar_server.estimate_completion(scalar_probe)
        batched = batch_server.estimate_completion_many([batch_probe])[0]
        assert scalar == batched
        # Both answer what the from-scratch planner gives the probe when it
        # waits here or is appended to the queue now.
        now = scalar_server.kernel.now
        queue = scalar_server.waiting_jobs()
        if not scalar_server.has_waiting(scalar_probe):
            queue.append(scalar_probe)
        if kind == "oversized":
            expected = math.inf
        else:
            reference = PLANNERS[scalar_server.policy](
                build_profile(scalar_server.cluster, now), queue, speed, now
            )
            expected = reference.planned_end(scalar_probe.job_id)
        assert scalar == expected
        scalar_residual = scalar_server._planner.residual
        batch_residual = batch_server._planner.residual
        assert mode_of(scalar_residual) == mode_of(batch_residual)
        assert scalar_residual._score == batch_residual._score
        assert list(scalar_residual.breakpoints()) == list(batch_residual.breakpoints())


class TestSimulationInvariants:
    platform = PlatformSpec(
        "prop-platform", (ClusterSpec("one", 4, 1.0), ClusterSpec("two", 8, 1.3))
    )

    @given(
        st.lists(job_spec, min_size=1, max_size=20),
        st.sampled_from(["fcfs", "cbf"]),
        st.sampled_from([None, "standard", "cancellation"]),
        st.sampled_from(["mct", "minmin", "maxgain", "sufferage"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_no_job_is_lost(self, specs, policy, algorithm, heuristic):
        jobs = build_jobs(specs)
        result = GridSimulation(
            self.platform,
            jobs,
            batch_policy=policy,
            reallocation=algorithm,
            heuristic=heuristic,
        ).run()
        assert len(result) == len(jobs)
        assert result.completed_count == len(jobs)
        for record in result:
            assert record.completion_time is not None
            assert record.response_time >= 0.0
            assert record.final_cluster in ("one", "two")

    @given(st.lists(job_spec, min_size=1, max_size=20))
    @settings(max_examples=20, deadline=None)
    def test_reallocation_runs_match_baseline_population(self, specs):
        jobs = build_jobs(specs)
        baseline = GridSimulation(
            self.platform, [j.copy() for j in jobs], batch_policy="fcfs"
        ).run()
        realloc = GridSimulation(
            self.platform,
            [j.copy() for j in jobs],
            batch_policy="fcfs",
            reallocation="cancellation",
            heuristic="minmin",
        ).run()
        assert set(baseline.completion_times()) == set(realloc.completion_times())
