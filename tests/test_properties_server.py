"""Property-based tests for the batch server and the full grid simulation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.job import Job, JobState
from repro.grid.simulation import GridSimulation
from repro.platform.spec import ClusterSpec, PlatformSpec
from repro.sim.kernel import SimulationKernel
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
