"""Tests for the end-to-end GridSimulation."""

from __future__ import annotations

import pytest

from repro.batch.job import JobState
from repro.core.metrics import compare_runs
from repro.grid.simulation import GridSimulation
from repro.platform.spec import ClusterSpec, PlatformSpec
from tests.conftest import make_job


@pytest.fixture
def platform():
    return PlatformSpec(
        "sim-test",
        (ClusterSpec("one", 4, 1.0), ClusterSpec("two", 4, 1.0)),
    )


def small_trace():
    """A deterministic trace that saturates the platform for a while."""
    jobs = []
    job_id = 0
    for wave in range(4):
        for _ in range(3):
            jobs.append(
                make_job(
                    job_id,
                    submit_time=600.0 * wave,
                    procs=2,
                    runtime=1200.0,
                    walltime=3600.0,
                )
            )
            job_id += 1
    return jobs


class TestBaselineRun:
    def test_all_jobs_complete(self, platform):
        result = GridSimulation(platform, small_trace(), batch_policy="fcfs").run()
        assert len(result) == 12
        assert result.completed_count == 12
        assert result.total_reallocations == 0
        assert result.makespan > 0

    def test_response_times_positive(self, platform):
        result = GridSimulation(platform, small_trace(), batch_policy="cbf").run()
        assert all(rt >= 0 for rt in result.response_times().values())

    def test_metadata_describes_configuration(self, platform):
        result = GridSimulation(platform, small_trace(), batch_policy="cbf").run()
        assert result.metadata["batch_policy"] == "CBF"
        assert result.metadata["reallocation"] == "none"
        assert result.metadata["n_jobs"] == 12

    def test_oversized_jobs_are_rejected(self, platform):
        jobs = small_trace() + [make_job(99, submit_time=0.0, procs=64, runtime=10.0)]
        result = GridSimulation(platform, jobs, batch_policy="fcfs").run()
        assert result.rejected_count == 1
        assert result[99].state is JobState.REJECTED

    @pytest.mark.parametrize("algorithm", ["standard", "cancellation"])
    def test_rejected_jobs_do_not_keep_the_agent_ticking(self, platform, algorithm):
        # Rejected jobs never complete; the pending-work count must still
        # reach zero once every accepted job has completed.
        jobs = small_trace() + [
            make_job(90 + i, submit_time=300.0 * i, procs=64, runtime=10.0)
            for i in range(3)
        ]
        simulation = GridSimulation(platform, jobs, batch_policy="cbf",
                                    reallocation=algorithm)
        # Bounded run: an agent that never stops would leave a tick queued.
        result = simulation.run(until=1e6)
        assert result.rejected_count == 3
        assert result.completed_count == 12
        assert not simulation._has_pending_work()
        assert simulation.kernel.pending_events == 0
        last_completion = max(job.completion_time for job in jobs[:12])
        period = simulation.reallocation_agent.period
        assert result.reallocation_events <= last_completion // period + 1

    def test_run_is_single_use(self, platform):
        simulation = GridSimulation(platform, small_trace())
        simulation.run()
        with pytest.raises(RuntimeError):
            simulation.run()

    def test_determinism(self, platform):
        first = GridSimulation(platform, [j.copy() for j in small_trace()]).run()
        second = GridSimulation(platform, [j.copy() for j in small_trace()]).run()
        assert first.completion_times() == second.completion_times()

    def test_event_trace_recording(self, platform):
        simulation = GridSimulation(platform, small_trace(), record_events=True)
        simulation.run()
        assert simulation.event_trace is not None
        assert len(simulation.event_trace) > 0


class TestReallocationRun:
    def test_reallocation_agent_attached_and_ticking(self, platform):
        simulation = GridSimulation(
            platform,
            small_trace(),
            batch_policy="fcfs",
            reallocation="standard",
            heuristic="minmin",
        )
        result = simulation.run()
        assert simulation.reallocation_agent is not None
        assert result.reallocation_events >= 1
        assert result.completed_count == 12

    def test_reallocation_metadata(self, platform):
        result = GridSimulation(
            platform,
            small_trace(),
            batch_policy="cbf",
            reallocation="cancellation",
            heuristic="maxgain",
        ).run()
        assert result.metadata["reallocation"] == "cancellation"
        assert result.metadata["heuristic"] == "maxgain"
        assert "cancellation" in result.label

    def test_invalid_policy_names_raise(self, platform):
        with pytest.raises(ValueError):
            GridSimulation(platform, [], batch_policy="sjf")
        with pytest.raises(ValueError):
            GridSimulation(platform, [], reallocation="swap")

    def test_all_jobs_still_complete_with_reallocation(self, platform):
        for algorithm in ("standard", "cancellation"):
            for heuristic in ("mct", "minmin", "sufferage"):
                result = GridSimulation(
                    platform,
                    [j.copy() for j in small_trace()],
                    batch_policy="fcfs",
                    reallocation=algorithm,
                    heuristic=heuristic,
                ).run()
                assert result.completed_count == 12, (algorithm, heuristic)

    def test_comparison_against_baseline_is_well_formed(self, platform):
        trace = small_trace()
        baseline = GridSimulation(platform, [j.copy() for j in trace]).run()
        realloc = GridSimulation(
            platform,
            [j.copy() for j in trace],
            reallocation="cancellation",
            heuristic="minmin",
        ).run()
        metrics = compare_runs(baseline, realloc)
        assert metrics.compared_jobs == 12
        assert 0.0 <= metrics.pct_impacted <= 100.0
        assert 0.0 <= metrics.pct_earlier <= 100.0
        assert metrics.relative_response_time > 0.0

    def test_heterogeneous_platform_runs(self):
        platform = PlatformSpec(
            "heter", (ClusterSpec("slow", 4, 1.0), ClusterSpec("fast", 4, 2.0))
        )
        result = GridSimulation(
            platform,
            small_trace(),
            batch_policy="cbf",
            reallocation="standard",
            heuristic="mct",
        ).run()
        assert result.completed_count == 12
        # the fast cluster should attract at least one job
        assert any(record.final_cluster == "fast" for record in result)
