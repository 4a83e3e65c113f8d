"""Dynamic platforms: capacity changes across cluster, server, grid and sim.

Covers the whole vertical slice of the dynamic-platform refactor:

* :meth:`ClusterState.apply_capacity` — profile-consistent shrink/grow
  with deterministic LIFO victim selection;
* :meth:`BatchServer.apply_capacity_change` — kill + requeue-at-head +
  replan, completion-event cancellation, disruption counters, recovery;
* timeline-driven servers (resource events scheduled on the kernel, event
  ordering against completions);
* failure-aware meta-scheduling and reallocation (down clusters attract
  nothing, stranded jobs are rescued);
* :class:`GridSimulation` end-to-end on outage-scripted platforms, with
  disruption accounting in :class:`RunResult`;
* the identity guarantee: a timeline-free (or trivially-timelined)
  platform produces byte-identical results to the historical static path.
"""

from __future__ import annotations

import math

import pytest

from repro.batch.job import JobState
from repro.batch.server import BatchServer
from repro.experiments.campaign import execute_config, experiment_platform
from repro.experiments.config import ExperimentConfig
from repro.grid.metascheduler import MetaScheduler
from repro.grid.reallocation import ReallocationAgent
from repro.grid.simulation import GridSimulation
from repro.platform.spec import ClusterSpec, PlatformSpec
from repro.platform.timeline import AvailabilityTimeline
from repro.sim.kernel import SimulationKernel
from repro.workload.scenarios import get_scenario
from tests.conftest import make_job, make_server

from oracles.planners import build_profile


class TestClusterCapacity:
    def test_shrink_without_victims(self, kernel):
        server = make_server(kernel, procs=8)
        cluster = server.cluster
        victims = cluster.apply_capacity(4)
        assert victims == []
        assert cluster.capacity == 4
        assert cluster.total_procs == 8
        assert cluster.free_procs == 4
        assert cluster.availability(0.0).free_at(0.0) == 4

    def test_shrink_kills_most_recently_started_first(self, kernel):
        cluster = make_server(kernel, procs=8).cluster
        first = make_job(1, procs=3, runtime=500.0)
        second = make_job(2, procs=3, runtime=500.0)
        cluster.start_job(first, 0.0)
        cluster.start_job(second, 10.0)
        victims = cluster.apply_capacity(4)
        assert [entry.job.job_id for entry in victims] == [2]
        assert cluster.is_running(1) and not cluster.is_running(2)
        assert cluster.used_procs == 3

    def test_outage_kills_everything_and_profile_stays_consistent(self, kernel):
        cluster = make_server(kernel, procs=8).cluster
        cluster.start_job(make_job(1, procs=3, runtime=500.0), 0.0)
        cluster.start_job(make_job(2, procs=5, runtime=500.0), 0.0)
        victims = cluster.apply_capacity(0)
        assert [entry.job.job_id for entry in victims] == [2, 1]  # LIFO by job id tie
        assert cluster.capacity == 0
        assert not cluster.is_up
        live = cluster.availability(100.0)
        rebuilt = build_profile(cluster, 100.0)
        assert list(live.breakpoints()) == list(rebuilt.breakpoints())
        assert live.free_at(100.0) == 0
        assert live.earliest_slot(1, 10.0, 100.0) == math.inf

    def test_recovery_restores_capacity(self, kernel):
        cluster = make_server(kernel, procs=8).cluster
        cluster.apply_capacity(0)
        cluster.apply_capacity(8)
        assert cluster.capacity == 8
        assert cluster.availability(20.0).free_at(20.0) == 8
        assert cluster.fits_now(make_job(1, procs=8))

    def test_capacity_bounds_are_enforced(self, kernel):
        cluster = make_server(kernel, procs=8).cluster
        with pytest.raises(ValueError):
            cluster.apply_capacity(-1)
        with pytest.raises(ValueError):
            cluster.apply_capacity(9)

    def test_fits_vs_fits_now(self, kernel):
        cluster = make_server(kernel, procs=8).cluster
        job = make_job(1, procs=6)
        assert cluster.fits(job) and cluster.fits_now(job)
        cluster.apply_capacity(4)
        assert cluster.fits(job) and not cluster.fits_now(job)


class TestServerResourceEvents:
    def test_outage_kills_requeues_and_recovery_restarts(self, kernel):
        server = make_server(kernel, procs=4)
        job = make_job(1, procs=4, runtime=100.0, walltime=200.0)
        server.submit(job)
        kernel.run(until=50.0)
        assert job.state is JobState.RUNNING

        server.apply_capacity_change(0)
        assert job.state is JobState.WAITING
        assert job.start_time is None
        assert job.outage_kills == 1
        assert server.outage_killed_count == 1
        assert server.requeued_count == 1
        assert server.work_lost == 4 * 50.0
        assert server.estimate_completion(make_job(99, procs=1)) == math.inf

        kernel.run(until=150.0)
        assert job.state is JobState.WAITING  # still down, nothing restarts
        server.apply_capacity_change(4)
        kernel.run()
        assert job.state is JobState.COMPLETED
        assert job.completion_time == 150.0 + 100.0
        assert job.outage_kills == 1
        # The cancelled first completion event never fired.
        assert server.completed_count == 1

    def test_victims_requeue_at_head_in_start_order(self, kernel):
        server = make_server(kernel, procs=8)
        first = make_job(1, procs=4, runtime=1000.0)
        second = make_job(2, procs=4, runtime=1000.0)
        waiting = make_job(3, procs=8, runtime=10.0)
        server.submit(first)
        kernel.run(until=10.0)
        server.submit(second)
        server.submit(waiting)
        assert server.cluster.running_count == 2
        server.apply_capacity_change(0)
        assert [job.job_id for job in server.waiting_jobs()] == [1, 2, 3]

    def test_degraded_capacity_kills_only_the_excess(self, kernel):
        server = make_server(kernel, procs=8)
        first = make_job(1, procs=3, runtime=1000.0)
        second = make_job(2, procs=3, runtime=1000.0)
        server.submit(first)
        server.submit(second)
        kernel.run(until=1.0)
        server.apply_capacity_change(4)
        assert first.state is JobState.RUNNING
        assert second.state is JobState.WAITING
        assert server.capacity == 4
        # The requeued job cannot be replaced until the running one's
        # walltime window (2x its runtime) ends.
        assert server.planned_completion(second) == 2000.0 + 2000.0

    def test_timeline_drives_resource_events_through_the_kernel(self, kernel):
        timeline = AvailabilityTimeline().with_outage(50.0, 150.0)
        server = BatchServer(kernel, "alpha", 4, timeline=timeline)
        job = make_job(1, procs=4, runtime=100.0, walltime=400.0)
        server.submit(job)
        kernel.run()
        assert server.capacity_changes == 2
        assert server.outage_killed_count == 1
        assert job.completion_time == 150.0 + 100.0
        assert job.state is JobState.COMPLETED

    def test_joining_cluster_starts_down(self, kernel):
        timeline = AvailabilityTimeline().joining_at(100.0)
        server = BatchServer(kernel, "alpha", 4, timeline=timeline)
        assert server.capacity == 0
        job = make_job(1, procs=2, runtime=10.0)
        server.submit(job)  # nominal admission: the queue accepts it
        assert server.estimate_completion(job) == math.inf
        kernel.run()
        assert job.state is JobState.COMPLETED
        assert job.start_time == 100.0
        # The join itself kills nothing.
        assert server.outage_killed_count == 0

    def test_completion_at_outage_start_wins_the_tie(self, kernel):
        # A job reaching its completion exactly when the outage starts
        # completes normally: JOB_COMPLETION (priority 0) fires before
        # RESOURCE_CHANGE (priority 1) at the same timestamp.
        timeline = AvailabilityTimeline().with_outage(100.0, 200.0)
        server = BatchServer(kernel, "alpha", 4, timeline=timeline)
        job = make_job(1, procs=4, runtime=100.0, walltime=150.0)
        server.submit(job)
        kernel.run()
        assert job.completion_time == 100.0
        assert job.outage_kills == 0
        assert server.outage_killed_count == 0

    def test_on_outage_kill_callback(self, kernel):
        killed = []
        server = BatchServer(
            kernel, "alpha", 4,
            timeline=AvailabilityTimeline().with_outage(50.0, 60.0),
            on_outage_kill=killed.append,
        )
        job = make_job(1, procs=4, runtime=100.0, walltime=400.0)
        server.submit(job)
        kernel.run()
        assert killed == [job]

    def test_trivial_timeline_schedules_nothing(self, kernel):
        server = BatchServer(kernel, "alpha", 4, timeline=AvailabilityTimeline())
        assert kernel.pending_events == 0
        assert server.capacity == 4


class TestFailureAwareMapping:
    def _grid(self, kernel):
        alpha = make_server(kernel, "alpha", procs=8)
        beta = make_server(kernel, "beta", procs=8)
        return alpha, beta, MetaScheduler([alpha, beta])

    def test_mct_avoids_the_down_cluster(self, kernel):
        alpha, beta, scheduler = self._grid(kernel)
        alpha.apply_capacity_change(0)
        job = make_job(1, procs=4, runtime=10.0)
        assert scheduler.submit(job) is beta
        assert scheduler.available_servers(job) == [beta]

    def test_all_down_queues_instead_of_rejecting(self, kernel):
        alpha, beta, scheduler = self._grid(kernel)
        alpha.apply_capacity_change(0)
        beta.apply_capacity_change(0)
        job = make_job(1, procs=4, runtime=10.0)
        chosen = scheduler.submit(job)
        assert chosen is not None
        assert job.state is JobState.WAITING
        assert scheduler.rejected_count == 0
        chosen.apply_capacity_change(8)
        kernel.run()
        assert job.state is JobState.COMPLETED

    def test_round_robin_skips_down_clusters(self, kernel):
        alpha, beta, _ = self._grid(kernel)
        scheduler = MetaScheduler([alpha, beta], policy="round_robin")
        alpha.apply_capacity_change(0)
        first = make_job(1, procs=1, runtime=10.0)
        second = make_job(2, procs=1, runtime=10.0)
        assert scheduler.submit(first) is beta
        assert scheduler.submit(second) is beta

    def test_reallocation_rescues_jobs_stranded_on_a_down_cluster(self, kernel):
        alpha, beta, scheduler = self._grid(kernel)
        blocker = make_job(100, procs=8, runtime=5_000.0, walltime=10_000.0)
        alpha.submit(blocker)
        kernel.run(until=1.0)
        stranded = make_job(1, procs=4, runtime=100.0, walltime=300.0)
        alpha.submit(stranded)
        alpha.apply_capacity_change(0)  # kills the blocker, strands both
        assert stranded.state is JobState.WAITING
        assert alpha.estimate_completion(stranded) == math.inf

        agent = ReallocationAgent(kernel, [alpha, beta], heuristic="mct")
        moves = agent.run_once()
        assert moves >= 1
        assert stranded.cluster == "beta"
        kernel.run(until=2_000.0)
        assert stranded.state is JobState.COMPLETED


def _dynamic_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        scenario="feb",
        batch_policy="fcfs",
        algorithm="standard",
        heuristic="mct",
        scale=0.005,
        outage_script="maintenance",
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestGridSimulationDynamic:
    @pytest.mark.parametrize("policy", ["fcfs", "cbf"])
    def test_outage_scenario_reports_disruptions(self, policy):
        result = execute_config(_dynamic_config(batch_policy=policy))
        assert result.jobs_killed_by_outage > 0
        assert result.jobs_requeued == result.jobs_killed_by_outage
        assert result.work_lost > 0.0
        assert result.disrupted_count > 0
        assert result.metadata["dynamic_platform"] is True
        assert result.metadata["capacity_changes"] >= 2
        assert result.metadata["outage_script"] == "maintenance"

    @pytest.mark.parametrize("script", ["maintenance", "degraded", "join-leave", "flaky"])
    def test_baseline_completes_every_job_under_every_script(self, script):
        # Regression: a permanent capacity loss used to strand its killed
        # jobs on the dead queue forever in baseline runs (no agent to
        # rescue them), silently shrinking the metric population.  Every
        # script now restores capacity by the trace horizon, so baseline
        # and reallocation runs complete the same jobs.
        baseline = execute_config(
            _dynamic_config(outage_script=script).baseline()
        )
        assert baseline.completed_count + baseline.rejected_count == len(baseline)

    def test_dynamic_runs_are_deterministic(self):
        config = _dynamic_config(batch_policy="cbf", outage_script="flaky")
        assert execute_config(config).to_dict() == execute_config(config).to_dict()

    def test_disruption_fields_round_trip_through_serialization(self):
        from repro.core.results import RunResult

        result = execute_config(_dynamic_config())
        restored = RunResult.from_dict(result.to_dict())
        assert restored.jobs_killed_by_outage == result.jobs_killed_by_outage
        assert restored.jobs_requeued == result.jobs_requeued
        assert restored.work_lost == result.work_lost
        assert restored.to_dict() == result.to_dict()

    def test_baseline_of_a_dynamic_config_keeps_the_outage(self):
        config = _dynamic_config()
        baseline = config.baseline()
        assert baseline.outage_script == "maintenance"
        assert baseline.is_baseline and baseline.is_dynamic

    def test_experiment_platform_applies_the_script(self):
        config = _dynamic_config()
        platform = experiment_platform(config)
        assert platform.is_dynamic
        duration = get_scenario("feb").scaled_duration(config.scale)
        interval = platform.get("bordeaux").timeline.intervals[0]
        assert interval.start == 0.25 * duration
        static = experiment_platform(_dynamic_config(outage_script=None))
        assert not static.is_dynamic


class TestStaticIdentity:
    """A timeline-free platform must compile to exactly today's behaviour."""

    def _platform(self, timelines):
        return PlatformSpec(
            "ident",
            (
                ClusterSpec("alpha", 16, 1.0, timelines.get("alpha")),
                ClusterSpec("beta", 8, 1.5, timelines.get("beta")),
            ),
        )

    def _run(self, platform, **kwargs):
        jobs = [
            make_job(i, submit_time=25.0 * i, procs=1 + (i % 8),
                     runtime=50.0 + 13.0 * i, walltime=200.0 + 20.0 * i)
            for i in range(40)
        ]
        simulation = GridSimulation(platform, jobs, **kwargs)
        return simulation.run()

    @pytest.mark.parametrize("policy", ["fcfs", "cbf"])
    def test_trivial_timelines_are_the_identity(self, policy):
        static = self._run(self._platform({}), batch_policy=policy,
                           reallocation="standard")
        trivial = self._run(
            self._platform({"alpha": AvailabilityTimeline(),
                            "beta": AvailabilityTimeline.always_up()}),
            batch_policy=policy, reallocation="standard",
        )
        assert static.to_dict() == trivial.to_dict()

    def test_static_config_canonical_form_is_unchanged(self):
        # The store key of every pre-existing configuration must survive
        # the new knob: outage_script is omitted from to_dict while None.
        config = ExperimentConfig(scenario="feb", algorithm="standard")
        assert "outage_script" not in config.to_dict()
        assert ExperimentConfig.from_dict(config.to_dict()) == config
        dynamic = _dynamic_config()
        assert dynamic.to_dict()["outage_script"] == "maintenance"
        assert ExperimentConfig.from_dict(dynamic.to_dict()) == dynamic

    def test_dynamic_and_static_configs_have_distinct_labels(self):
        assert "maintenance" in _dynamic_config().label()
        assert "maintenance" not in _dynamic_config(outage_script=None).label()
