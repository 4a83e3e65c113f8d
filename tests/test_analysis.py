"""Tests for the analysis package (stats and timelines)."""

from __future__ import annotations

import pytest

from repro.analysis.stats import (
    DistributionStats,
    bounded_slowdown,
    per_cluster_breakdown,
    response_time_stats,
    slowdown_stats,
    summarize_run,
    wait_time_stats,
)
from repro.analysis.timeline import (
    TimeSeries,
    per_cluster_utilization,
    utilization_timeline,
    waiting_jobs_timeline,
)
from repro.batch.job import JobState
from repro.batch.jobtable import JobTable
from repro.core.results import JobRecord, RunResult
from repro.grid.simulation import GridSimulation
from repro.platform.spec import ClusterSpec, PlatformSpec
from tests.conftest import make_job


def record(job_id, submit=0.0, start=10.0, completion=110.0, procs=2, cluster="alpha",
           runtime=100.0, walltime=200.0):
    return JobRecord(
        job_id=job_id,
        submit_time=submit,
        procs=procs,
        runtime=runtime,
        walltime=walltime,
        origin_site=None,
        final_cluster=cluster,
        start_time=start,
        completion_time=completion,
        state=JobState.COMPLETED,
        killed=False,
        reallocation_count=0,
    )


def result_from(records):
    return RunResult.from_table("test", JobTable.from_records(records))


class TestDistributionStats:
    def test_from_values(self):
        stats = DistributionStats.from_values([1.0, 2.0, 3.0, 4.0])
        assert stats.count == 4
        assert stats.mean == pytest.approx(2.5)
        assert stats.median == pytest.approx(2.5)
        assert stats.maximum == 4.0
        assert stats.p95 == pytest.approx(3.85)

    def test_empty(self):
        stats = DistributionStats.from_values([])
        assert stats.count == 0
        assert stats.mean == 0.0
        assert stats.maximum == 0.0


class TestJobStats:
    def test_bounded_slowdown(self):
        rec = record(1, submit=0.0, start=100.0, completion=200.0, runtime=100.0)
        # response 200, runtime 100 -> slowdown 2
        assert bounded_slowdown(rec) == pytest.approx(2.0)

    def test_bounded_slowdown_short_job_clamped(self):
        rec = record(1, submit=0.0, start=50.0, completion=51.0, runtime=1.0, walltime=60.0)
        # effective runtime clamped at tau=10 -> 51 / 10
        assert bounded_slowdown(rec) == pytest.approx(5.1)

    def test_bounded_slowdown_never_below_one(self):
        rec = record(1, submit=0.0, start=0.0, completion=5.0, runtime=5.0, walltime=10.0)
        assert bounded_slowdown(rec) == 1.0

    def test_bounded_slowdown_unfinished_is_none(self):
        rec = JobRecord(
            job_id=1, submit_time=0.0, procs=1, runtime=10.0, walltime=20.0,
            origin_site=None, final_cluster=None, start_time=None, completion_time=None,
            state=JobState.PENDING, killed=False, reallocation_count=0,
        )
        assert bounded_slowdown(rec) is None

    def test_response_and_wait_stats(self):
        run = result_from([
            record(1, submit=0.0, start=10.0, completion=110.0),
            record(2, submit=0.0, start=0.0, completion=50.0),
        ])
        responses = response_time_stats(run)
        waits = wait_time_stats(run)
        assert responses.count == 2
        assert responses.mean == pytest.approx(80.0)
        assert waits.mean == pytest.approx(5.0)

    def test_slowdown_stats(self):
        run = result_from([record(1, submit=0.0, start=100.0, completion=200.0, runtime=100.0)])
        assert slowdown_stats(run).mean == pytest.approx(2.0)


class TestBreakdownAndSummary:
    def test_per_cluster_breakdown(self):
        run = result_from([
            record(1, cluster="alpha", procs=2, start=0.0, completion=100.0),
            record(2, cluster="alpha", procs=1, start=0.0, completion=50.0),
            record(3, cluster="beta", procs=4, start=10.0, completion=110.0),
        ])
        breakdown = per_cluster_breakdown(run)
        assert set(breakdown) == {"alpha", "beta"}
        assert breakdown["alpha"].jobs == 2
        assert breakdown["alpha"].core_seconds == pytest.approx(2 * 100 + 1 * 50)
        assert breakdown["beta"].core_seconds == pytest.approx(400.0)

    def test_summarize_run_on_simulation_output(self, small_platform):
        jobs = [make_job(i, submit_time=10.0 * i, procs=2, runtime=50.0) for i in range(6)]
        run = GridSimulation(small_platform, jobs, batch_policy="fcfs").run()
        summary = summarize_run(run)
        assert summary.jobs == 6
        assert summary.completed == 6
        assert summary.response_time.count == 6
        assert summary.makespan == run.makespan
        assert sum(b.jobs for b in summary.clusters.values()) == 6


class TestTimeSeries:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeSeries(times=(0.0, 1.0), values=(1.0,))
        with pytest.raises(ValueError):
            TimeSeries(times=(1.0, 0.0), values=(1.0, 2.0))

    def test_value_at_and_peak(self):
        series = TimeSeries(times=(0.0, 10.0, 20.0), values=(2.0, 5.0, 1.0))
        assert series.value_at(-1.0) == 0.0
        assert series.value_at(0.0) == 2.0
        assert series.value_at(15.0) == 5.0
        assert series.value_at(100.0) == 1.0
        assert series.peak == 5.0

    def test_mean_over(self):
        series = TimeSeries(times=(0.0, 10.0), values=(2.0, 4.0))
        # [0, 10): 2, [10, 20): 4 -> mean over [0, 20) is 3
        assert series.mean_over(0.0, 20.0) == pytest.approx(3.0)


class TestTimelines:
    def test_utilization_timeline_from_records(self):
        run = result_from([
            record(1, start=0.0, completion=100.0, procs=2),
            record(2, start=50.0, completion=150.0, procs=3),
        ])
        series = utilization_timeline(run)
        assert series.value_at(25.0) == 2.0
        assert series.value_at(75.0) == 5.0
        assert series.value_at(125.0) == 3.0
        assert series.value_at(200.0) == 0.0
        assert series.peak == 5.0

    def test_utilization_normalised_by_platform(self):
        platform = PlatformSpec("p", (ClusterSpec("alpha", 10),))
        run = result_from([record(1, start=0.0, completion=100.0, procs=5, cluster="alpha")])
        series = utilization_timeline(run, platform)
        assert series.value_at(50.0) == pytest.approx(0.5)

    def test_utilization_unknown_cluster_raises(self):
        platform = PlatformSpec("p", (ClusterSpec("alpha", 10),))
        run = result_from([record(1)])
        with pytest.raises(ValueError):
            utilization_timeline(run, platform, cluster="beta")

    def test_waiting_jobs_timeline(self):
        run = result_from([
            record(1, submit=0.0, start=50.0, completion=100.0),
            record(2, submit=10.0, start=60.0, completion=100.0),
            record(3, submit=20.0, start=20.0, completion=30.0),  # started immediately
        ])
        series = waiting_jobs_timeline(run)
        assert series.value_at(5.0) == 1.0
        assert series.value_at(15.0) == 2.0
        assert series.value_at(55.0) == 1.0
        assert series.value_at(70.0) == 0.0

    def test_per_cluster_utilization(self, small_platform):
        jobs = [make_job(i, submit_time=0.0, procs=2, runtime=100.0) for i in range(4)]
        run = GridSimulation(small_platform, jobs, batch_policy="fcfs").run()
        series_by_cluster = per_cluster_utilization(run, small_platform)
        assert set(series_by_cluster) == {"alpha", "beta"}
        total_peak = sum(series.peak for series in series_by_cluster.values())
        assert total_peak > 0.0

    def test_conservation_between_stats_and_timeline(self, small_platform):
        jobs = [make_job(i, submit_time=5.0 * i, procs=1, runtime=30.0) for i in range(8)]
        run = GridSimulation(small_platform, jobs, batch_policy="cbf").run()
        series = utilization_timeline(run)
        core_seconds = sum(
            b.core_seconds for b in per_cluster_breakdown(run).values()
        )
        assert series.mean_over(0.0, run.makespan) * run.makespan == pytest.approx(core_seconds)


class TestBenchReportSerialization:
    def test_canonical_form_is_sorted_and_rounded(self):
        from repro.analysis.benchio import dumps_bench_report

        report = {"zeta": 0.123456789, "alpha": {"b": 2, "a": True}, "list": [1.00004, "x"]}
        text = dumps_bench_report(report)
        assert text.endswith("\n") and not text.endswith("\n\n")
        assert text.index('"alpha"') < text.index('"list"') < text.index('"zeta"')
        assert "0.1235" in text and "1.0" in text
        assert "0.123456789" not in text
        # Serialization is idempotent and bools survive the float rounding.
        assert dumps_bench_report(report) == text
        assert '"a": true' in text

    def test_rerun_with_identical_content_does_not_touch_the_file(self, tmp_path):
        import os

        from repro.analysis.benchio import dump_bench_report

        path = tmp_path / "BENCH_x.json"
        dump_bench_report(path, {"speedup": 4.52001})
        first = path.read_text()
        stamp = os.stat(path).st_mtime_ns
        os.utime(path, ns=(stamp - 10_000_000_000, stamp - 10_000_000_000))
        stamp = os.stat(path).st_mtime_ns
        dump_bench_report(path, {"speedup": 4.520011})  # rounds identically
        assert path.read_text() == first
        assert os.stat(path).st_mtime_ns == stamp

    def test_non_json_values_are_rejected(self):
        from repro.analysis.benchio import dumps_bench_report

        with pytest.raises(TypeError):
            dumps_bench_report({"bad": object()})
