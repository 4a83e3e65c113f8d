"""Columnar :class:`JobTable`: construction, aggregates, and the
``compare_tables`` differential against the per-record metric path."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.batch.job import JobState
from repro.batch.jobtable import JobTable
from repro.core.metrics import compare_runs, compare_tables
from repro.core.results import JobRecord, RunResult
from repro.workload.swf import iter_swf
from oracles.metrics import compare_runs_reference
from tests.conftest import make_job
from tests.test_workload_swf import swf_line


def make_record(
    job_id,
    submit=0.0,
    procs=1,
    runtime=100.0,
    start=None,
    completion=None,
    state=JobState.COMPLETED,
    site="lyon",
    cluster="capricorne",
    killed=False,
    reallocs=0,
    outages=0,
):
    return JobRecord(
        job_id=job_id,
        submit_time=submit,
        procs=procs,
        runtime=runtime,
        walltime=2.0 * runtime,
        origin_site=site,
        final_cluster=cluster,
        start_time=start,
        completion_time=completion,
        state=state,
        killed=killed,
        reallocation_count=reallocs,
        outage_kills=outages,
    )


class TestConstruction:
    def test_from_jobs_static_fields(self):
        jobs = [make_job(i, submit_time=float(i), procs=i + 1, origin_site="ctc")
                for i in range(5)]
        table = JobTable.from_jobs(jobs)
        assert len(table) == 5
        assert table.job_id.tolist() == [0, 1, 2, 3, 4]
        assert table.submit_time.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert table.procs.tolist() == [1, 2, 3, 4, 5]
        assert not table.has_outcomes
        assert all(table.site(i) == "ctc" for i in range(5))

    def test_from_generator_streams(self):
        def generate():
            for i in range(10):
                yield make_job(i)

        table = JobTable.from_jobs(generate())
        assert len(table) == 10

    def test_from_iter_swf_stream(self):
        lines = [swf_line(job_id=i, submit=i * 10) for i in range(1, 8)]
        table = JobTable.from_jobs(iter_swf(lines, site="ctc"))
        assert len(table) == 7
        assert table.job_id.tolist() == list(range(1, 8))
        assert table.site(0) == "ctc"

    def test_capacity_growth_preserves_rows(self):
        table = JobTable(capacity=4)
        for i in range(100):
            table.append(i, float(i), 1, 10.0, 20.0, site=f"s{i % 3}")
        assert len(table) == 100
        assert table.job_id.tolist() == list(range(100))
        assert [table.site(i) for i in range(6)] == ["s0", "s1", "s2", "s0", "s1", "s2"]

    def test_growth_preserves_outcomes(self):
        table = JobTable(capacity=2)
        for i in range(20):
            index = table.append(i, float(i), 1, 10.0, 20.0)
            if i % 2 == 0:
                table.set_outcome(index, start_time=float(i), completion_time=i + 10.0,
                                  state=JobState.COMPLETED)
        assert table.completed_count == 10
        assert np.isnan(table.completion_time[1])
        assert table.completion_time[18] == 28.0

    def test_site_interning(self):
        table = JobTable()
        for i in range(1000):
            table.append(i, 0.0, 1, 1.0, 2.0, site="lyon" if i % 2 else "sophia")
        assert len(table._sites) == 2

    def test_columns_are_read_only(self):
        table = JobTable.from_jobs([make_job(1)])
        with pytest.raises(ValueError):
            table.job_id[0] = 99

    def test_add_job_snapshots_dynamic_state(self):
        job = make_job(1, submit_time=5.0)
        job.start_time = 7.0
        job.completion_time = 107.0
        job.state = JobState.COMPLETED
        job.cluster = "sagittaire"
        table = JobTable.from_jobs([job])
        assert table.has_outcomes
        assert table.start_time[0] == 7.0
        assert table.completion_time[0] == 107.0
        assert table.completed_count == 1


class TestRecordsRoundTrip:
    def test_records_match_per_object_path(self):
        rng = random.Random(5)
        records = []
        for i in range(300):
            completed = rng.random() < 0.8
            start = rng.uniform(0, 100) if completed else None
            records.append(make_record(
                i,
                submit=rng.uniform(0, 50),
                start=start,
                completion=start + rng.uniform(1, 500) if completed else None,
                state=JobState.COMPLETED if completed else JobState.REJECTED,
                site=rng.choice(["lyon", "sophia", None]),
                cluster=rng.choice(["capricorne", "helios", None]),
                killed=rng.random() < 0.1,
                reallocs=rng.randrange(3),
                outages=rng.randrange(2),
            ))
        table = JobTable.from_records(records)
        # Small chunk size so the chunk boundary logic is exercised.
        rebuilt = [r for chunk in table.records(chunk_size=64) for r in chunk]
        assert rebuilt == records

    def test_records_requires_outcomes(self):
        table = JobTable.from_jobs([make_job(1)])
        with pytest.raises(ValueError):
            list(table.records())

    def test_run_result_table_round_trip(self):
        records = {
            i: make_record(i, submit=float(i), start=float(i + 1), completion=float(i + 50))
            for i in range(40)
        }
        result = RunResult.from_table("rt", JobTable.from_records(records.values()),
                                      total_reallocations=3)
        back = RunResult.from_dict(result.to_dict())
        assert back.records == result.records == records
        assert back.makespan == result.makespan == 89.0

    @pytest.mark.parametrize("column", ["site_code", "cluster_code", "state"])
    @pytest.mark.parametrize("code", [-1, 99])
    def test_from_columns_rejects_codes_outside_their_category_list(self, column, code):
        table = JobTable.from_records([make_record(1), make_record(2, site="ctc")])
        columns, sites, clusters = table.to_columns()
        back = JobTable.from_columns(columns, sites, clusters)
        assert list(back.records()) == list(table.records())
        columns = {name: np.array(values) for name, values in columns.items()}
        columns[column][0] = code
        with pytest.raises(ValueError):
            JobTable.from_columns(columns, sites, clusters)

    def test_job_materialisation(self):
        table = JobTable.from_jobs([make_job(3, submit_time=1.5, procs=4,
                                             runtime=10.0, origin_site="ctc")])
        job = table.job(0)
        assert (job.job_id, job.submit_time, job.procs) == (3, 1.5, 4)
        assert job.origin_site == "ctc"
        assert job.state is JobState.PENDING
        with pytest.raises(IndexError):
            table.job(1)
        assert [j.job_id for j in table.iter_jobs()] == [3]


class TestAggregates:
    def build(self):
        records = [
            make_record(1, submit=0.0, start=1.0, completion=11.0),
            make_record(2, submit=5.0, start=8.0, completion=30.0, killed=True),
            make_record(3, submit=6.0, state=JobState.REJECTED),
            make_record(4, submit=7.0, start=9.0, completion=20.0, outages=2),
        ]
        return records, JobTable.from_records(records)

    def test_counts_match_run_result(self):
        records, table = self.build()
        result = RunResult("x", table=table)
        assert table.completed_count == result.completed_count == 3
        assert table.killed_count == result.killed_count == 1
        assert table.rejected_count == result.rejected_count == 1
        assert table.disrupted_count == result.disrupted_count == 1

    def test_response_and_wait_times(self):
        _, table = self.build()
        assert sorted(table.response_times().tolist()) == [11.0, 13.0, 25.0]
        assert sorted(table.wait_times().tolist()) == [1.0, 2.0, 3.0]
        assert table.mean_response_time() == pytest.approx((11.0 + 25.0 + 13.0) / 3)
        assert table.makespan() == 30.0

    def test_empty_table_aggregates(self):
        table = JobTable()
        assert table.completed_count == 0
        assert table.makespan() == 0.0
        assert table.mean_response_time() == 0.0
        assert table.response_times().size == 0
        assert table.total_core_seconds() == 0.0

    def test_total_core_seconds(self):
        table = JobTable.from_jobs([
            make_job(1, procs=2, runtime=10.0, walltime=100.0),
            make_job(2, procs=3, runtime=50.0, walltime=20.0),  # killed at walltime
        ])
        assert table.total_core_seconds() == pytest.approx(2 * 10.0 + 3 * 20.0)

    def test_completion_by_job_id_sorted(self):
        records = [make_record(9, completion=1.0, start=0.5),
                   make_record(2, completion=3.0, start=0.5),
                   make_record(5, state=JobState.REJECTED)]
        table = JobTable.from_records(records)
        ids, times = table.completion_by_job_id()
        assert ids.tolist() == [2, 9]
        assert times.tolist() == [3.0, 1.0]


class TestCompareTablesDifferential:
    def random_pair(self, seed):
        rng = random.Random(seed)
        base, re = {}, {}
        for i in range(200):
            submit = rng.uniform(0, 100)
            if rng.random() < 0.9:
                b_start = submit + rng.uniform(0, 10)
                b_done = b_start + rng.uniform(1, 200)
                base[i] = make_record(i, submit=submit, start=b_start, completion=b_done)
            else:
                base[i] = make_record(i, submit=submit, state=JobState.REJECTED)
            if rng.random() < 0.9:
                r_start = submit + rng.uniform(0, 10)
                # Half the jobs keep the identical completion (unimpacted).
                if i in base and base[i].completion_time is not None and rng.random() < 0.5:
                    r_done = base[i].completion_time
                else:
                    r_done = r_start + rng.uniform(1, 200)
                re[i] = make_record(i, submit=submit, start=r_start, completion=r_done,
                                    reallocs=rng.randrange(2))
            else:
                re[i] = make_record(i, submit=submit, state=JobState.REJECTED)
        realloc_total = sum(r.reallocation_count for r in re.values())
        return (RunResult.from_table("base", JobTable.from_records(base.values())),
                RunResult.from_table("re", JobTable.from_records(re.values()),
                                     total_reallocations=realloc_total))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_compare_runs_reference(self, seed):
        baseline, realloc = self.random_pair(seed)
        expected = compare_runs_reference(baseline, realloc)
        got = compare_tables(baseline.to_table(), realloc.to_table(),
                             reallocations=realloc.total_reallocations)
        # Bit-identical, not approximately equal: the columnar sums run
        # sequentially in the reference order.
        assert got == expected

    @pytest.mark.parametrize("seed", range(3))
    def test_compare_runs_wrapper_matches_reference(self, seed):
        baseline, realloc = self.random_pair(seed)
        assert compare_runs(baseline, realloc) == compare_runs_reference(
            baseline, realloc)

    def test_no_impacted_jobs(self):
        records = {i: make_record(i, start=1.0, completion=10.0) for i in range(5)}
        result = RunResult.from_table("same", JobTable.from_records(records.values()))
        metrics = compare_tables(result.to_table(), result.to_table())
        assert metrics.impacted_jobs == 0
        assert metrics.relative_response_time == 1.0
        assert metrics.pct_earlier == 0.0

    def test_empty_tables(self):
        metrics = compare_tables(JobTable(), JobTable())
        assert metrics.compared_jobs == 0
        assert metrics.pct_impacted == 0.0
