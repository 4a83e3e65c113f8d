"""Differential oracle for dynamic capacity: live state vs from-scratch rebuild.

Extends the incremental-planning oracle (``test_incremental_planning``) to
resource events: randomized sequences of submissions, time advances and
capacity changes (grow, shrink, full outage — each possibly killing and
requeueing running jobs) are driven through a :class:`BatchServer`, and
after *every* event the live state must equal the from-scratch reference
float for float:

* the cluster's availability profile equals ``build_profile`` of
  ``oracles.planners`` (which rebuilds from the running set at the
  *current* capacity);
* the incremental plan equals the reference ``plan_fcfs`` / ``plan_cbf``
  over that rebuilt profile;
* FCFS frontier and foreign-job estimates follow the reference formulas.

Both policies are exercised, as required by the acceptance criteria.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.job import Job
from repro.sim.kernel import SimulationKernel
from tests.conftest import make_server
from tests.test_incremental_planning import PROBES, assert_matches_reference

TOTAL_PROCS = 8

# One event of the randomized script:
#   ("submit", procs, runtime, walltime_factor)
#   ("advance", dt)          -- run the kernel forward (starts/completions fire)
#   ("capacity", new_value)  -- resource event at the current time
event = st.one_of(
    st.tuples(
        st.just("submit"),
        st.integers(1, TOTAL_PROCS),
        st.floats(1.0, 500.0),
        st.floats(1.0, 3.0),
    ),
    st.tuples(st.just("advance"), st.floats(1.0, 400.0)),
    st.tuples(st.just("capacity"), st.integers(0, TOTAL_PROCS)),
)


class TestCapacityDifferentialOracle:
    @given(
        st.lists(event, min_size=1, max_size=25),
        st.sampled_from(["fcfs", "cbf"]),
        st.sampled_from([1.0, 1.5]),
    )
    @settings(max_examples=60, deadline=None)
    def test_capacity_change_sequences_match_reference(self, events, policy, speed):
        kernel = SimulationKernel()
        server = make_server(kernel, procs=TOTAL_PROCS, speed=speed, policy=policy)
        next_id = 0
        for op in events:
            if op[0] == "submit":
                _, procs, runtime, factor = op
                job = Job(
                    job_id=next_id,
                    submit_time=kernel.now,
                    procs=procs,
                    runtime=runtime,
                    walltime=max(1.0, runtime * factor),
                )
                next_id += 1
                server.submit(job)
            elif op[0] == "advance":
                kernel.run(until=kernel.now + op[1])
            else:
                server.apply_capacity_change(op[1])
            assert_matches_reference(server, PROBES)

        # Books balance at the end of every script: nothing was lost.
        recovered = server.outage_killed_count
        assert server.requeued_count == recovered
        assert server.started_count >= server.completed_count
        if recovered:
            assert server.work_lost >= 0.0

    @given(st.lists(event, min_size=1, max_size=25), st.sampled_from(["fcfs", "cbf"]))
    @settings(max_examples=30, deadline=None)
    def test_scripts_drain_after_full_recovery(self, events, policy):
        """After restoring full capacity, every submitted job completes."""
        kernel = SimulationKernel()
        server = make_server(kernel, procs=TOTAL_PROCS, policy=policy)
        jobs = []
        next_id = 0
        for op in events:
            if op[0] == "submit":
                _, procs, runtime, factor = op
                job = Job(
                    job_id=next_id,
                    submit_time=kernel.now,
                    procs=procs,
                    runtime=runtime,
                    walltime=max(1.0, runtime * factor),
                )
                next_id += 1
                jobs.append(job)
                server.submit(job)
            elif op[0] == "advance":
                kernel.run(until=kernel.now + op[1])
            else:
                server.apply_capacity_change(op[1])
        server.apply_capacity_change(TOTAL_PROCS)
        assert_matches_reference(server, PROBES)
        kernel.run()
        assert server.completed_count == len(jobs)
        assert server.queue_length == 0
        assert_matches_reference(server, PROBES)
