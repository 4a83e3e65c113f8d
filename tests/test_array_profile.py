"""The columnar availability engine and its float-identity with the oracle.

Three layers of evidence that :class:`ArrayProfile` is a drop-in twin of
the list-based :class:`AvailabilityProfile`:

* **mechanics** — storage growth, bulk operations against their scalar
  definitions, checkpoint/rollback exactness;
* **edge cases on both engines** — zero capacity, zero-duration queries,
  reservations ending exactly on breakpoints, advancing past the final
  breakpoint (parametrized so the oracle itself is pinned too);
* **randomized differentials** — scripted submit/cancel/advance/capacity
  sequences at the profile, planner and server levels must produce
  *exactly* equal breakpoints, plans and estimates (no tolerances).
"""

from __future__ import annotations

import math
import random

import pytest

from repro.batch.arrayprofile import (
    DEFAULT_PROFILE_ENGINE,
    PROFILE_ENGINES,
    ArrayProfile,
    make_profile,
)
from repro.batch.cluster import ClusterState
from repro.batch.job import Job
from repro.batch.policies import BatchPolicy, IncrementalPlanner, resolve_profile_engine
from repro.batch.profile import AvailabilityProfile, ProfileError
from repro.batch.server import BatchServer
from repro.sim.kernel import SimulationKernel

ENGINES = list(PROFILE_ENGINES)


def breakpoints(profile):
    return list(profile.breakpoints())


# ---------------------------------------------------------------------- #
# Factory and engine selection                                           #
# ---------------------------------------------------------------------- #
class TestMakeProfile:
    def test_array_engine(self):
        assert isinstance(make_profile("array", 8), ArrayProfile)

    def test_list_engine(self):
        assert isinstance(make_profile("list", 8), AvailabilityProfile)

    def test_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown profile engine"):
            make_profile("linked-list", 8)

    def test_default_is_auto(self):
        assert DEFAULT_PROFILE_ENGINE == "auto"
        # "auto" without a policy in sight falls back to the array engine.
        cluster = ClusterState("c", 16)
        assert isinstance(cluster.availability(0.0), ArrayProfile)

    def test_auto_resolves_per_policy(self):
        assert resolve_profile_engine("auto", BatchPolicy.FCFS) == "list"
        assert resolve_profile_engine("auto", BatchPolicy.CBF) == "array"
        # Explicit engines pass through untouched.
        assert resolve_profile_engine("list", BatchPolicy.CBF) == "list"
        assert resolve_profile_engine("array", BatchPolicy.FCFS) == "array"

    def test_auto_reaches_server_per_policy(self):
        fcfs = BatchServer(SimulationKernel(), "c", 16, policy="fcfs")
        assert isinstance(fcfs.cluster.availability(0.0), AvailabilityProfile)
        cbf = BatchServer(SimulationKernel(), "c", 16, policy="cbf")
        assert isinstance(cbf.cluster.availability(0.0), ArrayProfile)

    def test_list_engine_reaches_cluster(self):
        cluster = ClusterState("c", 16, profile_engine="list")
        assert isinstance(cluster.availability(0.0), AvailabilityProfile)


# ---------------------------------------------------------------------- #
# Array mechanics                                                        #
# ---------------------------------------------------------------------- #
class TestArrayMechanics:
    def test_growth_past_initial_capacity(self):
        profile = ArrayProfile(1000, start_time=0.0)
        for i in range(200):  # way past the initial backing capacity
            profile.subtract(float(2 * i + 1), float(2 * i + 2), 1)
        reference = AvailabilityProfile(1000, start_time=0.0)
        for i in range(200):
            reference.subtract(float(2 * i + 1), float(2 * i + 2), 1)
        assert breakpoints(profile) == breakpoints(reference)

    def test_copy_is_independent(self):
        profile = ArrayProfile(8)
        profile.subtract(1.0, 2.0, 3)
        clone = profile.copy()
        clone.subtract(1.0, 2.0, 5)
        assert profile.free_at(1.5) == 5
        assert clone.free_at(1.5) == 0

    def test_checkpoint_rollback_exact(self):
        profile = ArrayProfile(8)
        profile.subtract(1.0, 5.0, 2)
        state = profile.checkpoint()
        before = breakpoints(profile)
        profile.subtract(2.0, 3.0, 6)
        profile.release_many([(1.0, 5.0, 2)])
        profile.advance(2.5)
        profile.set_capacity(10, 2.5)
        profile.rollback(state)
        assert breakpoints(profile) == before
        assert profile.total_procs == 8

    def test_release_many_equals_sequential_adds(self):
        rng = random.Random(5)
        for _ in range(50):
            cap = rng.randint(2, 32)
            bulk = ArrayProfile(cap)
            sequential = ArrayProfile(cap)
            reservations = []
            for _ in range(rng.randint(1, 12)):
                procs = rng.randint(1, cap)
                start = rng.random() * 60
                end = start + rng.random() * 30 + 0.1
                if rng.random() < 0.2:
                    end = math.inf
                if bulk.min_free_over(start, end) >= procs:
                    bulk.subtract(start, end, procs)
                    sequential.subtract(start, end, procs)
                    reservations.append((start, end, procs))
            bulk.release_many(reservations)
            for start, end, procs in reservations:
                sequential.add(start, end, procs)
            sequential.compact()
            assert breakpoints(bulk) == breakpoints(sequential)

    def test_release_many_empty_batch_compacts(self):
        profile = ArrayProfile(8)
        profile.subtract(1.0, 2.0, 3)
        profile.add(1.0, 2.0, 3)  # leaves redundant breakpoints behind
        profile.release_many([])
        assert breakpoints(profile) == [(0.0, 8)]

    def test_release_many_rejects_nonpositive_procs(self):
        with pytest.raises(ValueError, match="procs must be positive"):
            ArrayProfile(8).release_many([(0.0, 1.0, 0)])

    def test_release_many_overflow(self):
        profile = ArrayProfile(8)
        with pytest.raises(ProfileError, match="exceeds capacity"):
            profile.release_many([(0.0, 1.0, 1)])

    def test_earliest_slot_many_matches_scalar(self):
        rng = random.Random(9)
        profile = ArrayProfile(32)
        for _ in range(40):
            procs = rng.randint(1, 32)
            start = rng.random() * 100
            end = start + rng.random() * 40 + 0.1
            if profile.min_free_over(start, end) >= procs:
                profile.subtract(start, end, procs)
        procs = [rng.randint(1, 32) for _ in range(30)]
        durations = [rng.random() * 50 for _ in range(30)]
        durations[0] = 0.0  # zero-duration goes through the scalar fallback
        got = profile.earliest_slot_many(procs, durations, 3.0)
        want = [profile.earliest_slot(p, d, 3.0) for p, d in zip(procs, durations)]
        assert got == want

    def test_earliest_slot_many_length_mismatch(self):
        with pytest.raises(ValueError, match="same length"):
            ArrayProfile(8).earliest_slot_many([1], [1.0, 2.0], 0.0)

    def test_min_free_over_many_matches_scalar(self):
        profile = ArrayProfile(16)
        profile.subtract(2.0, 6.0, 5)
        profile.subtract(4.0, 9.0, 7)
        starts = [0.0, 2.0, 3.0, 4.5, 8.0, 9.0, 5.0]
        ends = [1.0, 6.0, 5.0, 4.5, 20.0, 9.0, 4.0]  # includes empty intervals
        got = profile.min_free_over_many(starts, ends)
        assert got == [profile.min_free_over(s, e) for s, e in zip(starts, ends)]

    def test_error_messages_match_list_engine(self):
        array, lst = ArrayProfile(4), AvailabilityProfile(4)
        for profile in (array, lst):
            profile.subtract(1.0, 2.0, 4)
        errors = []
        for profile in (array, lst):
            with pytest.raises(ProfileError) as excinfo:
                profile.subtract(1.5, 1.75, 1)
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1]

    def test_failed_add_leaves_identical_state(self):
        # The list engine releases segments up to the first overflow before
        # raising; the array engine must mirror that failure state exactly.
        array, lst = ArrayProfile(4), AvailabilityProfile(4)
        for profile in (array, lst):
            profile.subtract(5.0, 8.0, 2)
            with pytest.raises(ProfileError, match="exceeds capacity"):
                profile.add(6.0, 10.0, 3)
        assert breakpoints(array) == breakpoints(lst)


# ---------------------------------------------------------------------- #
# Edge cases, pinned on BOTH engines                                     #
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("engine", ENGINES)
class TestEngineEdgeCases:
    def test_zero_capacity_after_shrink(self, engine):
        profile = make_profile(engine, 8)
        profile.subtract(2.0, 4.0, 3)
        profile.add(2.0, 4.0, 3)
        profile.compact()
        profile.set_capacity(0, 1.0)
        assert profile.total_procs == 0
        assert profile.free_at(1.0) == 0
        assert profile.free_at(100.0) == 0
        assert profile.earliest_slot(1, 10.0, 1.0) == math.inf
        assert profile.min_free_over(1.0, math.inf) == 0

    def test_zero_duration_queries(self, engine):
        profile = make_profile(engine, 8)
        profile.subtract(2.0, 4.0, 8)  # fully blocked on [2, 4)
        # A zero-length window fits wherever an instant has enough procs.
        assert profile.earliest_slot(1, 0.0, 0.0) == 0.0
        assert profile.earliest_slot(1, 0.0, 2.0) == 4.0
        assert profile.earliest_slot(8, 0.0, 3.0) == 4.0
        assert profile.earliest_slot(1, 0.0, 5.0) == 5.0

    def test_reservation_ending_exactly_on_breakpoint(self, engine):
        profile = make_profile(engine, 8)
        profile.subtract(2.0, 4.0, 5)
        # Ends exactly at the existing breakpoint 4.0: no new breakpoint,
        # and the [2, 4) segment absorbs both reservations.
        profile.subtract(1.0, 4.0, 3)
        assert breakpoints(profile) == [(0.0, 8), (1.0, 5), (2.0, 0), (4.0, 8)]
        # A full-width window asked for from inside the blocked region is
        # pushed exactly to the breakpoint where the reservations end.
        assert profile.earliest_slot(8, 1.0, 1.0) == 4.0
        profile.subtract(4.0, 5.0, 8)
        assert profile.free_at(4.0) == 0
        assert profile.free_at(5.0) == 8

    def test_advance_past_final_breakpoint(self, engine):
        profile = make_profile(engine, 8)
        profile.subtract(2.0, 4.0, 5)
        profile.advance(10.0)
        assert profile.start_time == 10.0
        assert breakpoints(profile) == [(10.0, 8)]
        assert profile.earliest_slot(8, 1.0, 0.0) == 10.0

    def test_advance_onto_breakpoint_merges_once(self, engine):
        profile = make_profile(engine, 8)
        profile.subtract(2.0, 4.0, 5)
        profile.advance(2.0)
        assert breakpoints(profile) == [(2.0, 3), (4.0, 8)]
        profile.advance(4.0)
        assert breakpoints(profile) == [(4.0, 8)]

    def test_subtract_before_left_edge_extends(self, engine):
        profile = make_profile(engine, 8, start_time=5.0)
        profile.subtract(2.0, 7.0, 3)
        assert profile.free_at(3.0) == 5
        assert profile.free_at(6.0) == 5
        assert profile.free_at(7.0) == 8


# ---------------------------------------------------------------------- #
# Randomized differentials                                               #
# ---------------------------------------------------------------------- #
class TestRandomizedDifferential:
    def test_profile_operations(self):
        rng = random.Random(20100326)
        for _ in range(40):
            cap = rng.randint(1, 48)
            oracle = AvailabilityProfile(cap, 0.0)
            array = ArrayProfile(cap, 0.0)
            now = 0.0
            for _ in range(50):
                op = rng.random()
                if op < 0.45:
                    procs = rng.randint(1, cap) if cap else 1
                    start = now + rng.random() * 50
                    end = start + rng.random() * 40 + 0.1
                    if rng.random() < 0.15:
                        end = math.inf
                    if cap and oracle.min_free_over(start, end) >= procs:
                        oracle.subtract(start, end, procs)
                        array.subtract(start, end, procs)
                elif op < 0.6:
                    now += rng.random() * 10
                    oracle.advance(now)
                    array.advance(now)
                elif op < 0.7:
                    new_cap = rng.randint(0, 48)
                    if new_cap >= cap or oracle.min_free_over(now, math.inf) >= cap - new_cap:
                        oracle.set_capacity(new_cap, now)
                        array.set_capacity(new_cap, now)
                        cap = new_cap
                else:
                    procs = rng.randint(1, max(cap, 1))
                    duration = rng.random() * 30
                    earliest = now + rng.random() * 20
                    assert oracle.earliest_slot(procs, duration, earliest) == \
                        array.earliest_slot(procs, duration, earliest)
                probe = now + rng.random() * 60
                assert oracle.free_at(probe) == array.free_at(probe)
                assert breakpoints(oracle) == breakpoints(array)

    @pytest.mark.parametrize("policy", [BatchPolicy.FCFS, BatchPolicy.CBF])
    def test_planner_script(self, policy):
        rng = random.Random(42)
        clusters = {
            engine: ClusterState("c", 48, 1.0, profile_engine=engine)
            for engine in ENGINES
        }
        planners = {
            engine: IncrementalPlanner(policy, cluster)
            for engine, cluster in clusters.items()
        }
        jobs = [
            Job(job_id=i, submit_time=0.0, procs=rng.randint(1, 32),
                runtime=float(rng.randint(50, 900)),
                walltime=float(rng.randint(100, 1200)))
            for i in range(60)
        ]
        for job in jobs[:30]:
            for planner in planners.values():
                planner.submit(job, 0.0)
        for step, job in enumerate(jobs[30:]):
            index = step % max(len(planners["list"].jobs), 1)
            for planner in planners.values():
                planner.cancel(index, 0.0)
                planner.submit(job, 0.0)
            probes = jobs[:8]
            estimates = {
                engine: planner.estimate_many(probes)
                for engine, planner in planners.items()
            }
            assert estimates["array"] == estimates["list"]
            plans = {
                engine: {
                    (e.job_id, e.planned_start, e.planned_end, e.procs)
                    for e in planner.cluster_plan()
                }
                for engine, planner in planners.items()
            }
            assert plans["array"] == plans["list"]

    @pytest.mark.parametrize("policy", [BatchPolicy.FCFS, BatchPolicy.CBF])
    def test_single_query_estimates_match_the_batch(self, policy):
        # A lone hypothetical placement takes the scalar earliest_slot; it
        # must equal its entry in a batched query on both engines.
        rng = random.Random(7)
        jobs = [
            Job(job_id=i, submit_time=0.0, procs=rng.randint(1, 40),
                runtime=float(rng.randint(50, 900)),
                walltime=float(rng.randint(100, 1200)))
            for i in range(80)
        ]
        probes = jobs[40:] + jobs[:5]  # foreign jobs, then waiting ones
        results = {}
        for engine in ENGINES:
            planner = IncrementalPlanner(
                policy, ClusterState("c", 48, 1.3, profile_engine=engine)
            )
            for job in jobs[:40]:
                planner.submit(job, 0.0)
            for step in range(0, 30, 3):
                planner.cancel(step % len(planner.jobs), 0.0)
            batched = planner.estimate_many(probes)
            single = [planner.estimate_many([probe])[0] for probe in probes]
            assert single == batched
            results[engine] = batched
        assert results["array"] == results["list"]
        assert any(math.isfinite(value) for value in results["list"])

    def test_server_script_with_capacity_changes(self):
        results = {}
        for engine in ENGINES:
            kernel = SimulationKernel()
            server = BatchServer(
                kernel, "c", 32, 1.0, policy="cbf", profile_engine=engine
            )
            rng = random.Random(99)
            jobs = [
                Job(job_id=i, submit_time=float(i % 7), procs=rng.randint(1, 16),
                    runtime=float(rng.randint(20, 400)),
                    walltime=float(rng.randint(50, 600)))
                for i in range(40)
            ]
            log = []
            for job in jobs:
                server.submit(job)
            log.append(server.estimate_completion_many(jobs))
            server.apply_capacity_change(20)
            log.append(server.estimate_completion_many(jobs))
            kernel.run(until=500.0)
            log.append(server.estimate_completion_many(jobs))
            results[engine] = log
        assert results["array"] == results["list"]


# ---------------------------------------------------------------------- #
# End-to-end: whole simulations agree across engines                     #
# ---------------------------------------------------------------------- #
class TestEndToEndEquality:
    def test_execute_config_identical_run_results(self):
        from repro.experiments.campaign import execute_config
        from repro.experiments.config import ExperimentConfig, bench_scale

        results = {}
        for engine in ENGINES:
            config = ExperimentConfig(
                scenario="jan",
                batch_policy="cbf",
                algorithm="standard",
                scale=bench_scale("jan", 40),
                profile_engine=engine,
            )
            results[engine] = execute_config(config)
        array, lst = results["array"], results["list"]
        assert array.makespan == lst.makespan
        assert array.total_reallocations == lst.total_reallocations
        assert array.reallocation_events == lst.reallocation_events
        assert len(array.records) == len(lst.records)
        for job_id, record in array.records.items():
            assert record == lst.records[job_id], f"job {job_id} diverged"
