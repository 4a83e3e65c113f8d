"""Array storage of the availability profile and its float-identity with the oracle.

Three layers of evidence that the profile's array storage is a drop-in
twin of its list storage and of the list-only reference
(``oracles.profiles.ListProfile``):

* **mechanics** — storage growth, copy independence, bulk operations
  against their scalar definitions in both storages;
* **edge cases in both storages** — zero capacity, zero-duration queries,
  reservations ending exactly on breakpoints, advancing past the final
  breakpoint (parametrized so each storage is pinned on its own);
* **randomized differentials** — scripted submit/cancel/advance/capacity
  sequences at the profile, planner and server levels must produce
  *exactly* equal breakpoints, plans and estimates (no tolerances).

Switches between the storages are covered by ``test_profile_switch.py``.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.batch.cluster import ClusterState
from repro.batch.job import Job
from repro.batch.policies import BatchPolicy, IncrementalPlanner
from repro.batch.profile import AvailabilityProfile, ProfileError
from repro.batch.server import BatchServer
from repro.sim.events import EventType
from repro.sim.kernel import SimulationKernel

from oracles import profiles
from oracles.profiles import (
    ArrayMode, ListProfile, cluster_on, make_profile, mode_of, server_on, simulation_on,
)

MODES = sorted(profiles.MODES)


def breakpoints(profile):
    return list(profile.breakpoints())


# ---------------------------------------------------------------------- #
# One profile class                                                      #
# ---------------------------------------------------------------------- #
class TestOneProfileClass:
    @pytest.mark.parametrize("policy", list(BatchPolicy))
    def test_both_policies_build_the_one_class(self, policy):
        # perfbench records ``server.cluster.profile_engine`` per workload.
        server = BatchServer(SimulationKernel(), "c", 16, policy=policy)
        cluster = server.cluster
        assert cluster.profile_engine == AvailabilityProfile.__name__
        assert not hasattr(cluster, "_profile")
        assert type(cluster.availability(0.0)) is AvailabilityProfile
        assert type(server._planner.residual) is AvailabilityProfile

    def test_profile_engine_is_read_only(self):
        with pytest.raises(AttributeError):
            ClusterState("c", 16).profile_engine = "list"

    @pytest.mark.parametrize("mode", MODES)
    def test_pinned_cluster_hands_out_pinned_copies(self, mode):
        cluster = cluster_on(mode, "c", 16)
        assert cluster.profile_engine == AvailabilityProfile.__name__
        copy = cluster.availability(0.0)
        assert type(copy) is profiles.MODES[mode]
        assert isinstance(copy, AvailabilityProfile)
        assert mode_of(copy) == mode


    @pytest.mark.parametrize("policy", list(BatchPolicy))
    @pytest.mark.parametrize("mode", MODES)
    def test_pinned_server_replans_on_pinned_profiles(self, mode, policy):
        # Every replan restarts from a fresh ``availability``: the pin
        # must reach it, not just the first plan.
        kernel = SimulationKernel()
        server = server_on(mode, kernel, "c", 16, policy=policy)
        for job_id in range(6):
            server.submit(Job(job_id=job_id, submit_time=0.0, procs=6,
                              runtime=5.0 * (job_id + 1), walltime=100.0))

        def check():
            residual = server._planner.residual
            assert type(residual) is profiles.MODES[mode]
            assert mode_of(residual) == mode

        server.apply_capacity_change(12)  # a replan of the whole queue
        check()
        # After the first early completion's replan.
        kernel.schedule_at(5.0, check, event_type=EventType.REALLOCATION)
        kernel.run()
        check()

# ---------------------------------------------------------------------- #
# Array mechanics                                                        #
# ---------------------------------------------------------------------- #
class TestArrayMechanics:
    def test_growth_past_initial_capacity(self):
        profile = ArrayMode(1000, start_time=0.0)
        for i in range(200):  # way past the initial backing capacity
            profile.subtract(float(2 * i + 1), float(2 * i + 2), 1)
        reference = ListProfile(1000, start_time=0.0)
        for i in range(200):
            reference.subtract(float(2 * i + 1), float(2 * i + 2), 1)
        assert breakpoints(profile) == breakpoints(reference)

    def test_copy_is_independent(self):
        profile = ArrayMode(8)
        profile.subtract(1.0, 2.0, 3)
        clone = profile.copy()
        clone.subtract(1.0, 2.0, 5)
        assert profile.free_at(1.5) == 5
        assert clone.free_at(1.5) == 0

    def test_copy_absorbs_live_mutations(self):
        profile = ArrayMode(8)
        profile.subtract(1.0, 5.0, 2)
        before = breakpoints(profile)
        clone = profile.copy()
        clone.subtract(2.0, 3.0, 6)
        clone.release_many([(1.0, 5.0, 2)])
        clone.advance(2.5)
        assert breakpoints(profile) == before
        assert profile.total_procs == 8

    @pytest.mark.parametrize("mode", MODES)
    def test_release_many_equals_sequential_adds(self, mode):
        rng = random.Random(5)
        for _ in range(50):
            cap = rng.randint(2, 32)
            bulk = make_profile(mode, cap)
            sequential = make_profile(mode, cap)
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

    @pytest.mark.parametrize("mode", MODES)
    def test_release_many_empty_batch_compacts(self, mode):
        profile = make_profile(mode, 8)
        profile.subtract(1.0, 2.0, 3)
        profile.add(1.0, 2.0, 3)  # leaves redundant breakpoints behind
        profile.release_many([])
        assert breakpoints(profile) == [(0.0, 8)]

    @pytest.mark.parametrize("mode", MODES)
    def test_release_many_rejects_nonpositive_procs(self, mode):
        with pytest.raises(ValueError, match="procs must be positive"):
            make_profile(mode, 8).release_many([(0.0, 1.0, 0)])

    @pytest.mark.parametrize("mode", MODES)
    def test_release_many_overflow(self, mode):
        profile = make_profile(mode, 8)
        with pytest.raises(ProfileError, match="exceeds capacity"):
            profile.release_many([(0.0, 1.0, 1)])

    @pytest.mark.parametrize("mode", MODES)
    def test_release_many_fails_like_the_reference(self, mode):
        # A rejected batch raises the error of the first reservation the
        # reference rejects and leaves the reference's partial state.
        batches = [
            [(1.0, 3.0, 2), (2.0, 6.0, 5), (0.0, 9.0, 1)],
            [(1.0, 3.0, 2), (4.0, 4.0, 1)],
            [(1.0, 3.0, 2), (5.0, 6.0, 0)],
        ]
        for batch in batches:
            profile, reference = make_profile(mode, 8), ListProfile(8)
            for target in (profile, reference):
                target.subtract(1.0, 3.0, 2)
                target.subtract(2.0, 6.0, 2)
            errors = []
            for target in (profile, reference):
                with pytest.raises(ValueError) as excinfo:
                    target.release_many(batch)
                errors.append((type(excinfo.value), str(excinfo.value)))
            assert errors[0] == errors[1]
            assert breakpoints(profile) == breakpoints(reference)

    @pytest.mark.parametrize("mode", MODES)
    def test_patch_nets_a_release_against_an_overlapping_reservation(self, mode):
        # Releasing [15, 60) on top of the 8 already given back overflows
        # the capacity of 10 unless the reservation over [10, 60) is
        # netted against it first.
        profile = make_profile(mode, 10)
        profile.subtract(0.0, 100.0, 10)
        release, reserve = [(0.0, 100.0, 8), (15.0, 60.0, 6)], [(10.0, 60.0, 6)]
        profile.patch(release, reserve)
        assert breakpoints(profile) == [(0.0, 8), (10.0, 2), (15.0, 8), (100.0, 10)]
        sequential = make_profile(mode, 10)
        sequential.subtract(0.0, 100.0, 10)
        with pytest.raises(ProfileError, match="exceeds capacity"):
            for start, end, procs in release:
                sequential.add(start, end, procs)

    @pytest.mark.parametrize("mode", MODES)
    def test_patch_matches_the_reference(self, mode):
        # Random states and patches — overlapping intervals, intervals
        # before the left edge, infinite ends: the same breakpoints as the
        # reference, or the same error with both profiles unchanged.
        rng = random.Random(11)
        outcomes = {True: 0, False: 0}
        for _ in range(300):
            cap = rng.randint(2, 16)
            profile, reference = make_profile(mode, cap), ListProfile(cap)
            for _ in range(rng.randint(0, 6)):
                procs = rng.randint(1, cap)
                start = float(rng.randint(0, 20))
                end = start + rng.randint(1, 10)
                if reference.min_free_over(start, end) >= procs:
                    profile.subtract(start, end, procs)
                    reference.subtract(start, end, procs)
            left = float(rng.randint(0, 5))
            profile.advance(left)
            reference.advance(left)

            def intervals():
                out = []
                for _ in range(rng.randint(0, 4)):
                    start = float(rng.randint(0, 25))
                    end = math.inf if rng.random() < 0.1 else start + rng.randint(1, 10)
                    out.append((start, end, rng.randint(1, max(1, cap // 2))))
                return out

            release, reserve = intervals(), intervals()
            before = breakpoints(reference)
            errors = []
            for target in (profile, reference):
                try:
                    target.patch(release, reserve)
                    errors.append(None)
                except ProfileError as error:
                    errors.append(str(error))
            assert errors[0] == errors[1]
            assert breakpoints(profile) == breakpoints(reference)
            if errors[0] is not None:
                assert breakpoints(reference) == before
            outcomes[errors[0] is None] += 1
        assert min(outcomes.values()) >= 50

    @pytest.mark.parametrize("mode", [*MODES, "reference"])
    @pytest.mark.parametrize("release, reserve, procs", [
        ([(0.0, 10.0, -3)], [], -3),  # a negative release would reserve
        ([], [(0.0, 10.0, 0)], 0),  # a zero reserve would do nothing
        ([(0.0, 10.0, 2)], [(3.0, 4.0, -1)], -1),  # after a valid release
        ([], [(-5.0, -1.0, 0)], 0),  # even where the clamp empties it
    ])
    def test_patch_rejects_nonpositive_procs(self, mode, release, reserve, procs):
        profile = make_profile(mode, 8)
        profile.subtract(0.0, 10.0, 2)
        profile.advance(1.0)
        before = breakpoints(profile)
        with pytest.raises(ValueError, match=f"^procs must be positive, got {procs}$"):
            profile.patch(release, reserve)
        assert breakpoints(profile) == before

    @pytest.mark.parametrize("mode", MODES)
    def test_earliest_slot_many_matches_scalar(self, mode):
        rng = random.Random(9)
        profile = make_profile(mode, 32)
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

    @pytest.mark.parametrize("mode", MODES)
    def test_earliest_slot_many_length_mismatch(self, mode):
        with pytest.raises(ValueError, match="same length"):
            make_profile(mode, 8).earliest_slot_many([1], [1.0, 2.0], 0.0)

    def test_min_free_over_matches_list_engine(self):
        array, lst = ArrayMode(16), ListProfile(16)
        for profile in (array, lst):
            profile.subtract(2.0, 6.0, 5)
            profile.subtract(4.0, 9.0, 7)
        starts = [0.0, 2.0, 3.0, 4.5, 8.0, 9.0, 5.0]
        ends = [1.0, 6.0, 5.0, 4.5, 20.0, 9.0, 4.0]  # includes empty intervals
        assert [array.min_free_over(s, e) for s, e in zip(starts, ends)] == [
            lst.min_free_over(s, e) for s, e in zip(starts, ends)
        ]

    def test_error_messages_match_list_engine(self):
        array, lst = ArrayMode(4), ListProfile(4)
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
        # raising; array storage must mirror that failure state exactly.
        array, lst = ArrayMode(4), ListProfile(4)
        for profile in (array, lst):
            profile.subtract(5.0, 8.0, 2)
            with pytest.raises(ProfileError, match="exceeds capacity"):
                profile.add(6.0, 10.0, 3)
        assert breakpoints(array) == breakpoints(lst)


# ---------------------------------------------------------------------- #
# Edge cases, pinned in BOTH storages                                    #
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("mode", MODES)
class TestEngineEdgeCases:
    def test_zero_capacity_after_shrink(self, mode):
        cluster = cluster_on(mode, "c", 8)
        cluster.start_job(Job(job_id=1, submit_time=0.0, procs=3, runtime=2.0, walltime=4.0), 0.0)
        cluster.apply_capacity(0)
        profile = cluster.availability(1.0)
        assert mode_of(profile) == mode
        assert profile.total_procs == 0
        assert profile.free_at(1.0) == 0
        assert profile.free_at(100.0) == 0
        assert profile.earliest_slot(1, 10.0, 1.0) == math.inf
        assert profile.min_free_over(1.0, math.inf) == 0

    def test_zero_duration_queries(self, mode):
        profile = make_profile(mode, 8)
        profile.subtract(2.0, 4.0, 8)  # fully blocked on [2, 4)
        # A zero-length window fits wherever an instant has enough procs.
        assert profile.earliest_slot(1, 0.0, 0.0) == 0.0
        assert profile.earliest_slot(1, 0.0, 2.0) == 4.0
        assert profile.earliest_slot(8, 0.0, 3.0) == 4.0
        assert profile.earliest_slot(1, 0.0, 5.0) == 5.0

    def test_reservation_ending_exactly_on_breakpoint(self, mode):
        profile = make_profile(mode, 8)
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

    def test_advance_past_final_breakpoint(self, mode):
        profile = make_profile(mode, 8)
        profile.subtract(2.0, 4.0, 5)
        profile.advance(10.0)
        assert profile.start_time == 10.0
        assert breakpoints(profile) == [(10.0, 8)]
        assert profile.earliest_slot(8, 1.0, 0.0) == 10.0

    def test_advance_onto_breakpoint_merges_once(self, mode):
        profile = make_profile(mode, 8)
        profile.subtract(2.0, 4.0, 5)
        profile.advance(2.0)
        assert breakpoints(profile) == [(2.0, 3), (4.0, 8)]
        profile.advance(4.0)
        assert breakpoints(profile) == [(4.0, 8)]

    def test_subtract_before_left_edge_extends(self, mode):
        profile = make_profile(mode, 8, start_time=5.0)
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
            oracle = ListProfile(cap, 0.0)
            array = ArrayMode(cap, 0.0)
            now = 0.0
            for _ in range(50):
                op = rng.random()
                if op < 0.45:
                    procs = rng.randint(1, cap)
                    start = now + rng.random() * 50
                    end = start + rng.random() * 40 + 0.1
                    if rng.random() < 0.15:
                        end = math.inf
                    if oracle.min_free_over(start, end) >= procs:
                        oracle.subtract(start, end, procs)
                        array.subtract(start, end, procs)
                elif op < 0.6:
                    now += rng.random() * 10
                    oracle.advance(now)
                    array.advance(now)
                else:
                    procs = rng.randint(1, cap)
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
            mode: cluster_on(mode, "c", 48, 1.0)
            for mode in MODES
        }
        planners = {
            mode: IncrementalPlanner(policy, cluster)
            for mode, cluster in clusters.items()
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
                mode: planner.estimate_many(probes)
                for mode, planner in planners.items()
            }
            assert estimates["array"] == estimates["list"]
            plans = {
                mode: {
                    (e.job_id, e.planned_start, e.planned_end, e.procs)
                    for e in planner.plan.entries
                }
                for mode, planner in planners.items()
            }
            assert plans["array"] == plans["list"]

    @pytest.mark.parametrize("policy", [BatchPolicy.FCFS, BatchPolicy.CBF])
    def test_single_query_estimates_match_the_batch(self, policy):
        # A lone hypothetical placement takes the scalar earliest_slot; it
        # must equal its entry in a batched query in both storages.
        rng = random.Random(7)
        jobs = [
            Job(job_id=i, submit_time=0.0, procs=rng.randint(1, 40),
                runtime=float(rng.randint(50, 900)),
                walltime=float(rng.randint(100, 1200)))
            for i in range(80)
        ]
        probes = jobs[40:] + jobs[:5]  # foreign jobs, then waiting ones
        results = {}
        for mode in MODES:
            planner = IncrementalPlanner(
                policy, cluster_on(mode, "c", 48, 1.3)
            )
            for job in jobs[:40]:
                planner.submit(job, 0.0)
            for step in range(0, 30, 3):
                planner.cancel(step % len(planner.jobs), 0.0)
            batched = planner.estimate_many(probes)
            single = [planner.estimate_many([probe])[0] for probe in probes]
            assert single == batched
            results[mode] = batched
        assert results["array"] == results["list"]
        assert any(math.isfinite(value) for value in results["list"])

    def test_server_script_with_capacity_changes(self):
        results = {}
        for mode in MODES:
            kernel = SimulationKernel()
            server = server_on(mode, kernel, "c", 32, 1.0, policy="cbf")
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
            results[mode] = log
        assert results["array"] == results["list"]


# ---------------------------------------------------------------------- #
# End-to-end: whole simulations agree across storages                    #
# ---------------------------------------------------------------------- #
class TestEndToEndEquality:
    def test_grid_simulation_identical_run_results(self):
        from repro.experiments.campaign import experiment_platform, fresh_workload
        from repro.experiments.config import ExperimentConfig, bench_scale
        from repro.grid.simulation import GridSimulation

        config = ExperimentConfig(
            scenario="jan",
            batch_policy="cbf",
            algorithm="standard",
            scale=bench_scale("jan", 40),
        )
        results = {}
        for mode in profiles.PROFILES:
            simulation = GridSimulation(
                experiment_platform(config),
                fresh_workload(config),
                batch_policy=config.batch_policy,
                reallocation=config.algorithm,
                heuristic=config.heuristic,
                mapping_seed=config.seed,
            )
            results[mode] = simulation_on(mode, simulation).run()
        reference = results.pop("reference")
        for mode, result in results.items():
            assert result.makespan == reference.makespan, mode
            assert result.total_reallocations == reference.total_reallocations, mode
            assert result.reallocation_events == reference.reallocation_events, mode
            assert len(result.records) == len(reference.records), mode
            for job_id, record in result.records.items():
                assert record == reference.records[job_id], f"{mode}: job {job_id} diverged"
