"""The storage switch of :class:`AvailabilityProfile` against the list reference.

A production profile keeps its breakpoints in Python lists or NumPy
arrays and moves between them from the length of its own searches (see
:mod:`repro.batch.profile`).  These tests hold every storage, and every
switch between them, to the list-only reference of ``oracles.profiles``:

* **random operation sequences** — every public operation, valid or not,
  with switches forced in both directions mid-sequence and copies taken
  in either storage mutated on their own; breakpoints, query results and
  error messages must equal the reference after every operation;
* **the rule itself** — long searches move a profile to arrays, short ones
  move it back, both searches feed it, and a batch handed over mid-way
  answers exactly like the reference;
* **a CBF planner** whose queue deepens until its residual switches to
  arrays and then drains until it switches back, matching the
  from-scratch planner after every event.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.batch import profile as profile_module
from repro.batch.cluster import ClusterState
from repro.batch.job import Job
from repro.batch.policies import BatchPolicy, IncrementalPlanner
from repro.batch.profile import AvailabilityProfile, ProfileError

from oracles.planners import plan_cbf
from oracles.profiles import ListProfile, mode_of

LONG_SCAN = profile_module._LONG_SCAN
SWITCH_AFTER = profile_module._SWITCH_AFTER


def state(profile):
    return profile.total_procs, list(profile.breakpoints())


def outcome(call):
    """``("ok", value)`` or ``(error type, message)`` of one call."""
    try:
        return "ok", call()
    except (ProfileError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def force_switch(profile):
    if mode_of(profile) == "list":
        profile._to_array()
    else:
        profile._to_list()


def random_interval(rng, now):
    start = now + rng.choice([0.0, rng.random() * 60, rng.randint(0, 40) * 1.5])
    if rng.random() < 0.1:
        start = now - rng.random() * 5  # before the left edge
    end = start + rng.choice([rng.random() * 40 + 0.1, rng.randint(1, 20) * 1.5])
    if rng.random() < 0.1:
        end = math.inf
    if rng.random() < 0.05:
        end = start  # empty interval
    return start, end


def random_op(rng, profile, oracle, now):
    """Apply one random operation to both profiles; returns the new ``now``."""
    cap = oracle.total_procs
    op = rng.randrange(11)
    if op <= 2:
        start, end = random_interval(rng, now)
        procs = rng.randint(0 if rng.random() < 0.03 else 1, cap)
        calls = [lambda p: p.subtract(start, end, procs)]
    elif op == 3:
        start, end = random_interval(rng, now)
        procs = rng.randint(1, cap)
        calls = [lambda p: p.add(start, end, procs)]
    elif op == 4:
        # One net change, valid or not (a count of 0 is refused).
        release, reserve = (
            [
                (*random_interval(rng, now), rng.randint(0 if rng.random() < 0.05 else 1, cap))
                for _ in range(rng.randint(0, 3))
            ]
            for _ in range(2)
        )
        calls = [lambda p: p.patch(release, reserve)]
    elif op == 5:
        # Give back reservations the profile holds (sometimes one too many).
        batch = []
        for _ in range(rng.randint(0, 6)):
            start, end = random_interval(rng, now)
            procs = rng.randint(1, cap)
            if end > start and oracle.min_free_over(start, end) >= procs:
                oracle.subtract(start, end, procs)
                profile.subtract(start, end, procs)
                batch.append((start, end, procs))
        if rng.random() < 0.2:
            batch.append((now, now + 1.0, cap + 1))
        calls = [lambda p: p.release_many(batch)]
    elif op == 6:
        now += rng.choice([0.0, rng.random() * 10, rng.randint(1, 10) * 1.5])
        calls = [lambda p: p.advance(now)]
    elif op == 7:
        calls = [lambda p: p.compact()]
    elif op == 8:
        procs = rng.randint(0 if rng.random() < 0.03 else 1, cap + 1)
        duration = rng.choice([0.0, rng.random() * 30, rng.randint(1, 10) * 1.5])
        earliest = now + rng.random() * 20
        calls = [lambda p: p.earliest_slot(procs, duration, earliest)]
    elif op == 9:
        size = rng.randint(0, 12)
        procs = [rng.randint(1, cap + 1) for _ in range(size)]
        durations = [rng.choice([0.0, rng.random() * 30]) for _ in range(size)]
        earliest = now + rng.random() * 20
        calls = [lambda p: p.earliest_slot_many(procs, durations, earliest)]
    else:
        start, end = random_interval(rng, now)
        probe = now + rng.random() * 80
        calls = [
            lambda p: p.free_at(probe),
            lambda p: p.min_free_over(start, end),
            lambda p: p.start_time,
        ]
    for call in calls:
        assert outcome(lambda: call(profile)) == outcome(lambda: call(oracle))
    return now


def check_copy(rng, profile, oracle, now):
    """A copy keeps its storage; mutating it leaves the original alone."""
    before = state(profile)
    clone, reference = profile.copy(), oracle.copy()
    assert type(clone) is type(profile)
    assert state(clone) == state(reference) == before
    if rng.random() < 0.5:
        force_switch(clone)
    for _ in range(rng.randint(1, 6)):
        now = random_op(rng, clone, reference, now)
        assert state(clone) == state(reference)
    assert state(profile) == before


@pytest.mark.parametrize("seed", range(12))
def test_random_sequences_with_forced_switches(seed):
    rng = random.Random(20260 + seed)
    cap = rng.randint(1, 48)
    profile, oracle = AvailabilityProfile(cap), ListProfile(cap)
    now = 0.0
    modes = set()
    for step in range(250):
        if rng.random() < 0.08:
            force_switch(profile)
        if rng.random() < 0.05:
            check_copy(rng, profile, oracle, now)
        now = random_op(rng, profile, oracle, now)
        modes.add(mode_of(profile))
        assert state(profile) == state(oracle), f"step {step}"
    assert modes == {"list", "array"}


def staircase(profile, steps):
    """``steps`` breakpoints of ever fewer free processors, then full capacity."""
    for step in range(steps):
        profile.subtract(float(step), float(steps), 1)


class TestSwitchRule:
    def test_long_searches_move_to_arrays_and_short_ones_back(self):
        steps = LONG_SCAN + 20
        profile, oracle = AvailabilityProfile(steps + 4), ListProfile(steps + 4)
        staircase(profile, steps)
        staircase(oracle, steps)
        # Needing every processor waits past the whole staircase: long.
        for search in range(SWITCH_AFTER):
            assert mode_of(profile) == "list", search
            assert profile.earliest_slot(steps + 4, 1.0, 0.0) == float(steps)
        assert mode_of(profile) == "array"
        # One processor fits at once: short.
        for search in range(SWITCH_AFTER):
            assert mode_of(profile) == "array", search
            assert profile.earliest_slot(1, 1.0, 0.0) == 0.0
        assert mode_of(profile) == "list"
        assert state(profile) == state(oracle)

    def test_short_searches_count_against_long_ones(self):
        steps = LONG_SCAN + 20
        profile = AvailabilityProfile(steps + 4)
        staircase(profile, steps)
        # Alternating long and short searches never reach the threshold ...
        for _ in range(4 * SWITCH_AFTER):
            profile.earliest_slot(steps + 4, 1.0, 0.0)
            profile.earliest_slot(1, 1.0, 0.0)
        assert mode_of(profile) == "list"
        # ... two long searches per short one do, one net step at a time.
        for step in range(SWITCH_AFTER - 2):
            profile.earliest_slot(steps + 4, 1.0, 0.0)
            profile.earliest_slot(steps + 4, 1.0, 0.0)
            assert mode_of(profile) == "list", step
            profile.earliest_slot(1, 1.0, 0.0)
        profile.earliest_slot(steps + 4, 1.0, 0.0)
        profile.earliest_slot(steps + 4, 1.0, 0.0)
        assert mode_of(profile) == "array"

    def test_scans_count_segments_not_breakpoints(self):
        # A search entering the profile near its end is short however many
        # breakpoints lie before it: that is the FCFS tail placement.
        steps = 4 * LONG_SCAN
        profile = AvailabilityProfile(steps + 4)
        staircase(profile, steps)
        for _ in range(4 * SWITCH_AFTER):
            profile.earliest_slot(steps + 4, 1.0, float(steps - 3))
        assert mode_of(profile) == "list"

    def test_a_batch_switches_mid_way_and_matches_the_reference(self):
        steps = LONG_SCAN + 20
        profile, oracle = AvailabilityProfile(steps + 4), ListProfile(steps + 4)
        staircase(profile, steps)
        staircase(oracle, steps)
        procs = [steps + 4] * SWITCH_AFTER + [3, steps + 4, 1, steps] * 5
        durations = [1.0] * SWITCH_AFTER + [1.0, 2.5, 0.0, 40.0] * 5
        got = profile.earliest_slot_many(procs, durations, 0.0)
        # The first SWITCH_AFTER long searches moved the profile to arrays,
        # and the rest of the batch, answered there, did not move it back.
        assert mode_of(profile) == "array"
        assert got == oracle.earliest_slot_many(procs, durations, 0.0)
        assert state(profile) == state(oracle)

    def test_copies_keep_storage_and_score(self):
        steps = LONG_SCAN + 20
        profile = AvailabilityProfile(steps + 4)
        staircase(profile, steps)
        for _ in range(SWITCH_AFTER - 1):
            profile.earliest_slot(steps + 4, 1.0, 0.0)
        clone = profile.copy()
        clone.earliest_slot(steps + 4, 1.0, 0.0)
        assert (mode_of(profile), mode_of(clone)) == ("list", "array")
        again = clone.copy()
        again.earliest_slot(1, 1.0, 0.0)
        assert mode_of(again) == "array"

    def test_short_batches_move_array_storage_back(self):
        steps = LONG_SCAN + 20
        profile = AvailabilityProfile(steps + 4)
        staircase(profile, steps)
        profile._to_array()
        short = SWITCH_AFTER - 1
        profile.earliest_slot_many([1] * short, [1.0] * short, 0.0)
        assert mode_of(profile) == "array"
        # A batch moves the score by its long minus its short searches.
        profile.earliest_slot_many([1, steps + 4, steps + 4], [1.0, 1.0, 1.0], 0.0)
        profile.earliest_slot_many([1], [1.0], 0.0)
        assert mode_of(profile) == "array"
        profile.earliest_slot_many([1], [1.0], 0.0)
        assert mode_of(profile) == "list"

    def test_zero_length_and_oversized_queries_do_not_count(self):
        steps = LONG_SCAN + 20
        profile = AvailabilityProfile(steps + 4)
        staircase(profile, steps)
        profile._to_array()
        for _ in range(2 * SWITCH_AFTER):
            assert profile.earliest_slot(1, 0.0, 0.0) == 0.0
            assert profile.earliest_slot(steps + 5, 1.0, 0.0) == math.inf
        assert mode_of(profile) == "array"


def test_cbf_planner_switches_to_arrays_and_back():
    """Deepen a CBF queue until the residual switches, then drain it back.

    Submissions search the residual from ``now``; the drain cancels the
    tail (no placement) and asks for completion estimates of foreign jobs,
    as a reallocation tick does, so the searches shorten with the queue.
    """
    rng = random.Random(1903)
    cluster = ClusterState("c", 64)
    for job_id in range(8):
        blocker = Job(job_id=10_000 + job_id, submit_time=0.0, procs=4,
                      runtime=500.0, walltime=float(rng.randint(600, 3000)))
        cluster.start_job(blocker, 0.0)
    planner = IncrementalPlanner(BatchPolicy.CBF, cluster)
    probes = [
        Job(job_id=20_000 + i, submit_time=0.0, procs=rng.randint(1, 64),
            runtime=100.0, walltime=float(rng.randint(50, 900)))
        for i in range(6)
    ]

    def assert_matches_reference():
        residual = ListProfile(64)
        for entry in cluster.running_jobs():
            residual.subtract(0.0, entry.walltime_end, entry.procs)
        reference = plan_cbf(residual, planner.jobs, 1.0, 0.0)
        assert planner.plan.entries == list(reference)
        estimates = [
            residual.earliest_slot(job.procs, job.walltime, 0.0) + job.walltime
            for job in probes
        ]
        assert planner.estimate_many(probes) == estimates

    modes = [mode_of(planner.residual)]
    job_id = 0
    while modes[-1] == "list":
        assert job_id < 400, "the residual never switched to arrays"
        planner.submit(Job(job_id=job_id, submit_time=0.0, procs=rng.randint(1, 64),
                           runtime=100.0, walltime=float(rng.randint(50, 900))), 0.0)
        job_id += 1
        assert_matches_reference()
        modes.append(mode_of(planner.residual))
    while modes[-1] == "array":
        assert planner.jobs, "the residual never switched back to lists"
        planner.cancel(len(planner.jobs) - 1, 0.0)
        assert_matches_reference()
        modes.append(mode_of(planner.residual))
    assert planner.jobs  # switched back before the queue ran dry
    assert modes.count("array") > 1
