"""Differential oracle for the FCFS early-completion replan.

An early completion hands ``procs`` processors back over
``[now, walltime_end)``.  Under FCFS, :meth:`IncrementalPlanner.job_finished`
re-places the queue in order on the new base profile but stops at the
first position where the new and old frontiers are equal and at or past
the horizon (the end of the released window, raised by the old and new
ends of every entry that moved); from there the old entries are kept and
the residual is patched from the old one.

These tests replay seeded random FCFS worlds — list and array engines,
static and outage platforms, times on a coarse grid so that early and
walltime-boundary completions share timestamps — and after *every*
completion compare the plan entries (exact floats) and the compacted
residual with ``plan_fcfs_reference`` over ``cluster.build_profile(now)``.
Hand-built worlds pin the walk's shapes: the empty window of a
walltime-boundary completion (nothing re-placed), a cut right after the
head, an unchanged head inside the window that must not end the walk, and
a walk that reaches the end of the queue.

A job moving earlier never pushes a later job later, so no world can pin
that case: with one released window every earlier entry's new reservation
covers, from the next job's old start on, a subset of its old one, so the
profile there only gains processors and each job's old slot stays
feasible from a frontier that is no later.  The random worlds assert this
monotonicity after every early completion.

For the same reason no world separates the stop rule from a weaker one
without the frontier-equality test: reservations have positive length,
so a moved entry's end lies past its start, and either frontier at or
past the horizon means the last placed entry did not move — the two
frontiers are then already equal.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.batch.job import Job
from repro.batch.policies import IncrementalPlanner, plan_fcfs_reference
from repro.batch.schedule import IncrementalPlan
from repro.batch.server import BatchServer
from repro.platform.timeline import AvailabilityTimeline
from repro.sim.events import EventType
from repro.sim.kernel import SimulationKernel

ENGINES = ("list", "array")
PLATFORMS = ("static", "outage")
SEEDS = range(25)


def compacted(profile, now):
    clone = profile.copy()
    clone.advance(now)
    clone.compact()
    return list(clone.breakpoints())


def assert_matches_reference(planner: IncrementalPlanner, now: float) -> None:
    profile = planner.cluster.build_profile(now)
    reference = plan_fcfs_reference(profile, planner.jobs, planner.speed, now)
    entries = planner.plan.entries
    assert [entry.job_id for entry in entries] == [job.job_id for job in planner.jobs]
    for entry in entries:
        expected = reference.get(entry.job_id)
        assert (entry.planned_start, entry.planned_end, entry.procs) == (
            expected.planned_start, expected.planned_end, expected.procs
        )
    assert compacted(planner.residual, now) == compacted(profile, now)
    last_start = max(
        [now] + [e.planned_start for e in entries if math.isfinite(e.planned_start)]
    )
    assert planner.frontier() == last_start


@pytest.fixture
def walks(monkeypatch):
    """Check every completion against the oracle; record each walk.

    One record per ``job_finished`` call: ``(now, early, queue length,
    placements made, {job_id: (old start, new start)})``.
    """
    records = []
    placed = [0]
    original_place = IncrementalPlan.place
    original_finished = IncrementalPlanner.job_finished

    def place(self, *args):
        placed[0] += 1
        return original_place(self, *args)

    def job_finished(self, now, procs, walltime_end):
        self.advance(now)
        before = {entry.job_id: entry.planned_start for entry in self.plan.entries}
        placed[0] = 0
        original_finished(self, now, procs, walltime_end)
        assert_matches_reference(self, now)
        moves = {
            entry.job_id: (before[entry.job_id], entry.planned_start)
            for entry in self.plan.entries
        }
        records.append((now, walltime_end > now, len(self.jobs), placed[0], moves))

    monkeypatch.setattr(IncrementalPlan, "place", place)
    monkeypatch.setattr(IncrementalPlanner, "job_finished", job_finished)
    return records


def make_timeline(outages):
    timeline = AvailabilityTimeline()
    for start, end, capacity in sorted(outages):
        try:
            timeline = timeline.with_degraded(start, end, capacity)
        except ValueError:  # overlapping window: keep the earlier one
            continue
    return timeline


def run_world(jobs, procs, engine, speed=1.0, outages=(), cancels=()):
    """Replay ``(job_id, submit, procs, runtime, walltime)`` rows on one FCFS server."""
    kernel = SimulationKernel()
    server = BatchServer(
        kernel, "c", procs, speed, policy="fcfs", profile_engine=engine,
        timeline=make_timeline(outages) if outages else None,
    )
    by_id = {}
    for job_id, submit, job_procs, runtime, walltime in jobs:
        job = Job(job_id=job_id, submit_time=submit, procs=job_procs,
                  runtime=runtime, walltime=walltime)
        by_id[job_id] = job
        kernel.schedule_at(submit, server.submit, job, event_type=EventType.JOB_SUBMISSION)

    def cancel(job_id):
        job = by_id[job_id]
        if server.has_waiting(job):
            server.cancel(job)

    for time, job_id in cancels:
        kernel.schedule_at(time, cancel, job_id, event_type=EventType.REALLOCATION)
    kernel.run()
    return server


def random_world(seed: int, platform: str):
    """Times on a grid of 10 s; ~40 % of runtimes equal their walltime."""
    rng = random.Random(seed)
    procs = rng.randint(4, 24)
    jobs = []
    for job_id in range(rng.randint(10, 45)):
        walltime = 10.0 * rng.randint(1, 30)
        roll = rng.random()
        if roll < 0.4:
            runtime = walltime
        elif roll < 0.9:
            runtime = 10.0 * rng.randint(0, int(walltime // 10))
        else:
            runtime = walltime + 10.0  # killed at the walltime
        small = rng.random() < 0.6
        jobs.append((
            job_id,
            10.0 * rng.randint(0, 25),
            rng.randint(1, max(1, procs // 3)) if small else rng.randint(1, procs),
            runtime,
            walltime,
        ))
    outages = []
    if platform == "outage":
        for _ in range(rng.randint(1, 2)):
            start = 10.0 * rng.randint(0, 30)
            outages.append((start, start + 10.0 * rng.randint(1, 10), rng.randint(0, procs - 1)))
    cancels = [
        (10.0 * rng.randint(0, 40), rng.randrange(len(jobs)))
        for _ in range(rng.randint(0, 4))
    ]
    speed = rng.choice((1.0, 1.3, 0.7))
    return dict(jobs=jobs, procs=procs, speed=speed, outages=outages, cancels=cancels)


@pytest.mark.parametrize("platform", PLATFORMS)
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("seed", SEEDS)
def test_every_completion_matches_the_reference(walks, seed, engine, platform):
    run_world(engine=engine, **random_world(seed, platform))
    assert walks
    for _, early, _, _, moves in walks:
        if early:  # one released window: no entry ever moves later
            assert all(new <= old for old, new in moves.values())


@pytest.mark.parametrize("engine", ENGINES)
def test_random_worlds_exercise_every_walk_shape(walks, engine):
    mixed = 0  # timestamps of one world with both early and boundary completions
    for seed in SEEDS:
        for platform in PLATFORMS:
            first = len(walks)
            run_world(engine=engine, **random_world(seed, platform))
            kinds = {}
            for now, early, *_ in walks[first:]:
                kinds.setdefault(now, set()).add(early)
            mixed += sum(len(seen) == 2 for seen in kinds.values())
    early = [record for record in walks if record[1]]
    cuts = [r for r in early if 0 < r[3] < r[2]]
    to_the_end = [r for r in early if r[3] == r[2] >= 2]
    # A cut behind at least one entry that moved.
    moved_then_cut = [
        r for r in cuts if any(old != new for old, new in r[4].values())
    ]
    assert len(cuts) >= 50
    assert len(to_the_end) >= 20
    assert len(moved_then_cut) >= 20
    assert mixed >= 10
    # The walk re-places far less than the full replan would.
    assert sum(r[3] for r in early) < 0.8 * sum(r[2] for r in early)


@pytest.mark.parametrize("engine", ENGINES)
def test_walltime_boundary_completion_places_nothing(walks, engine):
    # R ends at its walltime: the released window is empty, the walk cuts
    # at position 0 before the first placement.
    run_world(
        [(0, 0.0, 4, 100.0, 100.0), (1, 0.0, 2, 50.0, 60.0), (2, 0.0, 4, 30.0, 30.0)],
        procs=4, engine=engine,
    )
    now, early, queue, placed, _ = walks[0]
    assert (now, early, queue, placed) == (100.0, False, 2, 0)


@pytest.mark.parametrize("engine", ENGINES)
def test_cut_right_after_the_head(walks, engine):
    # R1 (5 procs, walltime 100) ends at 10; the 10-processor head cannot
    # use the released window and stays at 200 >= 100, so the walk stops
    # after one placement and keeps the rest of the old plan.
    run_world(
        [
            (0, 0.0, 5, 10.0, 100.0),   # R1, early
            (1, 0.0, 5, 200.0, 200.0),  # R2
            (2, 0.0, 10, 50.0, 50.0),   # head
            (3, 0.0, 5, 20.0, 20.0),
            (4, 0.0, 3, 20.0, 20.0),
        ],
        procs=10, engine=engine,
    )
    now, early, queue, placed, moves = walks[0]
    assert (now, early, queue, placed) == (10.0, True, 3, 1)
    assert all(old == new for old, new in moves.values())


@pytest.mark.parametrize("engine", ENGINES)
def test_unchanged_head_inside_the_window_does_not_end_the_walk(walks, engine):
    # R1 (4 procs, walltime 100) ends at 10.  The 6-processor head still
    # starts at 50, inside the released window, so the job behind it —
    # which searches from frontier 50 < horizon 100 — must be re-placed:
    # it moves from 70 to 50.  Stopping at the first unchanged entry
    # would keep it at 70.
    run_world(
        [
            (0, 0.0, 4, 10.0, 100.0),  # R1, early
            (1, 0.0, 6, 50.0, 50.0),   # R2
            (2, 0.0, 6, 20.0, 20.0),   # head
            (3, 0.0, 4, 30.0, 30.0),
        ],
        procs=10, engine=engine,
    )
    now, early, queue, placed, moves = walks[0]
    assert (now, early, queue, placed) == (10.0, True, 2, 2)
    assert moves == {2: (50.0, 50.0), 3: (70.0, 50.0)}


@pytest.mark.parametrize("engine", ENGINES)
def test_walk_reaching_the_end_is_the_full_replan(walks, engine):
    run_world(
        [
            (0, 0.0, 10, 10.0, 100.0),  # R, early: the whole cluster frees up
            (1, 0.0, 5, 50.0, 50.0),
            (2, 0.0, 5, 50.0, 50.0),
            (3, 0.0, 4, 30.0, 30.0),
        ],
        procs=10, engine=engine,
    )
    now, early, queue, placed, moves = walks[0]
    assert (now, early, queue, placed) == (10.0, True, 3, 3)
    assert moves == {1: (100.0, 10.0), 2: (100.0, 10.0), 3: (150.0, 60.0)}
