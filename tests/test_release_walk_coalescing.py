"""Coalesced FCFS release walks: the plan is settled lazily and stays exact.

Under FCFS an early completion re-places only the queue head at once —
every entry that starts at ``now`` plus the first one that does not — and
pauses the rest of its release walk until the next read of the planner.
A second early completion before that read restarts the walk from the
head against the same last exact plan, so a burst of completions costs
one tail walk.  These tests hold the planner to the from-scratch
reference of ``oracles.planners``:

* a Hypothesis differential interleaves early and walltime-boundary
  completions, submissions, cancellations, ``cancel_all``, outages and
  estimates on list and array storage.  After every completion the
  *unsettled* plan must be a prefix of the reference plan that holds every
  entry starting at ``now``.  Reads at random points settle it, and then
  the whole plan, the residual and the frontier must match; a
  submission or cancellation must leave it settled on its own;
* hand-built worlds pin a job started by a head walk that completes early
  before the next read (its freed window overlaps its own reservation,
  so only a net patch keeps the residual within capacity), a boundary
  completion at the paused head's last start (every job planned then must
  start), submissions and cancellations during a pause, a
  ``cancel_all`` during a pause that places nothing, and the
  placement count of a seeded FCFS cell, where bursts of completions walk
  their tail once.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.job import Job
from repro.batch.policies import IncrementalPlanner
from repro.batch.profile import ProfileError
from repro.batch.schedule import IncrementalPlan
from repro.batch.server import BatchServer
from repro.grid.simulation import GridSimulation
from repro.platform.catalog import platform_for_scenario
from repro.platform.timeline import AvailabilityTimeline
from repro.sim.events import EventType
from repro.sim.kernel import SimulationKernel
from repro.workload.scenarios import get_scenario

from oracles.planners import build_profile, plan_fcfs
from oracles.profiles import server_on

ENGINES = ("list", "array")
#: Times sit on this grid, so early and boundary completions, reads and
#: submissions share timestamps.
GRID = 10.0
ACTIONS = ("read", "read", "estimate", "estimate_many", "cancel", "cancel", "cancel_all")
PROBES = (
    Job(job_id=9001, submit_time=0.0, procs=1, runtime=50.0, walltime=120.0),
    Job(job_id=9002, submit_time=0.0, procs=3, runtime=300.0, walltime=300.0),
)


def profile_points(profile, now):
    clone = profile.copy()
    clone.advance(now)
    clone.compact()
    return list(clone.breakpoints())


def reference(server):
    """Reference plan entries, residual and frontier at the kernel's time."""
    now = server.kernel.now
    profile = build_profile(server.cluster, now)
    entries = list(plan_fcfs(profile, server.waiting_jobs(), server.speed, now))
    frontier = max([now] + [e.planned_start for e in entries if math.isfinite(e.planned_start)])
    return entries, profile, frontier


def check_head(server):
    """The unsettled plan: a prefix of the reference with every start at ``now``."""
    now = server.kernel.now
    head = server._planner.plan.entries
    entries, _, _ = reference(server)
    assert head == entries[: len(head)]
    assert all(entry.planned_start > now for entry in entries[len(head):])
    assert server._planner.plan.floor <= min([e.planned_start for e in head], default=math.inf)


def check_settled(server, settled_already=False):
    """The whole plan, residual and frontier equal the reference."""
    planner = server._planner
    now = server.kernel.now
    entries, profile, frontier = reference(server)
    if settled_already:  # the last edit must have settled the walk itself
        assert planner._walk is None
        assert planner.plan.entries == entries
    assert server.planned_schedule() == entries
    assert planner._walk is None
    assert profile_points(planner.residual, now) == profile_points(profile, now)
    assert planner.frontier() == frontier
    assert planner.plan.floor <= min([e.planned_start for e in entries], default=math.inf)


def check_estimates(server, many, pick):
    """Estimates of foreign probes and of one waiting job, before any other read."""
    waiting = server.waiting_jobs()
    targets = list(PROBES) + ([waiting[pick % len(waiting)]] if waiting else [])
    entries, profile, frontier = reference(server)
    planned = {entry.job_id: entry.planned_end for entry in entries}
    expected = []
    for job in targets:
        if job.job_id in planned:
            expected.append(planned[job.job_id])
            continue
        duration = job.walltime_on(server.speed)
        start = profile.earliest_slot(job.procs, duration, frontier)
        expected.append(start + duration if math.isfinite(start) else math.inf)
    if many:
        assert server.estimate_completion_many(targets) == expected
    else:
        assert [server.estimate_completion(job) for job in targets] == expected


def make_world(integer):
    """A random FCFS world; ``integer(lo, hi)`` draws every number."""
    procs = integer(4, 16)
    jobs = []
    for job_id in range(integer(1, 30)):
        walltime = integer(1, 20)
        kind = integer(0, 9)
        if kind < 4:
            runtime = walltime  # completes at its walltime boundary
        elif kind == 9:
            runtime = walltime + 1  # killed at its walltime
        else:
            runtime = integer(0, walltime)  # early (or at the boundary)
        size = integer(1, procs) if integer(0, 2) == 0 else integer(1, max(1, procs // 3))
        jobs.append((job_id, GRID * integer(0, 25), size, GRID * runtime, GRID * walltime))
    outages = []
    for _ in range(integer(0, 2)):
        start = integer(0, 40)
        outages.append((GRID * start, GRID * (start + integer(1, 10)), integer(0, procs - 1)))
    actions = [
        (GRID * integer(0, 60), ACTIONS[integer(0, len(ACTIONS) - 1)], integer(0, 40))
        for _ in range(integer(0, 12))
    ]
    speed = (1.0, 2.0, 0.5)[integer(0, 2)]
    return dict(procs=procs, speed=speed, jobs=jobs, outages=outages, actions=actions)


def make_timeline(outages):
    timeline = AvailabilityTimeline()
    for start, end, capacity in sorted(outages):
        try:
            timeline = timeline.with_degraded(start, end, capacity)
        except ValueError:  # overlapping window: keep the earlier one
            continue
    return timeline


def run_world(engine, procs, speed, jobs, outages=(), actions=()):
    """Replay a world on one FCFS server, checking the plan along the way.

    Returns the server and its jobs by id.
    """
    kernel = SimulationKernel()
    server = server_on(
        engine, kernel, "c", procs, speed, policy="fcfs",
        timeline=make_timeline(outages) if outages else None,
    )

    def submit(job):
        server.submit(job)
        check_settled(server, settled_already=True)

    def act(kind, pick):
        waiting = server.waiting_jobs()
        if kind == "read":
            check_settled(server)
        elif kind.startswith("estimate"):
            check_estimates(server, kind == "estimate_many", pick)
        elif kind == "cancel" and waiting:
            server.cancel(waiting[pick % len(waiting)])
            check_settled(server, settled_already=True)
        elif kind == "cancel_all":
            server.cancel_waiting()
            check_settled(server, settled_already=True)

    by_id = {}
    for job_id, submit_time, job_procs, runtime, walltime in jobs:
        job = by_id[job_id] = Job(job_id=job_id, submit_time=submit_time, procs=job_procs,
                                  runtime=runtime, walltime=walltime)
        kernel.schedule_at(submit_time, submit, job, event_type=EventType.JOB_SUBMISSION)
    for time, kind, pick in actions:
        kernel.schedule_at(time, act, kind, pick, event_type=EventType.GENERIC)
    kernel.run()
    return server, by_id


class Completions(list):
    """``(now, early, paused before, paused after)`` per completion.

    ``skipping`` holds the times of the early completions that restarted a
    walk with a job started since its last exact plan.
    """

    def __init__(self):
        super().__init__()
        self.skipping = []


def check_completions(patch) -> Completions:
    """Check the unsettled head after every completion's scheduling pass."""
    records = Completions()
    original = BatchServer._complete_job

    def complete(self, job):
        planner = self._planner
        end = self.cluster._running[job.job_id].walltime_end
        paused = planner._walk is not None
        if paused and end > self.kernel.now and planner._walk.started_last >= 0:
            records.skipping.append(self.kernel.now)
        original(self, job)
        check_head(self)
        records.append((self.kernel.now, end > self.kernel.now, paused, planner._walk is not None))

    patch.setattr(BatchServer, "_complete_job", complete)
    return records


@pytest.fixture
def completions(monkeypatch):
    return check_completions(monkeypatch)


@given(st.data(), st.sampled_from(ENGINES))
@settings(max_examples=150, deadline=None)
def test_random_worlds_match_the_reference(data, engine):
    integer = lambda lo, hi: data.draw(st.integers(lo, hi))  # noqa: E731
    world = make_world(integer)
    with pytest.MonkeyPatch.context() as patch:
        check_completions(patch)
        server, _ = run_world(engine, **world)
    check_settled(server)


@pytest.mark.parametrize("engine", ENGINES)
def test_random_worlds_pause_restart_and_resume(completions, engine, monkeypatch):
    resumed = []
    original_walk_on = IncrementalPlanner._walk_on

    def walk_on(self, limit):
        resumed.append(limit != math.inf and limit != self.plan.now)
        original_walk_on(self, limit)

    monkeypatch.setattr(IncrementalPlanner, "_walk_on", walk_on)
    for seed in range(100):
        rng = random.Random(seed)
        run_world(engine, **make_world(rng.randint))
    early = [record for record in completions if record[1]]
    # An early completion that found a paused walk restarted it.
    assert sum(paused for _, _, paused, _ in early) >= 60
    # Walks that paused after the head, and walks advance went on with.
    assert sum(after for *_, after in early) >= 150
    assert sum(resumed) >= 40
    # Restarts that walked past jobs started since the last exact plan.
    assert len(completions.skipping) >= 60


@pytest.mark.parametrize("engine", ENGINES)
def test_a_head_started_job_completing_early_takes_a_net_patch(completions, engine, monkeypatch):
    # R1 (8 procs, walltime 100) ends at 10: the head walk starts A (6
    # procs, planned at 100) at 10 and pauses behind B.  A ends at 15,
    # before any read; the restart walks from the head again and the read
    # at 15 cuts behind B.  A's freed window [15, 60) overlaps its own
    # running reservation, which replaces its old slot: releasing every
    # window before reserving overflows the capacity of 10 there.
    splices = []
    original_splice = IncrementalPlan.splice

    def splice(self, index, entries, residual, frontier, floor, release, reserve):
        before = residual.copy()
        before.advance(self.now)
        splices.append((before, list(release), list(reserve)))
        original_splice(self, index, entries, residual, frontier, floor, release, reserve)

    monkeypatch.setattr(IncrementalPlan, "splice", splice)
    server, _ = run_world(
        engine, procs=10, speed=1.0,
        jobs=[
            (0, 0.0, 8, 10.0, 100.0),   # R1, early at 10
            (1, 0.0, 2, 200.0, 200.0),  # R2
            (2, 0.0, 6, 5.0, 50.0),     # A: started at 10 by the head walk, ends at 15
            (3, 0.0, 10, 50.0, 50.0),   # B
            (4, 0.0, 2, 20.0, 20.0),    # C
        ],
        actions=[(15.0, "estimate", 0)],
    )
    assert completions[:2] == [(10.0, True, False, True), (15.0, True, True, True)]
    before, release, reserve = splices[0]
    assert (15.0, 60.0, 6) in release and (10.0, 60.0, 6) in reserve
    with pytest.raises(ProfileError):
        for start, end, procs in release:
            before.add(max(start, before.start_time), end, procs)
    check_settled(server)


@pytest.mark.parametrize("engine", ENGINES)
def test_a_boundary_completion_at_the_paused_frontier_starts_every_job_planned_then(
    completions, engine
):
    # R1 (4 procs) ends early at 10: the head walk places A at 50, behind
    # R2, and pauses.  R2 ends at its walltime boundary 50; advance must
    # go on with the walk, so the pass at 50 sees B planned at 50 too.
    _, jobs = run_world(
        engine, procs=10, speed=1.0,
        jobs=[
            (0, 0.0, 4, 10.0, 100.0),  # R1, early
            (1, 0.0, 6, 50.0, 50.0),   # R2, boundary at 50
            (2, 0.0, 5, 30.0, 30.0),   # A
            (3, 0.0, 5, 30.0, 30.0),   # B
            (4, 0.0, 10, 20.0, 20.0),  # C
        ],
    )
    assert completions[:2] == [(10.0, True, False, True), (50.0, False, True, True)]
    assert jobs[2].start_time == jobs[3].start_time == 50.0


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("action", ["submit", "cancel head", "cancel behind the head"])
def test_submit_and_cancel_during_a_pause_settle_first(completions, engine, action):
    kernel = SimulationKernel()
    server = server_on(engine, kernel, "c", 10, 1.0, policy="fcfs")
    jobs = [
        Job(job_id=0, submit_time=0.0, procs=4, runtime=10.0, walltime=100.0),
        Job(job_id=1, submit_time=0.0, procs=6, runtime=50.0, walltime=50.0),
        Job(job_id=2, submit_time=0.0, procs=5, runtime=30.0, walltime=30.0),
        Job(job_id=3, submit_time=0.0, procs=5, runtime=30.0, walltime=30.0),
        Job(job_id=4, submit_time=0.0, procs=10, runtime=20.0, walltime=20.0),
    ]
    for job in jobs:
        server.submit(job)
    seen = []

    def act():
        seen.append((server._planner._walk is not None, len(server._planner.plan.entries)))
        if action == "submit":
            server.submit(Job(job_id=5, submit_time=20.0, procs=3, runtime=10.0, walltime=10.0))
        else:
            server.cancel(jobs[2] if action == "cancel head" else jobs[4])
        check_settled(server, settled_already=True)

    kernel.schedule_at(20.0, act, event_type=EventType.REALLOCATION)
    kernel.run()
    assert seen == [(True, 1)]  # paused behind A, the only head entry
    assert completions[0] == (10.0, True, False, True)
    check_settled(server)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("action", ["settle", "cancel_waiting"])
def test_cancel_all_during_a_pause_drops_the_walk_unsettled(completions, engine, action):
    # The world of the test above, paused behind A at 20.  Settling would
    # re-place B and C; emptying the queue places nothing: no job behind
    # the head fits beside R2, so the server goes straight to cancel_all.
    kernel = SimulationKernel()
    server = server_on(engine, kernel, "c", 10, 1.0, policy="fcfs")
    jobs = [
        Job(job_id=0, submit_time=0.0, procs=4, runtime=10.0, walltime=100.0),
        Job(job_id=1, submit_time=0.0, procs=6, runtime=50.0, walltime=50.0),
        Job(job_id=2, submit_time=0.0, procs=5, runtime=30.0, walltime=30.0),
        Job(job_id=3, submit_time=0.0, procs=5, runtime=30.0, walltime=30.0),
        Job(job_id=4, submit_time=0.0, procs=10, runtime=20.0, walltime=20.0),
    ]
    for job in jobs:
        server.submit(job)
    placed, cancelled = [], []
    original = IncrementalPlan.place

    def place(self, job_id, *args):
        placed.append(job_id)
        return original(self, job_id, *args)

    def act():
        assert (server._planner._walk is not None, len(server._planner.plan.entries)) == (True, 1)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(IncrementalPlan, "place", place)
            if action == "settle":
                server._planner.settle()
            else:
                cancelled.extend(job.job_id for job in server.cancel_waiting())
        check_settled(server, settled_already=True)

    kernel.schedule_at(20.0, act, event_type=EventType.REALLOCATION)
    kernel.run()
    if action == "settle":
        assert placed == [3, 4]
    else:
        assert placed == [] and cancelled == [2, 3, 4]
    check_settled(server)


def count_placements(simulation, monkeypatch):
    placed = [0]
    original = IncrementalPlan.place

    def place(self, *args):
        placed[0] += 1
        return original(self, *args)

    monkeypatch.setattr(IncrementalPlan, "place", place)
    result = simulation.run().to_dict()
    monkeypatch.setattr(IncrementalPlan, "place", original)
    return placed[0], result


def fcfs_cell():
    platform = platform_for_scenario("jan", heterogeneous=True)
    jobs = get_scenario("jan").generate(platform, scale=0.05, seed=3)
    return GridSimulation(platform, [job.copy() for job in jobs], batch_policy="fcfs")


def test_bursts_of_completions_walk_their_tail_once(monkeypatch):
    """Pinned placement counts of one seeded FCFS cell (``jan``, 5 %).

    Settling every release walk at its completion makes 6,758 placements,
    as the walk did before it paused; pausing it after the head makes
    4,888, with the same result.
    """
    coalesced, result = count_placements(fcfs_cell(), monkeypatch)
    # The same cell with every release walk settled at its completion.
    original = IncrementalPlanner.job_finished

    def job_finished(self, *args):
        original(self, *args)
        self.settle()

    monkeypatch.setattr(IncrementalPlanner, "job_finished", job_finished)
    walked, eager = count_placements(fcfs_cell(), monkeypatch)
    assert eager == result
    assert (coalesced, walked) == (4_888, 6_758)
