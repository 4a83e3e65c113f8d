"""Differential oracle for bulk Algorithm-2 cancellation.

:meth:`BatchServer.cancel_waiting` empties a waiting queue with one plan
restore once no job can start any more, instead of one suffix replan per
job.  The claim is that it reproduces the per-job loop exactly — the loop
the rebuild reallocation path still runs::

    for job in server.waiting_jobs():
        if job.state is JobState.WAITING and job.cluster is not None:
            server.cancel(job)

Each cancellation's scheduling pass may start jobs behind the head, so
the loop is a cascade.  These tests replay seeded random worlds twice —
one world per path — and, at a tick fired as a kernel event, compare the
started and cancelled sets, the server counters, every job's state and
cluster, and the pending completion events (time and scheduling
sequence).  The follow-on resubmission plans and residual profiles must
then be float-identical, and the rest of the run must start and complete
the same jobs at the same times.  FCFS and CBF, both profile engines,
static and outage platforms, ticks before and after the same-timestamp
completions, and the counter-example to the one-pass "fits against
running plus started-so-far" rule are covered.
"""

from __future__ import annotations

import random

import pytest

from repro.batch.job import Job, JobState
from repro.batch.server import BatchServer
from repro.platform.timeline import AvailabilityTimeline
from repro.sim.events import EventType
from repro.sim.kernel import SimulationKernel

POLICIES = ("fcfs", "cbf")
ENGINES = ("list", "array")
PLATFORMS = ("static", "outage")
SEEDS = range(30)

#: Priority that fires a tick *before* the completions of its timestamp.
BEFORE_COMPLETIONS = int(EventType.JOB_COMPLETION) - 1


def per_job_loop(server: BatchServer):
    """The reference: cancel the snapshot front to back, skipping starters."""
    cancelled = []
    for job in server.waiting_jobs():
        if job.state is not JobState.WAITING or job.cluster is None:
            continue
        server.cancel(job)
        cancelled.append(job)
    return cancelled


def bulk(server: BatchServer):
    return server.cancel_waiting()


def make_case(seed: int, platform: str):
    """Pure-data description of one world, replayable on either path.

    Times are multiples of 10 and many runtimes equal their walltime, so
    ticks often coincide with walltime-boundary completions.  Odd seeds
    replay a random trace; even seeds build the counter-example's shape —
    a partial blocker, then a whole-cluster head holding back a burst of
    jobs queued at once — where the cascade's start set depends on the
    order of the cancellations.
    """
    rng = random.Random(seed)
    procs = rng.randint(4, 20)
    jobs = []
    if seed % 2 == 0:
        blocker_end = 10.0 * rng.randint(2, 10)
        jobs.append((0, 0.0, rng.randint(1, procs - 1), blocker_end, blocker_end))
        jobs.append((1, 0.0, procs, 10.0 * rng.randint(1, 5), 10.0 * rng.randint(5, 10)))
        for job_id in range(2, rng.randint(3, 14)):
            walltime = 10.0 * rng.randint(1, 20)
            jobs.append((job_id, 0.0, rng.randint(1, procs), walltime, walltime))
        tick = 10.0 * rng.randint(0, int(blocker_end // 10))
    else:
        tick = 10.0 * rng.randint(0, 15)
    for job_id in range(len(jobs), len(jobs) + rng.randint(0, 40)):
        walltime = 10.0 * rng.randint(1, 30)
        roll = rng.random()
        if roll < 0.4:
            runtime = walltime
        elif roll < 0.9:
            runtime = 10.0 * rng.randint(1, int(walltime // 10))
        else:
            runtime = walltime + 10.0  # killed at the walltime
        small = rng.random() < 0.5
        jobs.append(
            (
                job_id,
                10.0 * rng.randint(0, 20),
                rng.randint(1, max(1, procs // 3)) if small else rng.randint(1, procs),
                runtime,
                walltime,
            )
        )
    priority = rng.choice((int(EventType.REALLOCATION), BEFORE_COMPLETIONS))
    outages = []
    if platform == "outage":
        for _ in range(rng.randint(1, 2)):
            start = 10.0 * rng.randint(0, 25)
            end = start + 10.0 * rng.randint(1, 10)
            capacity = rng.randint(0, procs - 1)
            outages.append((start, end, capacity))
    return {
        "procs": procs,
        "jobs": jobs,
        "tick": tick,
        "priority": priority,
        "outages": outages,
        "resubmit_seed": seed,
    }


def make_timeline(outages):
    timeline = AvailabilityTimeline()
    for start, end, capacity in sorted(outages):
        try:
            timeline = timeline.with_degraded(start, end, capacity)
        except ValueError:  # overlapping window: keep the earlier one
            continue
    return timeline


def run_world(case, policy: str, engine: str, cancel_all):
    """Replay ``case``; ``cancel_all(server)`` runs the tick's cancel step."""
    kernel = SimulationKernel()
    log = []
    server = BatchServer(
        kernel,
        "c",
        case["procs"],
        1.0,
        policy=policy,
        profile_engine=engine,
        timeline=make_timeline(case["outages"]) if case["outages"] else None,
        on_start=lambda job: log.append(("start", kernel.now, job.job_id)),
        on_completion=lambda job: log.append(("end", kernel.now, job.job_id)),
    )
    jobs = {
        job_id: Job(job_id=job_id, submit_time=submit, procs=procs,
                    runtime=runtime, walltime=walltime)
        for job_id, submit, procs, runtime, walltime in case["jobs"]
    }
    for job in jobs.values():
        kernel.schedule_at(job.submit_time, server.submit, job,
                           event_type=EventType.JOB_SUBMISSION)
    observed = {}

    def tick():
        waiting_before = [job.job_id for job in server.waiting_jobs()]
        cancelled = cancel_all(server)
        observed["cancelled"] = [job.job_id for job in cancelled]
        observed["started"] = sorted(
            job_id for job_id in waiting_before
            if jobs[job_id].state is JobState.RUNNING
        )
        observed["counters"] = (
            server.cancelled_count, server.started_count, server.queue_length,
            server.cluster.free_procs,
        )
        observed["jobs"] = {
            job_id: (job.state, job.cluster, job.start_time)
            for job_id, job in jobs.items()
        }
        observed["completion_events"] = sorted(
            (event.time, event.priority, event.sequence, job_id)
            for job_id, event in server._completion_events.items()
        )
        # Algorithm 2's follow-on: resubmit the cancelled set in some order.
        order = list(cancelled)
        random.Random(case["resubmit_seed"]).shuffle(order)
        for job in order:
            server.submit(job)
        observed["plan"] = [
            (entry.job_id, entry.planned_start, entry.planned_end)
            for entry in sorted(server.planned_schedule(), key=lambda e: e.job_id)
        ]
        observed["residual"] = list(server._planner.residual.breakpoints())
        observed["estimate"] = server.estimate_completion(
            Job(job_id=10**6, submit_time=kernel.now, procs=1, runtime=10.0,
                walltime=10.0)
        )

    kernel.schedule_at(case["tick"], tick, priority=case["priority"])
    kernel.run()
    observed["log"] = log
    return observed


def assert_same(case, policy, engine):
    reference = run_world(case, policy, engine, per_job_loop)
    candidate = run_world(case, policy, engine, bulk)
    assert candidate == reference
    return reference


@pytest.mark.parametrize("platform", PLATFORMS)
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_bulk_cancel_matches_per_job_loop(seed, policy, engine, platform):
    assert_same(make_case(seed, platform), policy, engine)


@pytest.mark.parametrize("policy", POLICIES)
def test_random_cases_exercise_cascades(policy):
    """The random cases include cascades that start jobs, and deep drops."""
    cascades = deep_drops = 0
    for seed in SEEDS:
        observed = assert_same(make_case(seed, "static"), policy, "list")
        cascades += bool(observed["started"])
        deep_drops += len(observed["cancelled"]) >= 5
    assert cascades >= 2
    assert deep_drops >= 5


def counter_example_case(tick_priority: int = int(EventType.REALLOCATION)):
    """CBF, 10 processors, R running (5 procs until t=50), then H/X/Y/Z/W."""
    return {
        "procs": 10,
        "jobs": [
            (0, 0.0, 5, 50.0, 50.0),     # R
            (1, 0.0, 10, 10.0, 10.0),    # H
            (2, 0.0, 1, 100.0, 100.0),   # X
            (3, 0.0, 6, 10.0, 10.0),     # Y
            (4, 0.0, 4, 100.0, 100.0),   # Z
            (5, 0.0, 1, 55.0, 55.0),     # W
        ],
        "tick": 0.0,
        "priority": tick_priority,
        "outages": [],
        "resubmit_seed": 0,
    }


@pytest.mark.parametrize("engine", ENGINES)
def test_counter_example_to_the_one_pass_rule(engine):
    # Walking the queue once against running plus started-so-far would
    # start X and Z; the real cascade (cancel H: X and W start; cancel Y:
    # Z no longer fits) starts X and W.
    observed = assert_same(counter_example_case(), "cbf", engine)
    assert observed["started"] == [2, 5]
    assert observed["cancelled"] == [1, 3, 4]


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("engine", ENGINES)
def test_tick_at_a_walltime_boundary(policy, engine):
    # R ends exactly at the tick; fired before the completion, the plan
    # already counts R's processors as free while the cluster does not.
    for priority in (int(EventType.REALLOCATION), BEFORE_COMPLETIONS):
        case = counter_example_case(priority)
        case["jobs"] = [(0, 0.0, 6, 50.0, 50.0), (1, 0.0, 10, 10.0, 10.0),
                        (2, 10.0, 4, 20.0, 20.0), (3, 10.0, 8, 30.0, 30.0),
                        (4, 20.0, 2, 40.0, 40.0)]
        case["tick"] = 50.0
        assert_same(case, policy, engine)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("engine", ENGINES)
def test_empty_and_single_job_queues(policy, engine):
    kernel = SimulationKernel()
    server = BatchServer(kernel, "c", 4, 1.0, policy=policy, profile_engine=engine)
    generation = server.state_generation
    assert server.cancel_waiting() == []
    assert server.state_generation == generation
    assert server.cancelled_count == 0

    for jobs in ([], [(0, 0.0, 4, 100.0, 100.0), (1, 0.0, 2, 10.0, 10.0)]):
        case = {"procs": 4, "jobs": jobs, "tick": 0.0,
                "priority": int(EventType.REALLOCATION), "outages": [],
                "resubmit_seed": 0}
        observed = assert_same(case, policy, engine)
        assert observed["cancelled"] == ([1] if jobs else [])


def test_bulk_drop_skips_the_per_job_cancel(monkeypatch):
    """Fully blocked queue: no fallback cancel, one generation bump."""
    kernel = SimulationKernel()
    server = BatchServer(kernel, "c", 8, 1.0, policy="cbf")
    server.submit(Job(job_id=0, submit_time=0.0, procs=8, runtime=500.0,
                      walltime=500.0))
    queued = [Job(job_id=i, submit_time=0.0, procs=1 + i % 8, runtime=50.0,
                  walltime=60.0) for i in range(1, 40)]
    server.submit_many(queued)
    calls = []
    monkeypatch.setattr(server, "cancel", lambda job: calls.append(job))
    generation = server.state_generation
    cancelled = server.cancel_waiting()
    assert calls == []
    assert cancelled == queued
    assert server.state_generation == generation + 1
    assert server.queue_length == 0 and server.cancelled_count == 39
    assert all(job.state is JobState.CANCELLED and job.cluster is None
               for job in queued)
    assert list(server._planner.residual.breakpoints()) == list(
        server.cluster.availability(0.0).breakpoints()
    )
