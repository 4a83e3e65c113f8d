"""Cross-tick differential oracle for the persistent reallocation engine.

The :class:`~repro.grid.reallocation.ReallocationEngine` keeps the ECT
matrix alive across ticks and only re-queries dirty clusters; the claim is
that this is *float-identical* to rebuilding the table from scratch at
every tick (``RebuildAgent`` of ``tests/oracles/reallocation.py``).
These tests drive randomized scripts of submissions, completions
(time advances), user cancellations and capacity changes interleaved with
reallocation ticks through two mirrored worlds — one production agent,
one rebuild agent — and assert the selected jobs, target clusters and
cancellation sets never diverge, for both heuristic families, both
algorithms, and dynamic (outage-script) platforms.

A second, single-world suite checks the stronger invariant directly:
after any event history, ``sync_waiting`` leaves every matrix entry
exactly equal to a fresh ``add_waiting_many`` build — including the runs
where every cluster is clean and the whole tick is served from cache.
"""

from __future__ import annotations

import random

import pytest

from repro.batch.job import Job
from repro.batch.server import BatchServer
from repro.grid.reallocation import ReallocationAgent, ReallocationEngine
from repro.platform.timeline import AvailabilityTimeline
from repro.sim.kernel import SimulationKernel
from oracles.reallocation import RebuildAgent

CLUSTERS = (("ash", 8, 1.0, "fcfs"), ("birch", 6, 1.3, "cbf"), ("cedar", 4, 1.6, "fcfs"))


def build_world(dynamic: bool):
    """A fresh kernel plus the three mixed-policy clusters of the suite."""
    kernel = SimulationKernel()
    servers = []
    for name, procs, speed, policy in CLUSTERS:
        timeline = None
        if dynamic and name == "birch":
            timeline = (
                AvailabilityTimeline()
                .with_outage(4_000.0, 6_500.0)
                .with_outage(12_000.0, 13_000.0)
            )
        servers.append(
            BatchServer(kernel, name, procs, speed, policy=policy, timeline=timeline)
        )
    return kernel, servers


def make_script(seed: int, ops: int = 60):
    """A pure-data event script, replayable identically on any world."""
    rng = random.Random(seed)
    script = []
    for _ in range(ops):
        roll = rng.random()
        if roll < 0.45:
            script.append(
                (
                    "submit",
                    rng.randrange(3),  # cluster index
                    rng.randint(1, 4),  # procs
                    rng.uniform(50.0, 3_000.0),  # runtime
                    rng.uniform(1.2, 2.5),  # walltime factor
                )
            )
        elif roll < 0.60:
            script.append(("advance", rng.uniform(100.0, 1_500.0)))
        elif roll < 0.70:
            script.append(("cancel", rng.randrange(1 << 30)))
        elif roll < 0.78:
            script.append(("capacity", rng.randrange(3), rng.randint(0, 4)))
        else:
            script.append(("tick",))
    script.append(("tick",))
    return script


class ScriptRunner:
    """Applies one script to one world, deterministically."""

    def __init__(self, servers, kernel):
        self.servers = servers
        self.kernel = kernel
        self.next_job_id = 0

    def apply(self, op) -> None:
        kind = op[0]
        if kind == "submit":
            _, cluster_index, procs, runtime, factor = op
            server = self.servers[cluster_index]
            job = Job(
                job_id=self.next_job_id,
                submit_time=self.kernel.now,
                procs=min(procs, server.total_procs),
                runtime=runtime,
                walltime=runtime * factor,
            )
            self.next_job_id += 1
            server.submit(job)
        elif kind == "advance":
            self.kernel.run(until=self.kernel.now + op[1])
        elif kind == "cancel":
            waiting = sorted(
                (job.job_id, server)
                for server in self.servers
                for job in server.waiting_jobs()
            )
            if waiting:
                job_id, server = waiting[op[1] % len(waiting)]
                job = next(j for j in server.waiting_jobs() if j.job_id == job_id)
                server.cancel(job)
        elif kind == "capacity":
            _, cluster_index, quarters = op
            server = self.servers[cluster_index]
            server.apply_capacity_change(server.total_procs * quarters // 4)


def waiting_assignment(servers):
    assignment = {}
    for server in servers:
        for position, job in enumerate(server.waiting_jobs()):
            assignment[job.job_id] = ("waiting", server.name, position)
        for entry in server.running_snapshot():
            assignment[entry.job.job_id] = ("running", server.name)
    return assignment


HEURISTICS = ("mct", "minmin", "maxmin", "maxgain", "maxrelgain", "sufferage")
SEEDS = (7, 23, 61)


@pytest.mark.parametrize("algorithm", ["standard", "cancellation"])
@pytest.mark.parametrize("heuristic", HEURISTICS)
@pytest.mark.parametrize("dynamic", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
def test_engine_matches_rebuild_across_ticks(algorithm, heuristic, dynamic, seed):
    script = make_script(seed)
    worlds = []
    for agent_class in (ReallocationAgent, RebuildAgent):
        kernel, servers = build_world(dynamic)
        agent = agent_class(
            kernel, servers, heuristic=heuristic, algorithm=algorithm, threshold=30.0
        )
        worlds.append((ScriptRunner(servers, kernel), agent))
    (run_inc, agent_inc), (run_ref, agent_ref) = worlds

    ticks_with_moves = 0
    for op in script:
        if op[0] == "tick":
            moves_inc = agent_inc.run_once()
            moves_ref = agent_ref.run_once()
            assert moves_inc == moves_ref
            ticks_with_moves += moves_inc > 0
        else:
            run_inc.apply(op)
            run_ref.apply(op)
        assert waiting_assignment(run_inc.servers) == waiting_assignment(run_ref.servers)
        assert run_inc.kernel.now == run_ref.kernel.now

    assert agent_inc.total_reallocations == agent_ref.total_reallocations
    assert agent_inc.cancelled_resubmissions == agent_ref.cancelled_resubmissions
    # The generated histories must actually exercise the reuse machinery.
    assert agent_inc.engine.sync_count >= 2


@pytest.mark.parametrize("dynamic", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
def test_sync_is_float_identical_to_fresh_build(dynamic, seed):
    """After any history, sync leaves the matrix equal to a fresh build."""
    script = make_script(seed, ops=40)
    kernel, servers = build_world(dynamic)
    agent = ReallocationAgent(
        kernel, servers, heuristic="minmin", algorithm="standard", threshold=45.0
    )
    runner = ScriptRunner(servers, kernel)
    by_name = {server.name: server for server in servers}
    engine = agent.engine
    checked = 0

    def assert_matches_fresh():
        snapshot = [job for server in servers for job in server.waiting_jobs()]
        if not snapshot:
            return 0
        engine.sync_waiting(
            snapshot,
            lambda job: by_name[job.cluster].planned_completion(job),
            kernel.now,
        )
        fresh = ReallocationEngine(servers)
        fresh.add_waiting_many(
            [(job, by_name[job.cluster].planned_completion(job)) for job in snapshot]
        )
        assert engine.matrix.alive_count == len(snapshot)
        for job in snapshot:
            row_e = engine.matrix.row_of(job.job_id)
            row_f = fresh.matrix.row_of(job.job_id)
            assert engine.matrix.row_ects(row_e) == fresh.matrix.row_ects(row_f)
            assert engine.matrix.current_of(row_e) == fresh.matrix.current_of(row_f)
        return 1

    for op in script:
        if op[0] == "tick":
            # Sync twice in a row: the second pass sees every cluster
            # clean and must serve the identical matrix purely from cache.
            checked += assert_matches_fresh()
            checked += assert_matches_fresh()
            agent.run_once()
        else:
            runner.apply(op)
    checked += assert_matches_fresh()
    assert checked >= 4
    assert engine.clean_columns_reused > 0


def test_early_exit_on_idle_queues():
    kernel, servers = build_world(dynamic=False)
    agent = ReallocationAgent(kernel, servers, heuristic="mct", algorithm="standard")
    assert agent.run_once() == 0
    # The engine was never synced: the tick cost nothing at all.
    assert agent.engine.sync_count == 0

    agent2 = ReallocationAgent(
        kernel, servers, heuristic="mct", algorithm="cancellation"
    )
    assert agent2.run_once() == 0
    assert agent2.cancelled_resubmissions == 0


def test_compaction_keeps_decisions_identical():
    """Dead rows are garbage-collected without disturbing the cache."""
    script = make_script(97, ops=80)
    worlds = []
    for agent_class in (ReallocationAgent, RebuildAgent):
        kernel, servers = build_world(dynamic=False)
        agent = agent_class(kernel, servers, heuristic="mct", algorithm="cancellation")
        agent.engine._GARBAGE_SLACK = 0  # compact eagerly
        worlds.append((ScriptRunner(servers, kernel), agent))
    (run_inc, agent_inc), (run_ref, agent_ref) = worlds
    for op in script:
        if op[0] == "tick":
            assert agent_inc.run_once() == agent_ref.run_once()
        else:
            run_inc.apply(op)
            run_ref.apply(op)
        assert waiting_assignment(run_inc.servers) == waiting_assignment(run_ref.servers)
    # Compaction runs at sync time; one final sync must collect every row
    # the last drain killed.
    agent_inc.engine.sync_waiting([], lambda job: None, run_inc.kernel.now)
    assert agent_inc.engine.matrix.n_rows == 0


def test_tuned_and_cancelled_counters():
    kernel, servers = build_world(dynamic=False)
    runner = ScriptRunner(servers, kernel)
    for op in make_script(5, ops=30):
        if op[0] != "tick":
            runner.apply(op)
    agent = ReallocationAgent(
        kernel, servers, heuristic="mct", algorithm="cancellation"
    )
    agent.run_once()
    assert agent.cancelled_resubmissions > 0
    assert agent.tuned_moves == 0
