"""Reallocation-tick benchmark: persistent engine vs per-tick rebuild.

Until this refactor every reallocation tick rebuilt its estimate table
from scratch: one batched ECT query per cluster over *every* waiting job,
even when nothing had changed since the previous tick.  The persistent
:class:`~repro.grid.reallocation.ReallocationEngine` keeps the matrix
alive across ticks and re-queries only *dirty* clusters (state-generation
counters plus a now-crossing check on the cached starts), so a
steady-state tick costs one lexsort and one vectorised comparison instead
of ``O(jobs x clusters)`` estimate queries.

Three scenarios over 8 clusters, each timed incremental vs rebuild on
mirrored worlds (the decisions are float-identical by construction — the
oracle tests assert it, this file measures it):

* **steady** — Algorithm 1 tick after the grid converged: no cluster is
  dirty, no job moves.  The dominant production case for a heartbeat
  firing every few seconds.
* **one_dirty** — one cluster's generation bumped between ticks: the
  engine refreshes a single column, the rebuild path recomputes all
  eight.
* **cancellation** — Algorithm 2 with the online MCT heuristic: the
  incremental tick empties each queue with one plan restore
  (``BatchServer.cancel_waiting``) where the rebuild path replans the
  queue suffix per cancelled job, and its row-lazy drain runs
  ``O(jobs x clusters)`` scalar estimates where the rebuild path
  refreshes a full column per resubmission (``O(jobs^2)``).  The
  ECT-family drain (MinMin here) is recorded as informational context:
  its per-step column refresh is inherently quadratic on both paths, so
  incrementality cannot buy an asymptotic win there.

Timings land in ``BENCH_realloc.json`` at the repository root under
``REPRO_BENCH_WRITE=1`` (uploaded as a CI artifact); the ``min_speedup``
floors are asserted at or above ``SPEEDUP_FLOOR_SCALE`` waiting jobs and
re-checked from the committed numbers by ``repro bench check``.  CI
runs a reduced-depth smoke via ``REPRO_BENCH_REALLOC_DEPTHS``.
"""

from __future__ import annotations

import random

from perfutil import best_of, env_scales, publish_report, speedup as wall_speedup

from repro.batch.job import Job
from repro.batch.server import BatchServer
from repro.grid.reallocation import ReallocationAgent
from repro.sim.kernel import SimulationKernel

#: Waiting jobs across the grid at the benchmarked ticks.
DEFAULT_DEPTHS = (10_000,)
#: Clusters of the benchmark platform.
CLUSTERS = 8
#: Processors per cluster (requests are capped at half).
TOTAL_PROCS = 64
#: Required rebuild/incremental ratio for the Algorithm 1 ticks ...
MIN_TICK_SPEEDUP = 5.0
#: ... and for the Algorithm 2 (MCT) tick.
MIN_CANCEL_SPEEDUP = 10.0
#: Floors are asserted only at depths at least this large.
SPEEDUP_FLOOR_SCALE = 10_000
#: The ECT-family cancellation context entry runs at this fixed depth.
ECT_CONTEXT_DEPTH = 2_000
#: Algorithm 1 gain threshold (the paper's default).
THRESHOLD = 60.0

BENCH_SEED = 20100611


def depths() -> tuple:
    return env_scales("REPRO_BENCH_REALLOC_DEPTHS", DEFAULT_DEPTHS)


def build_agent(depth: int, incremental: bool, algorithm: str, heuristic: str):
    """One world mid-experiment: blocked clusters, ``depth`` waiting jobs."""
    rng = random.Random(BENCH_SEED)
    kernel = SimulationKernel()
    servers = [
        BatchServer(kernel, f"cluster{i:02d}", TOTAL_PROCS, 1.0, policy="fcfs")
        for i in range(CLUSTERS)
    ]
    # One blocker pins every processor of each cluster; running it before
    # the submissions keeps the whole population in the waiting state.
    for i, server in enumerate(servers):
        server.submit(
            Job(job_id=10_000_000 + i, submit_time=0.0, procs=TOTAL_PROCS,
                runtime=90_000.0, walltime=100_000.0)
        )
    kernel.run(until=0.0)
    assert all(server.cluster.running_count == 1 for server in servers)
    for i in range(depth):
        servers[i % CLUSTERS].submit(
            Job(
                job_id=i,
                submit_time=0.0,
                procs=rng.randint(1, TOTAL_PROCS // 2),
                runtime=float(rng.randint(100, 4000)),
                walltime=float(rng.randint(500, 5000)),
            )
        )
    assert sum(server.queue_length for server in servers) == depth
    return ReallocationAgent(
        kernel, servers, heuristic=heuristic, algorithm=algorithm,
        threshold=THRESHOLD, incremental=incremental,
    )


def converge(agent: ReallocationAgent) -> int:
    """Tick until Algorithm 1 stops moving jobs; returns total moves."""
    moves = 0
    while True:
        step = agent.run_once()
        moves += step
        if step == 0:
            return moves


def dirty_one_cluster(agent: ReallocationAgent, probe_id: int) -> None:
    """Bump one cluster's state generation without changing its queue."""
    server = agent.servers[0]
    probe = Job(job_id=probe_id, submit_time=agent.kernel.now, procs=1,
                runtime=10.0, walltime=20.0)
    server.submit(probe)
    server.cancel(probe)


def time_standard_ticks(depth: int) -> dict:
    """Steady and one-dirty Algorithm 1 tick cost, incremental vs rebuild."""
    section: dict = {}
    ticks = {}
    for incremental, label in ((True, "incremental"), (False, "rebuild")):
        agent = build_agent(depth, incremental, "standard", "mct")
        moves = converge(agent)
        section.setdefault("converge_moves", moves)
        assert section["converge_moves"] == moves, (
            "incremental and rebuild agents converged differently"
        )
        # Steady tick: nothing changed since the last tick, no job moves,
        # so the tick is a pure repeatable query.
        steady_s, steady_moves = best_of(3, agent.run_once)
        assert steady_moves == 0
        # One-dirty tick: a single cluster's generation bumped; the probe
        # submit/cancel pair leaves its queue (and all estimates) intact.
        probe_box = [50_000_000 + depth * (2 if incremental else 1)]

        def one_dirty_tick():
            dirty_one_cluster(agent, probe_box[0])
            probe_box[0] += 1
            return agent.run_once()

        dirty_s, dirty_moves = best_of(3, one_dirty_tick)
        assert dirty_moves == 0
        ticks[label] = (steady_s, dirty_s)
    (inc_steady, inc_dirty), (reb_steady, reb_dirty) = (
        ticks["incremental"], ticks["rebuild"],
    )
    section["steady"] = {
        "incremental_tick_s": round(inc_steady, 5),
        "rebuild_tick_s": round(reb_steady, 5),
        "speedup": round(wall_speedup(reb_steady, inc_steady), 2),
    }
    section["one_dirty"] = {
        "incremental_tick_s": round(inc_dirty, 5),
        "rebuild_tick_s": round(reb_dirty, 5),
        "speedup": round(wall_speedup(reb_dirty, inc_dirty), 2),
    }
    return section


def time_cancellation_tick(depth: int, heuristic: str) -> dict:
    """One full Algorithm 2 tick (cancel everything, resubmit everything).

    The tick massively mutates the grid, so each measurement runs once on
    a freshly built world; at these depths the drain dwarfs timer noise.
    """
    timings = {}
    moves = {}
    for incremental, label in ((True, "incremental"), (False, "rebuild")):
        agent = build_agent(depth, incremental, "cancellation", heuristic)
        seconds, tick_moves = best_of(1, agent.run_once)
        assert agent.cancelled_resubmissions == depth
        timings[label] = seconds
        moves[label] = tick_moves
    assert moves["incremental"] == moves["rebuild"], (
        "incremental cancellation tick moved a different job set"
    )
    return {
        "heuristic": heuristic,
        "moves": moves["incremental"],
        "incremental_tick_s": round(timings["incremental"], 4),
        "rebuild_tick_s": round(timings["rebuild"], 4),
        "speedup": round(
            wall_speedup(timings["rebuild"], timings["incremental"]), 2
        ),
    }


def test_incremental_engine_tick_speedup():
    standard_depths: dict = {}
    cancel_depths: dict = {}
    for depth in depths():
        standard_depths[str(depth)] = time_standard_ticks(depth)
        cancel_depths[str(depth)] = time_cancellation_tick(depth, "mct")

    context_depth = min(ECT_CONTEXT_DEPTH, max(depths()))
    ect_context = time_cancellation_tick(context_depth, "minmin")
    ect_context["informational"] = True
    ect_context["depth"] = context_depth

    report = {
        "clusters": CLUSTERS,
        "total_procs_per_cluster": TOTAL_PROCS,
        "threshold": THRESHOLD,
        "seed": BENCH_SEED,
        "speedup_floor_scale": SPEEDUP_FLOOR_SCALE,
        "standard": {
            "min_speedup": MIN_TICK_SPEEDUP,
            "depths": standard_depths,
        },
        "cancellation": {
            "min_speedup": MIN_CANCEL_SPEEDUP,
            "depths": cancel_depths,
            "ect_family_context": ect_context,
        },
    }
    publish_report("BENCH_realloc.json", report)

    for depth_key, section in standard_depths.items():
        print(
            f"\nstandard tick @ {depth_key} jobs: steady "
            f"{section['steady']['rebuild_tick_s'] * 1e3:.1f}ms -> "
            f"{section['steady']['incremental_tick_s'] * 1e3:.1f}ms "
            f"({section['steady']['speedup']:.0f}x), one-dirty "
            f"{section['one_dirty']['speedup']:.0f}x"
        )
        if int(depth_key) >= SPEEDUP_FLOOR_SCALE:
            for scenario in ("steady", "one_dirty"):
                measured = section[scenario]["speedup"]
                assert measured >= MIN_TICK_SPEEDUP, (
                    f"{scenario} tick speedup {measured:.2f}x at depth "
                    f"{depth_key} is below the {MIN_TICK_SPEEDUP}x floor"
                )
    for depth_key, section in cancel_depths.items():
        print(
            f"cancellation (mct) tick @ {depth_key} jobs: "
            f"{section['rebuild_tick_s']:.2f}s -> "
            f"{section['incremental_tick_s']:.2f}s "
            f"({section['speedup']:.2f}x, {section['moves']} migrations)"
        )
        if int(depth_key) >= SPEEDUP_FLOOR_SCALE:
            measured = section["speedup"]
            assert measured >= MIN_CANCEL_SPEEDUP, (
                f"cancellation tick speedup {measured:.2f}x at depth "
                f"{depth_key} is below the {MIN_CANCEL_SPEEDUP}x floor"
            )
