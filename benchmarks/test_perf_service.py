"""Service-shell benchmark: sustained admission throughput under burst load.

The online metascheduler service (:mod:`repro.service`) must keep up with
the paper's grid front door: bursts of thousands of submissions landing
on the admission queue while every batch is mapped through the bulk MCT
path.  The benchmark fills the admission queue to a target depth in one
open-loop burst (rate effectively infinite) and measures the *sustained*
rate at which the service admits — maps onto clusters — the backlog, end
to end through :meth:`MetaScheduler.submit_many`, plus the submit-latency
percentiles the service's own per-ticket stamps record.

Published as ``BENCH_service.json`` at the repository root: sustained
jobs/s per local policy (FCFS and CBF) at each queue depth, p50/p99
admit latency, and the backpressure engagement point (the queue depth at
which offers start being refused, which must equal the configured
high-water mark).  The FCFS floor asserts ≥10⁴ sustained jobs/s at depth
10⁴ — the throughput target of the service PR — and is enforced from the
committed numbers by ``repro bench check`` (``min_jobs_per_s``).  A
fourth scenario drains the same FCFS burst with the live reallocation
heartbeat enabled (one incremental-engine tick every ``REALLOC_INTERVAL``
virtual seconds) and holds the admission rate to the same floor.

Environment
-----------
``REPRO_BENCH_SERVICE_DEPTHS``
    Comma-separated queue depths replacing the default ``10000`` (CI
    smoke uses a small value; the throughput floors are only asserted at
    depths ≥ 10⁴).
"""

from __future__ import annotations

import asyncio

from perfutil import env_scales, publish_report

from repro.platform.catalog import grid5000_platform
from repro.service import (
    MetaSchedulerService,
    ServiceClient,
    ServiceConfig,
    SubmitRejected,
    bombard,
    synthetic_specs,
)

#: Queue depths measured by default.
DEFAULT_DEPTHS = (10_000,)
#: Sustained admission floor (jobs/s), asserted per policy ...
MIN_JOBS_PER_S = {"fcfs": 10_000.0, "cbf": 5_000.0}
#: ... only at depths at least this large.
FLOOR_SCALE = 10_000
#: Timed repetitions per policy and depth (best-of, against noisy runners).
REPETITIONS = 2
#: Admission batch used by the measured configuration.
ADMISSION_BATCH = 1_024
#: Heartbeat of the measured configuration (virtual-clock seconds).
HEARTBEAT = 0.05
#: High-water mark of the backpressure scenario.
BACKPRESSURE_HIGH_WATER = 1_000
#: Virtual seconds between reallocation ticks in the live-reallocation
#: run — one full mid-burst tick lands inside the depth-10^4 drain
#: window (~0.5 virtual seconds at the default heartbeat).
REALLOC_INTERVAL = 0.3

BENCH_SEED = 20100611


def depths() -> tuple:
    return env_scales("REPRO_BENCH_SERVICE_DEPTHS", DEFAULT_DEPTHS)


async def _drain_burst(policy: str, depth: int, reallocation: bool = False):
    """Fill the admission queue to ``depth`` in one burst, drain it, report."""
    config = ServiceConfig(
        heartbeat=HEARTBEAT,
        admission_batch=ADMISSION_BATCH,
        max_queue=depth + 1,
        high_water=depth + 1,  # backpressure is measured separately
        reallocation_interval=REALLOC_INTERVAL if reallocation else None,
    )
    service = MetaSchedulerService(
        grid5000_platform(), batch_policy=policy, config=config
    )
    async with service:
        client = ServiceClient(service)
        report = await bombard(
            client,
            jobs=depth,
            rate=1e12,  # open loop at an unreachable rate: one burst
            specs=synthetic_specs(seed=BENCH_SEED),
            drain_timeout=300.0,
        )
    assert report.drained, (
        f"{policy} at depth {depth}: admission queue still holds "
        f"{service.queue_depth} jobs after the drain timeout"
    )
    assert report.accepted == depth
    assert service.admitted == depth
    return report, service


def measure_policy(policy: str, depth: int, reallocation: bool = False):
    """Best-of-``REPETITIONS`` sustained rate for one policy and depth."""
    best = None
    for _ in range(REPETITIONS):
        report, service = asyncio.run(_drain_burst(policy, depth, reallocation))
        if best is None or report.sustained_rate > best[0].sustained_rate:
            best = (report, service)
    return best


def measure_backpressure():
    """Queue depth at which offers start being refused, and the recovery."""

    async def run():
        config = ServiceConfig(
            heartbeat=HEARTBEAT,
            admission_batch=ADMISSION_BATCH,
            max_queue=BACKPRESSURE_HIGH_WATER * 4,
            high_water=BACKPRESSURE_HIGH_WATER,
        )
        service = MetaSchedulerService(
            grid5000_platform(), batch_policy="fcfs", config=config
        )
        engaged_at = None
        rejected = 0
        async with service:
            specs = synthetic_specs(seed=BENCH_SEED)
            for _ in range(BACKPRESSURE_HIGH_WATER * 2):
                procs, runtime, walltime = next(specs)
                try:
                    service.offer(procs, runtime, walltime)
                except SubmitRejected as exc:
                    assert exc.reason == "backpressure"
                    if engaged_at is None:
                        engaged_at = service.queue_depth
                    rejected += 1
            client = ServiceClient(service)
            await client.drain()
            released = not service.backpressure_engaged
            # After the drain the door must be open again.
            service.offer(1, 60.0)
            await client.drain()
        return {
            "high_water": BACKPRESSURE_HIGH_WATER,
            "engaged_at_depth": engaged_at,
            "rejected_during_burst": rejected,
            "released_after_drain": released,
        }

    return asyncio.run(run())


def test_service_throughput():
    report = {
        "platform": "grid5000 (3 clusters)",
        "heartbeat_s": HEARTBEAT,
        "admission_batch": ADMISSION_BATCH,
        "speedup_floor_scale": FLOOR_SCALE,
        "policies": {},
    }
    measured = {}
    for policy in ("fcfs", "cbf"):
        entry = {"min_jobs_per_s": MIN_JOBS_PER_S[policy]}
        for depth in depths():
            run, service = measure_policy(policy, depth)
            latency = run.latency
            entry[str(depth)] = {
                "jobs_per_s": round(run.sustained_rate, 2),
                "drain_wall_s": round(run.drain_wall_s, 4),
                "p50_latency_ms": round(latency["p50"] * 1e3, 2),
                "p99_latency_ms": round(latency["p99"] * 1e3, 2),
                "admission_passes": service.admission_passes,
            }
            measured[(policy, depth)] = run.sustained_rate
        report["policies"][policy] = entry

    # Admission throughput with the live reallocation heartbeat enabled:
    # every REALLOC_INTERVAL virtual seconds the incremental engine
    # re-tunes the waiting queues in the middle of the drain.  The
    # heartbeat must not cost the admission path its 10^4 jobs/s floor.
    realloc_entry = {"min_jobs_per_s": MIN_JOBS_PER_S["fcfs"]}
    for depth in depths():
        run, service = measure_policy("fcfs", depth, reallocation=True)
        assert service.reallocation_ticks >= 1, (
            f"reallocation heartbeat never fired during the depth-{depth} drain"
        )
        realloc_stats = service.stats()["reallocation"]
        realloc_entry[str(depth)] = {
            "jobs_per_s": round(run.sustained_rate, 2),
            "drain_wall_s": round(run.drain_wall_s, 4),
            "ticks": realloc_stats["ticks"],
            "tuned_moves": realloc_stats["tuned"],
        }
        measured[("fcfs+realloc", depth)] = run.sustained_rate
    report["reallocation"] = {
        "interval_s": REALLOC_INTERVAL,
        "algorithm": "standard",
        "heuristic": "mct",
        **realloc_entry,
    }

    report["backpressure"] = backpressure = measure_backpressure()
    assert backpressure["engaged_at_depth"] == BACKPRESSURE_HIGH_WATER
    assert backpressure["rejected_during_burst"] == BACKPRESSURE_HIGH_WATER
    assert backpressure["released_after_drain"] is True

    publish_report("BENCH_service.json", report)
    print(
        "\nservice admission drain: "
        + ", ".join(
            f"{policy}@{depth} {rate:,.0f} jobs/s"
            for (policy, depth), rate in measured.items()
        )
        + f"; backpressure engaged at depth {backpressure['engaged_at_depth']}"
    )
    for (policy, depth), rate in measured.items():
        if depth >= FLOOR_SCALE:
            floor = MIN_JOBS_PER_S[policy.split("+")[0]]
            assert rate >= floor, (
                f"{policy} at depth {depth}: sustained {rate:,.0f} jobs/s "
                f"below the {floor:,.0f} jobs/s floor"
            )
