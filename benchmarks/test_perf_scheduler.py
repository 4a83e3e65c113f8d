"""Scheduler microbenchmark: incremental engine vs from-scratch replanning.

Drives the same event script — fill a 64-processor cluster, build a deep
waiting queue, then a reallocation-style churn of cancels, resubmissions
and completion-estimate storms — through two planning engines:

* **reference** — the historical behaviour: every event invalidates the
  plan and the whole waiting queue is replanned from a freshly built
  availability profile (``plan_fcfs`` / ``plan_cbf`` of
  ``oracles.planners``);
* **incremental** — the :class:`~repro.batch.policies.IncrementalPlanner`
  used by the batch server since the event-driven refactor: suffix-only
  replanning over a live residual profile.

Both engines must produce *identical* final plans; the benchmark then
asserts the incremental engine is at least ``MIN_SPEEDUP``× faster at
queue depth ≥ 200 and publishes the timings as ``BENCH_scheduler.json``
at the repository root (uploaded as a CI artifact).
"""

from __future__ import annotations

import math
import random

from perfutil import best_of, publish_report, speedup as wall_speedup

from repro.batch.job import Job
from repro.batch.policies import BatchPolicy, IncrementalPlanner

from oracles.planners import PLANNERS, build_profile
from oracles.profiles import cluster_on

#: Waiting jobs in the benchmark queue (the acceptance floor is depth 200).
QUEUE_DEPTH = 220
#: Cancel + resubmit churn operations (the reallocation access pattern).
CHURN_EVENTS = 100
#: Foreign-job completion estimates per churn operation (ECT storms).
ESTIMATES_PER_EVENT = 3
#: Required reference/incremental wall-clock ratio.
MIN_SPEEDUP = 3.0

TOTAL_PROCS = 64
BENCH_SEED = 20100326


def bench_workload():
    """Deterministic job population and churn script shared by both engines."""
    rng = random.Random(BENCH_SEED)
    blockers = [
        Job(job_id=1000 + i, submit_time=0.0, procs=8, runtime=90000.0, walltime=100000.0)
        for i in range(TOTAL_PROCS // 8)
    ]
    waiting = [
        Job(
            job_id=i,
            submit_time=0.0,
            procs=rng.randint(1, 32),
            runtime=float(rng.randint(100, 4000)),
            walltime=float(rng.randint(500, 5000)),
        )
        for i in range(QUEUE_DEPTH)
    ]
    churn = [rng.randrange(QUEUE_DEPTH) for _ in range(CHURN_EVENTS)]
    probes = [
        Job(job_id=5000 + i, submit_time=0.0, procs=rng.randint(1, 16),
            runtime=500.0, walltime=float(rng.randint(500, 3000)))
        for i in range(8)
    ]
    return blockers, waiting, churn, probes


def make_cluster(blockers):
    # Pinned to list storage: this benchmark isolates incremental
    # (suffix-only) replanning against from-scratch replanning on the same
    # profile storage.  How the production profile picks its storage has
    # its own benchmark (test_perf_profile.py) at the depths where it matters.
    cluster = cluster_on("list", "bench", TOTAL_PROCS, 1.0)
    for job in blockers:
        cluster.start_job(job, start_time=0.0)
    return cluster


def run_reference(policy, blockers, waiting, churn, probes):
    """Every event: rebuild the profile and replan the whole queue."""
    plan_fn = PLANNERS[policy]
    cluster = make_cluster(blockers)
    queue = []

    def replan():
        profile = build_profile(cluster, 0.0)
        plan = plan_fn(profile, queue, 1.0, 0.0)
        last_start = 0.0
        for entry in plan:
            if math.isfinite(entry.planned_start):
                last_start = max(last_start, entry.planned_start)
        return plan, profile, last_start

    def estimate(residual, last_start, probe):
        earliest = last_start if policy is BatchPolicy.FCFS else 0.0
        start = residual.earliest_slot(probe.procs, probe.walltime, earliest)
        return start + probe.walltime if math.isfinite(start) else math.inf

    for job in waiting:
        queue.append(job)
        plan, residual, last_start = replan()
    for step, position in enumerate(churn):
        victim = queue.pop(position % len(queue))
        plan, residual, last_start = replan()
        queue.append(victim)
        plan, residual, last_start = replan()
        for probe in probes[: ESTIMATES_PER_EVENT]:
            estimate(residual, last_start, probe)
    return replan()[0]


def run_incremental(policy, blockers, waiting, churn, probes):
    """The same event script through the suffix-replanning engine."""
    cluster = make_cluster(blockers)
    planner = IncrementalPlanner(policy, cluster)

    def estimate(probe):
        earliest = planner.frontier() if policy is BatchPolicy.FCFS else 0.0
        start = planner.residual.earliest_slot(probe.procs, probe.walltime, earliest)
        return start + probe.walltime if math.isfinite(start) else math.inf

    for job in waiting:
        planner.submit(job, 0.0)
    for position in churn:
        index = position % len(planner.jobs)
        victim = planner.jobs[index]
        planner.cancel(index, 0.0)
        planner.submit(victim, 0.0)
        for probe in probes[: ESTIMATES_PER_EVENT]:
            estimate(probe)
    return list(planner.plan.entries)


def test_incremental_scheduler_speedup():
    blockers, waiting, churn, probes = bench_workload()
    report = {
        "queue_depth": QUEUE_DEPTH,
        "churn_events": CHURN_EVENTS,
        "estimates_per_event": ESTIMATES_PER_EVENT,
        "total_procs": TOTAL_PROCS,
        "min_speedup": MIN_SPEEDUP,
        "policies": {},
    }
    for policy in (BatchPolicy.FCFS, BatchPolicy.CBF):
        # Best-of-two timings per engine keep the speedup assertion robust
        # against noisy shared CI runners.
        reference_s, reference_plan = best_of(
            2, run_reference, policy, blockers, waiting, churn, probes
        )
        incremental_s, incremental_plan = best_of(
            2, run_incremental, policy, blockers, waiting, churn, probes
        )

        # Same entries, same floats, in the same (queue) order.
        assert list(reference_plan) == incremental_plan, (
            f"{policy}: incremental plan diverged from the reference plan"
        )
        speedup = wall_speedup(reference_s, incremental_s)
        report["policies"][policy.value] = {
            "reference_s": round(reference_s, 4),
            "incremental_s": round(incremental_s, 4),
            "speedup": round(speedup, 2),
        }
        print(
            f"\n{policy}: reference {reference_s:.3f}s, incremental "
            f"{incremental_s:.3f}s, speedup {speedup:.1f}x"
        )

    publish_report("BENCH_scheduler.json", report)

    for policy_name, numbers in report["policies"].items():
        assert numbers["speedup"] >= MIN_SPEEDUP, (
            f"{policy_name}: speedup {numbers['speedup']}x below the "
            f"{MIN_SPEEDUP}x acceptance floor"
        )
