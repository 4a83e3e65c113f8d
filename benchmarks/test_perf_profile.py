"""Availability-engine benchmark: columnar arrays vs the list profile.

Drives identical deep-queue workloads — fill a 128-processor cluster,
submit a deep waiting queue through the incremental planner, churn the
queue tail, then fire a completion-estimate storm — once per availability
engine (the list-based :class:`~repro.batch.profile.AvailabilityProfile`
oracle and the columnar :class:`~repro.batch.arrayprofile.ArrayProfile`)
and asserts the plans and estimates are *float-identical* before
comparing wall clocks.

The interesting case is conservative backfilling: every CBF placement and
every CBF estimate searches the profile from ``now``, so the list engine
pays O(breakpoints) Python-level segment visits per query — O(depth²)
over a submit loop — while the array engine answers each query with a
handful of vectorised passes.  FCFS is the mirror image: tail placements
visit O(1) segments on either engine, so the fixed per-call overhead of
the NumPy primitives dominates and the *list* engine wins.  That is why
``resolve_profile_engine`` picks the engine per policy (``auto``), and
what this benchmark gates: per policy, the recorded ``speedup`` is the
wall-clock of the *alternative* engine over the *selected* one — CBF
asserts array ≥ ``MIN_SPEEDUP``× faster than list at depth ≥ 10⁴, FCFS
asserts the selected list engine is no slower than the array engine
(floor ``FCFS_MIN_SPEEDUP`` = 1.0, i.e. auto-selection never regresses
FCFS submit throughput).

Timings are published as ``BENCH_profile.json`` at the repository root
(uploaded as a CI artifact); the recorded ``array_submits_per_s`` at
depth 10⁴ is the number backing the ROADMAP's deep-queue planning item.

Environment
-----------
``REPRO_BENCH_PROFILE_DEPTHS``
    Comma-separated queue depths replacing the default ``1000,10000``
    (CI smoke uses a small value; the speedup floor is only asserted at
    depths ≥ the recorded ``speedup_floor_scale``).
"""

from __future__ import annotations

import random
import time

from perfutil import env_scales, gc_disabled, publish_report, speedup as wall_speedup

from repro.batch.cluster import ClusterState
from repro.batch.job import Job
from repro.batch.policies import BatchPolicy, IncrementalPlanner, resolve_profile_engine

#: Queue depths measured by default (the floor is asserted at 10⁴).
DEFAULT_DEPTHS = (1_000, 10_000)
#: Required alternative/selected wall-clock ratio for the CBF workload
#: (selected: array) ...
MIN_SPEEDUP = 3.0
#: ... and for the FCFS workload (selected: list; 1.0 = "auto-selection
#: picked an engine at least as fast as the alternative") ...
FCFS_MIN_SPEEDUP = 1.0
#: ... both asserted only at queue depths at least this large.
SPEEDUP_FLOOR_SCALE = 10_000
#: Cancel + resubmit churn events near the queue tail per run.
CHURN_EVENTS = 20
#: Foreign jobs of the completion-estimate storm (capped at the depth).
ESTIMATE_PROBES = 2_000

TOTAL_PROCS = 128
BENCH_SEED = 20100326


def depths() -> tuple:
    return env_scales("REPRO_BENCH_PROFILE_DEPTHS", DEFAULT_DEPTHS)


def bench_workload(depth: int):
    """Deterministic job population shared by both engines at one depth."""
    rng = random.Random(BENCH_SEED + depth)
    blockers = [
        Job(job_id=1_000_000 + i, submit_time=0.0, procs=8,
            runtime=90_000.0, walltime=100_000.0)
        for i in range(TOTAL_PROCS // 8)
    ]
    waiting = [
        Job(
            job_id=i,
            submit_time=0.0,
            procs=rng.randint(1, 64),
            runtime=float(rng.randint(100, 4000)),
            walltime=float(rng.randint(500, 5000)),
        )
        for i in range(depth)
    ]
    # Tail churn: a cancel at position p replays the plan suffix after p,
    # so near-tail positions keep the churn cost bounded at every depth.
    churn = [depth - 1 - rng.randrange(min(50, depth)) for _ in range(CHURN_EVENTS)]
    probes = [
        Job(job_id=2_000_000 + i, submit_time=0.0, procs=rng.randint(1, 64),
            runtime=500.0, walltime=float(rng.randint(500, 5000)))
        for i in range(min(depth, ESTIMATE_PROBES))
    ]
    return blockers, waiting, churn, probes


def run_engine(engine: str, policy: BatchPolicy, blockers, waiting, churn, probes):
    """One full workload on one engine; returns (sections, plan, estimates)."""
    cluster = ClusterState("bench", TOTAL_PROCS, 1.0, profile_engine=engine)
    for job in blockers:
        cluster.start_job(job, start_time=0.0)
    planner = IncrementalPlanner(policy, cluster)
    with gc_disabled():
        t0 = time.perf_counter()
        for job in waiting:
            planner.submit(job, 0.0)
        t1 = time.perf_counter()
        for position in churn:
            index = position % len(planner.jobs)
            victim = planner.jobs[index]
            planner.cancel(index, 0.0)
            planner.submit(victim, 0.0)
        t2 = time.perf_counter()
        estimates = planner.estimate_many(probes)
        t3 = time.perf_counter()
    sections = {
        "submit_s": t1 - t0,
        "churn_s": t2 - t1,
        "estimate_s": t3 - t2,
        "total_s": t3 - t0,
    }
    return sections, planner.cluster_plan(), estimates


def best_run(repetitions: int, engine, policy, workload):
    """Best-of-N on the total timed wall clock, keeping that run's sections."""
    best = None
    for _ in range(repetitions):
        run = run_engine(engine, policy, *workload)
        if best is None or run[0]["total_s"] < best[0]["total_s"]:
            best = run
    return best


def plans_identical(left, right):
    if len(left) != len(right):
        return False
    for entry in left:
        other = right.get(entry.job_id)
        if other is None:
            return False
        if (entry.planned_start, entry.planned_end, entry.procs) != (
            other.planned_start,
            other.planned_end,
            other.procs,
        ):
            return False
    return True


def test_availability_engine_speedup():
    report = {
        "speedup_floor_scale": SPEEDUP_FLOOR_SCALE,
        "total_procs": TOTAL_PROCS,
        "churn_events": CHURN_EVENTS,
        "estimate_probes": ESTIMATE_PROBES,
        "seed": BENCH_SEED,
        "depths": {},
    }
    for depth in depths():
        workload = bench_workload(depth)
        repetitions = 2 if depth < 5_000 else 1
        report["depths"][str(depth)] = {}
        for policy in (BatchPolicy.CBF, BatchPolicy.FCFS):
            list_sections, list_plan, list_estimates = best_run(
                repetitions, "list", policy, workload
            )
            array_sections, array_plan, array_estimates = best_run(
                repetitions, "array", policy, workload
            )

            assert plans_identical(list_plan, array_plan), (
                f"depth {depth} {policy}: array plan diverged from the list oracle"
            )
            assert list_estimates == array_estimates, (
                f"depth {depth} {policy}: array estimates diverged from the "
                "list oracle"
            )

            selected = resolve_profile_engine("auto", policy)
            if selected == "array":
                speedup = wall_speedup(
                    list_sections["total_s"], array_sections["total_s"]
                )
            else:
                speedup = wall_speedup(
                    array_sections["total_s"], list_sections["total_s"]
                )
            entry = {"selected": selected}
            for engine, sections in (("list", list_sections), ("array", array_sections)):
                for key, value in sections.items():
                    entry[f"{engine}_{key}"] = round(value, 4)
                entry[f"{engine}_submits_per_s"] = int(depth / sections["submit_s"])
            entry["speedup"] = round(speedup, 2)
            entry["min_speedup"] = (
                MIN_SPEEDUP if policy is BatchPolicy.CBF else FCFS_MIN_SPEEDUP
            )
            report["depths"][str(depth)][policy.value] = entry
            print(
                f"\ndepth {depth} {policy.value}: list {list_sections['total_s']:.3f}s "
                f"(submit {entry['list_submits_per_s']}/s), "
                f"array {array_sections['total_s']:.3f}s "
                f"(submit {entry['array_submits_per_s']}/s), "
                f"selected {selected}, speedup {speedup:.2f}x"
            )

    publish_report("BENCH_profile.json", report)

    for depth_name, policies in report["depths"].items():
        if int(depth_name) >= SPEEDUP_FLOOR_SCALE:
            for policy_name, numbers in policies.items():
                assert numbers["speedup"] >= numbers["min_speedup"], (
                    f"depth {depth_name} {policy_name}: selected-engine "
                    f"speedup {numbers['speedup']}x below the "
                    f"{numbers['min_speedup']}x acceptance floor"
                )
