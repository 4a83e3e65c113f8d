"""Availability-profile benchmark: the production profile vs its baselines.

Drives identical deep-queue workloads — fill a 128-processor cluster,
submit a deep waiting queue through the incremental planner, churn the
queue tail, then fire a completion-estimate storm — once on the
production :class:`~repro.batch.profile.AvailabilityProfile` (which picks
list or array storage from the length of its own searches) and once on a
baseline, and asserts the plans and estimates are *float-identical*
before comparing wall clocks.

The baselines are the two storages the production profile must not lose
to, forced onto the cluster with the ``oracles.profiles`` helpers:

* **CBF** — every CBF placement and estimate searches the profile from
  ``now``, so the list-only reference (``ListProfile``) pays
  O(breakpoints) Python-level segment visits per query, O(depth²) over a
  submit loop.  The production profile must move to arrays and be at
  least ``MIN_SPEEDUP``× faster at depth ≥ 10⁴.
* **FCFS** — tail placements visit O(1) segments, so the fixed per-call
  overhead of the NumPy primitives dominates.  The production profile
  must stay in lists and be no slower than the profile pinned to array
  storage (floor ``FCFS_MIN_SPEEDUP`` = 1.0).

The recorded ``speedup`` is the baseline's wall clock over the
production profile's.  Timings are published as ``BENCH_profile.json`` at
the repository root under ``REPRO_BENCH_WRITE=1`` (uploaded as a CI
artifact).

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

from repro.batch.job import Job
from repro.batch.policies import BatchPolicy, IncrementalPlanner

from oracles.profiles import cluster_on

#: Queue depths measured by default (the floor is asserted at 10⁴).
DEFAULT_DEPTHS = (1_000, 10_000)
#: Required baseline/production wall-clock ratio for the CBF workload
#: (baseline: the list-only reference) ...
MIN_SPEEDUP = 3.0
#: ... and for the FCFS workload (baseline: array storage; 1.0 = "the
#: production profile is at least as fast") ...
FCFS_MIN_SPEEDUP = 1.0
#: Profile of each side, as named by ``oracles.profiles.PROFILES``.
BASELINES = {BatchPolicy.CBF: "reference", BatchPolicy.FCFS: "array"}
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
    """Deterministic job population shared by both profiles at one depth."""
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


def run_profile(profile: str, policy: BatchPolicy, blockers, waiting, churn, probes):
    """One full workload on one profile; returns (sections, plan, estimates)."""
    cluster = cluster_on(profile, "bench", TOTAL_PROCS, 1.0)
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
    return sections, list(planner.plan.entries), estimates


def best_run(repetitions: int, profile, policy, workload):
    """Best-of-N on the total timed wall clock, keeping that run's sections."""
    best = None
    for _ in range(repetitions):
        run = run_profile(profile, policy, *workload)
        if best is None or run[0]["total_s"] < best[0]["total_s"]:
            best = run
    return best


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
        for policy, baseline in BASELINES.items():
            runs = {
                profile: best_run(repetitions, profile, policy, workload)
                for profile in ("adaptive", baseline)
            }
            sections, plan, estimates = runs["adaptive"]
            base_sections, base_plan, base_estimates = runs[baseline]
            assert plan == base_plan, (
                f"depth {depth} {policy}: plan diverged from the {baseline} profile"
            )
            assert estimates == base_estimates, (
                f"depth {depth} {policy}: estimates diverged from the {baseline} profile"
            )

            speedup = wall_speedup(base_sections["total_s"], sections["total_s"])
            entry = {"baseline": baseline}
            for profile, (profile_sections, _, _) in runs.items():
                for key, value in profile_sections.items():
                    entry[f"{profile}_{key}"] = round(value, 4)
                entry[f"{profile}_submits_per_s"] = int(depth / profile_sections["submit_s"])
            entry["speedup"] = round(speedup, 2)
            entry["min_speedup"] = (
                MIN_SPEEDUP if policy is BatchPolicy.CBF else FCFS_MIN_SPEEDUP
            )
            report["depths"][str(depth)][policy.value] = entry
            print(
                f"\ndepth {depth} {policy.value}: adaptive {sections['total_s']:.3f}s "
                f"(submit {entry['adaptive_submits_per_s']}/s), "
                f"{baseline} {base_sections['total_s']:.3f}s "
                f"(submit {entry[baseline + '_submits_per_s']}/s), "
                f"speedup {speedup:.2f}x"
            )

    publish_report("BENCH_profile.json", report)

    for depth_name, policies in report["depths"].items():
        if int(depth_name) >= SPEEDUP_FLOOR_SCALE:
            for policy_name, numbers in policies.items():
                assert numbers["speedup"] >= numbers["min_speedup"], (
                    f"depth {depth_name} {policy_name}: production-profile "
                    f"speedup {numbers['speedup']}x over {numbers['baseline']} below the "
                    f"{numbers['min_speedup']}x acceptance floor"
                )
