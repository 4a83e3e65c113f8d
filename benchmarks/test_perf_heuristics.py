"""Heuristic-selection microbenchmark: columnar matrix vs per-object loop.

The offline heuristics of Section 2.2.2 re-rank every remaining candidate
at every step of a reallocation tick, so one tick over ``n`` candidates
costs O(n²) selection-key evaluations.  The object-based reference of
``tests/oracles/heuristics.py`` materialises one ``JobEstimate`` (with a
fresh ECT dict) per remaining candidate per step — ~n²/2 object builds
per tick — and runs its ``select`` over the resulting list.  The
columnar engine keeps the same numbers in a NumPy (candidates × clusters)
:class:`~repro.core.estimation.EstimateMatrix` and replaces each step by
a vectorised ``Heuristic.select_index`` argmin over the alive rows,
materialising nothing until a job is actually chosen.

Both paths must drain a 500-candidate × 5-cluster tick in the *identical*
selection order (same tie-breaks); the benchmark then asserts the
vectorised drain is at least ``MIN_SPEEDUP``× faster for every offline
heuristic and publishes the timings as ``BENCH_heuristics.json`` at the
repository root (uploaded as a CI artifact).  MCT is measured for
completeness but not gated: its key ignores the ECTs entirely, so the
object path never was its bottleneck.
"""

from __future__ import annotations

import math
import random

from perfutil import best_of, publish_report, speedup as wall_speedup

from repro.batch.job import Job
from repro.core.estimation import EstimateMatrix
from repro.core.heuristics import HEURISTIC_NAMES, get_heuristic
from oracles.heuristics import JobEstimate, select

#: Candidates of the benchmarked tick (the ISSUE's 500-candidate target).
CANDIDATES = 500
#: Clusters of the benchmark platform.
CLUSTERS = tuple(f"cluster{i}" for i in range(5))
#: Required object-loop / matrix-loop wall-clock ratio per offline heuristic.
MIN_SPEEDUP = 3.0
#: Timed repetitions (best-of, to shrug off noisy shared CI runners).
REPEATS = 3

BENCH_SEED = 20100326

OFFLINE = tuple(
    name for name in HEURISTIC_NAMES if not get_heuristic(name).online
)


def build_candidates():
    """One random mid-experiment tick: 500 candidates, mixed fits and ECTs."""
    rng = random.Random(BENCH_SEED)
    candidates = []
    for index in range(CANDIDATES):
        job = Job(
            job_id=index + 1,
            submit_time=float(rng.randint(0, 120) * 30),  # duplicate submit times
            procs=rng.randint(1, 32),
            runtime=float(rng.randint(100, 4000)),
            walltime=float(rng.randint(500, 5000)),
        )
        ects = {}
        for name in CLUSTERS:
            roll = rng.random()
            if roll < 0.1:
                continue  # does not fit there
            if roll < 0.15:
                ects[name] = math.inf  # fits, but the queue cannot place it
            else:
                ects[name] = float(rng.randint(100, 100_000))
        current = rng.choice(CLUSTERS)
        candidates.append((job, current, ects.get(current, math.inf), ects))
    return candidates


def drain_objects(candidates, heuristic):
    """Reference tick loop: JobEstimate list rebuilt at every step."""
    remaining = {job.job_id: (job, current, ect, ects) for job, current, ect, ects in candidates}
    order = []
    while remaining:
        estimates = [
            JobEstimate(job=job, current_cluster=current, current_ect=ect, ects=dict(ects))
            for job, current, ect, ects in remaining.values()
        ]
        chosen = select(heuristic, estimates)
        order.append(chosen.job.job_id)
        del remaining[chosen.job.job_id]
    return order


def drain_matrix(candidates, heuristic):
    """Columnar tick loop: one matrix, vectorised argmin per step."""
    matrix = EstimateMatrix(CLUSTERS)
    for job, current, ect, ects in candidates:
        matrix.add_row(job.job_id, job.submit_time, job.procs, ects, current, ect)
    order = []
    while matrix.alive_count:
        row = heuristic.select_index(matrix)
        order.append(matrix.job_id_at(row))
        matrix.discard_row(row)
    return order


def test_heuristic_selection_speedup():
    candidates = build_candidates()
    report = {
        "candidates": CANDIDATES,
        "clusters": len(CLUSTERS),
        "min_speedup": MIN_SPEEDUP,
        "offline": list(OFFLINE),
        "heuristics": {},
    }
    offline_speedups = {}
    for name in HEURISTIC_NAMES:
        heuristic = get_heuristic(name)
        object_s, object_order = best_of(REPEATS, drain_objects, candidates, heuristic)
        matrix_s, matrix_order = best_of(REPEATS, drain_matrix, candidates, heuristic)

        assert matrix_order == object_order, (
            f"{name}: vectorised selection diverged from the object-based "
            "reference drain"
        )
        speedup = wall_speedup(object_s, matrix_s)
        report["heuristics"][name] = {
            "object_s": round(object_s, 4),
            "matrix_s": round(matrix_s, 4),
            "speedup": round(speedup, 2),
            "online": heuristic.online,
        }
        if name in OFFLINE:
            offline_speedups[name] = speedup

    publish_report("BENCH_heuristics.json", report)
    slowest = min(offline_speedups, key=offline_speedups.get)
    print(
        f"\nheuristic drain over {CANDIDATES} candidates x {len(CLUSTERS)} "
        "clusters: "
        + ", ".join(
            f"{name} {entry['speedup']:.1f}x"
            for name, entry in report["heuristics"].items()
        )
    )
    assert offline_speedups[slowest] >= MIN_SPEEDUP, (
        f"{slowest}: speedup {offline_speedups[slowest]:.2f}x below the "
        f"{MIN_SPEEDUP}x acceptance floor for offline heuristics"
    )
