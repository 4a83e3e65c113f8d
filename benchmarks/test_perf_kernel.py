"""Kernel microbenchmark: binary heap vs calendar queue at trace scale.

Schedules N no-op events at integer-second pseudo-random times (the shape
of an SWF trace: many ties, span ~N seconds) and drains the kernel to
exhaustion, on the production calendar queue and on the binary-heap
oracle (``tests/oracles/queues.py``), at 10⁵ and 10⁶ events.  Fill
(scheduling) and drain (the event loop) are timed separately: a heap pop
at depth 10⁶ runs ~2·log₂(n) ≈ 40 Python-level comparisons while the
calendar queue touches O(1) entries per pop, so the algorithmic gap lives
in the drain — the acceptance floor asserts the calendar event loop is at
least ``MIN_SPEEDUP``× faster at 10⁶ scheduled events, and the scheduling
rate is reported alongside.

One best-of sample judges the floor unless its ratio lands within
``NOISE_BAND`` of the floor: there host noise alone has moved one sample
across it (2.98× on unchanged queue code), so two more best-of samples
are taken and the floor judges the median of the three.  Every sample's
ratio is recorded.

The cyclic garbage collector is disabled inside the timed sections
(restored afterwards): with 10⁶ live events the collector repeatedly
scans millions of reachable objects, and that scan time is proportional
to population size, not queue algorithm — leaving it on measures the GC,
not the queues.

The same run also measures the per-object memory story of the slotted
:class:`Event`/:class:`Job` classes against the columnar
:class:`~repro.batch.jobtable.JobTable` (tracemalloc resident bytes per
instance), and everything is published as ``BENCH_kernel.json`` at the
repository root through the deterministic bench writer.

Environment
-----------
``REPRO_BENCH_KERNEL_EVENTS``
    Comma-separated list of event counts replacing the default
    ``100000,1000000`` scales (CI smoke uses a small value; the speedup
    floor is only asserted at scales ≥ 10⁶).
"""

from __future__ import annotations

import math
import random
import statistics
import time
import tracemalloc

from perfutil import env_scales, gc_disabled, publish_report, speedup as wall_speedup

from repro.batch.job import Job
from repro.batch.jobtable import JobTable
from repro.sim.events import Event

from oracles.queues import QUEUES

#: Scheduled-event counts measured by default.
DEFAULT_SCALES = (100_000, 1_000_000)
#: Required heap/calendar drain (event-loop) wall-clock ratio ...
MIN_SPEEDUP = 3.0
#: ... asserted only at scales at least this large.
SPEEDUP_FLOOR_SCALE = 1_000_000
#: Timed repetitions per queue and scale (best-of, against noisy runners).
REPETITIONS = 2
#: A first ratio within this share of the floor is inside the noise ...
NOISE_BAND = 0.05
#: ... and the floor then judges the median of this many best-of samples.
SAMPLES_NEAR_FLOOR = 3
#: Event count of the (untimed) firing-order differential sanity check.
DIFFERENTIAL_EVENTS = 20_000
#: Instances allocated for the per-object memory measurements.
MEMORY_OBJECTS = 1_000_000

BENCH_SEED = 19880200


def scales() -> tuple:
    return env_scales("REPRO_BENCH_KERNEL_EVENTS", DEFAULT_SCALES)


def event_times(n: int) -> list:
    """SWF-shaped schedule: integer seconds, uniform over an ~n s span."""
    rng = random.Random(BENCH_SEED)
    randrange = rng.randrange
    return [float(randrange(n)) for _ in range(n)]


def _noop() -> None:
    return None


def run_fill_drain(queue_kind: str, times: list) -> tuple:
    """Schedule every time, then drain to exhaustion.

    Returns ``(fill_s, drain_s, fired, now)``.  GC is off for both timed
    sections (see the module docstring) and restored before returning.
    """
    kernel = QUEUES[queue_kind]()
    schedule_at = kernel.schedule_at
    with gc_disabled():
        started = time.perf_counter()
        for t in times:
            schedule_at(t, _noop)
        filled = time.perf_counter()
        kernel.run()
        drained = time.perf_counter()
    return filled - started, drained - filled, kernel.fired_events, kernel.now


def best_of_fill_drain(times: list) -> dict:
    """One best-of sample: ``{kind: (fill_s, drain_s)}`` over ``REPETITIONS`` runs."""
    best = {"heap": [math.inf, math.inf], "calendar": [math.inf, math.inf]}
    fired_now = {}
    for _ in range(REPETITIONS):
        for kind in ("heap", "calendar"):
            fill_s, drain_s, fired, now = run_fill_drain(kind, times)
            best[kind][0] = min(best[kind][0], fill_s)
            best[kind][1] = min(best[kind][1], drain_s)
            fired_now[kind] = (fired, now)
    assert fired_now["heap"] == fired_now["calendar"]
    assert fired_now["heap"][0] == len(times)
    return best


def near_floor(speedup: float) -> bool:
    """Whether one sample's ratio is too close to the floor to judge alone."""
    return abs(speedup - MIN_SPEEDUP) <= NOISE_BAND * MIN_SPEEDUP


def firing_order_digest(queue_kind: str, times: list) -> list:
    """Exact (label, now) firing log of a kernel over the given schedule."""
    kernel = QUEUES[queue_kind]()
    log = []

    def fire(label):
        log.append((label, kernel.now))

    for label, t in enumerate(times):
        kernel.schedule_at(t, fire, label)
    kernel.run()
    return log


def measure_object_bytes(n: int) -> dict:
    """Tracemalloc resident bytes per slotted Job/Event and per table row."""
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    jobs = [
        Job(job_id=i, submit_time=float(i), procs=1, runtime=1.0, walltime=2.0)
        for i in range(n)
    ]
    job_bytes = (tracemalloc.get_traced_memory()[0] - base) / n
    del jobs

    base = tracemalloc.get_traced_memory()[0]
    events = [
        Event(time=float(i), priority=0, sequence=i, callback=_noop)
        for i in range(n)
    ]
    event_bytes = (tracemalloc.get_traced_memory()[0] - base) / n
    del events
    tracemalloc.stop()

    table = JobTable(capacity=n)
    append = table.append
    for i in range(n):
        append(i, float(i), 1, 1.0, 2.0, site="bench")
    table_bytes = table.nbytes() / n

    return {
        "objects": n,
        "job_object_bytes": round(job_bytes, 1),
        "event_object_bytes": round(event_bytes, 1),
        "jobtable_bytes_per_row": round(table_bytes, 1),
    }


def test_kernel_queue_speedup():
    report = {
        "min_speedup": MIN_SPEEDUP,
        "speedup_floor_scale": SPEEDUP_FLOOR_SCALE,
        "seed": BENCH_SEED,
        "scales": {},
    }

    bench_scales = scales()
    for n in bench_scales:
        times = event_times(n)
        best = best_of_fill_drain(times)
        heap_fill, heap_drain = best["heap"]
        cal_fill, cal_drain = best["calendar"]
        samples = [wall_speedup(heap_drain, cal_drain)]
        if n >= SPEEDUP_FLOOR_SCALE and near_floor(samples[0]):
            for _ in range(SAMPLES_NEAR_FLOOR - 1):
                more = best_of_fill_drain(times)
                samples.append(wall_speedup(more["heap"][1], more["calendar"][1]))
        speedup = statistics.median(samples)
        report["scales"][str(n)] = {
            "heap_fill_s": round(heap_fill, 4),
            "heap_drain_s": round(heap_drain, 4),
            "calendar_fill_s": round(cal_fill, 4),
            "calendar_drain_s": round(cal_drain, 4),
            "heap_events_per_s": int(n / heap_drain),
            "calendar_events_per_s": int(n / cal_drain),
            "heap_schedules_per_s": int(n / heap_fill),
            "calendar_schedules_per_s": int(n / cal_fill),
            "drain_speedup": round(speedup, 2),
            "drain_speedup_samples": [round(sample, 2) for sample in samples],
        }
        print(
            f"\n{n} events: heap fill {heap_fill:.2f}s drain {heap_drain:.2f}s "
            f"({int(n / heap_drain)}/s), calendar fill {cal_fill:.2f}s "
            f"drain {cal_drain:.2f}s ({int(n / cal_drain)}/s), "
            f"drain speedup {speedup:.2f}x (samples "
            f"{', '.join(f'{sample:.2f}' for sample in samples)})"
        )

    # Untimed differential sanity: identical firing order, tie-for-tie.
    diff_n = min(DIFFERENTIAL_EVENTS, max(bench_scales))
    diff_times = event_times(diff_n)
    assert firing_order_digest("heap", diff_times) == firing_order_digest(
        "calendar", diff_times
    )

    memory_n = min(MEMORY_OBJECTS, max(bench_scales))
    report["memory"] = measure_object_bytes(memory_n)
    print(
        f"memory at {memory_n} objects: "
        f"job {report['memory']['job_object_bytes']}B, "
        f"event {report['memory']['event_object_bytes']}B, "
        f"table row {report['memory']['jobtable_bytes_per_row']}B"
    )
    # The columnar store must beat the (already slotted) object form.
    assert report["memory"]["jobtable_bytes_per_row"] < report["memory"]["job_object_bytes"]

    publish_report("BENCH_kernel.json", report)

    for scale_name, numbers in report["scales"].items():
        if int(scale_name) >= SPEEDUP_FLOOR_SCALE:
            assert numbers["drain_speedup"] >= MIN_SPEEDUP, (
                f"{scale_name} events: calendar event-loop speedup "
                f"{numbers['drain_speedup']}x (median of samples "
                f"{numbers['drain_speedup_samples']}) below the {MIN_SPEEDUP}x "
                f"acceptance floor"
            )


def test_only_ratios_near_the_floor_take_more_samples():
    assert near_floor(2.98) and near_floor(3.15) and near_floor(2.85)
    assert not near_floor(2.5) and not near_floor(3.72)
