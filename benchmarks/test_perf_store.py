"""Result-store benchmark: columnar ``.npz`` documents vs JSON.

Builds deterministic baseline/reallocation result pairs at archive scales
(10⁴–10⁶ completed jobs), stores each pair through both document formats
of :class:`repro.store.ResultStore` — the columnar ``.npz`` default and
the historical JSON documents (gzip-compressed at these sizes) — and
times the three store verbs that dominate a warm analysis session:

* **put** — serialize both results of the pair into the store;
* **get + compare** — the warm-table path: load both documents and
  compute the paper's four metrics via
  :func:`repro.core.metrics.compare_tables`.  On ``.npz`` documents this
  is a header parse plus a handful of ``np.lib.format`` column reads
  feeding the columnar comparison — no per-job object is ever built —
  while the JSON path tokenizes one dict per job before the table is
  rebuilt;
* **bytes on disk** — the result-document footprint per format
  (``.npz`` vs ``.json.gz``), read back through
  :meth:`~repro.store.ResultStore.disk_stats`.

Both formats must agree exactly before any clock is read: the metrics of
the pair are computed from both stores and compared for equality, and at
the smallest scale the round-tripped documents are compared record by
record (``to_dict`` equality), keeping JSON as the differential oracle
of the binary writer.

Timings are published as ``BENCH_store.json`` at the repository root
(uploaded as a CI artifact and enforced by ``repro bench check``): the
warm get+compare speedup carries a ``MIN_SPEEDUP`` floor and the on-disk
footprint ratio a ``BYTES_MIN_SPEEDUP`` floor, both asserted at scales ≥
``SPEEDUP_FLOOR_SCALE``.

Environment
-----------
``REPRO_BENCH_STORE_SCALES``
    Comma-separated job counts replacing the default ``10000,100000``
    (CI smoke uses a small value; the floors are only asserted at scales
    ≥ the recorded ``speedup_floor_scale``).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from perfutil import best_of, speedup as wall_speedup, env_scales, publish_report

from repro.batch.job import JobState
from repro.batch.jobtable import JobTable
from repro.core.metrics import compare_tables
from repro.core.results import RunResult
from repro.experiments.config import ExperimentConfig
from repro.store import ResultStore

#: Result sizes (completed jobs per document) measured by default.
DEFAULT_SCALES = (10_000, 100_000)
#: Required JSON/npz wall-clock ratio of the warm get+compare path ...
MIN_SPEEDUP = 3.0
#: ... and the required ``.json.gz``/``.npz`` on-disk byte ratio ...
BYTES_MIN_SPEEDUP = 2.0
#: ... both asserted only at job counts at least this large.
SPEEDUP_FLOOR_SCALE = 100_000
#: Sites/clusters of the synthetic platform (category-coded columns).
CLUSTERS = ("bordeaux", "lille", "lyon", "nancy", "rennes", "sophia")
BENCH_SEED = 20100326


def scales() -> tuple:
    return env_scales("REPRO_BENCH_STORE_SCALES", DEFAULT_SCALES)


_COMPLETED = list(JobState).index(JobState.COMPLETED)


#: Canonical walltime requests (users ask for round durations).
WALLTIME_REQUESTS = (600.0, 1_800.0, 3_600.0, 7_200.0, 14_400.0, 36_000.0, 86_400.0)


def synthetic_pair(n: int, seed: int):
    """Deterministic (baseline, realloc) results of ``n`` completed jobs.

    Mirrors the shape of a real archived SWF-replay run on a homogeneous
    platform: whole-second event times (SWF traces carry integer
    seconds), walltimes drawn from a small set of round user requests,
    power-of-two processor counts, a workload that is congested part of
    the time (zero wait otherwise), a shared static trace, and a
    reallocation run whose completion times move for roughly a fifth of
    the jobs — enough impacted rows to make the compare step
    representative.
    """
    rng = np.random.default_rng(seed)
    submit = np.sort(rng.integers(0, 864_000, n)).astype(np.float64)
    walltime = np.asarray(WALLTIME_REQUESTS)[rng.integers(0, len(WALLTIME_REQUESTS), n)]
    runtime = np.minimum(
        np.floor(walltime * rng.uniform(0.05, 1.0, n)) + 1.0, walltime
    )
    congested = rng.random(n) < 0.4
    wait = np.where(congested, rng.integers(0, 7_200, n), 0).astype(np.float64)
    static = {
        "job_id": np.arange(1, n + 1, dtype=np.int64),
        "submit_time": submit,
        "procs": 2 ** rng.integers(0, 7, n, dtype=np.int64),
        "runtime": runtime,
        "walltime": walltime,
        "site_code": np.zeros(n, dtype=np.int32),
    }

    def build(label: str, shift: np.ndarray, moves: np.ndarray) -> RunResult:
        start = submit + wait + shift
        columns = dict(static)
        columns.update(
            start_time=start,
            completion_time=start + runtime,
            state=np.full(n, _COMPLETED, dtype=np.int8),
            killed=np.zeros(n, dtype=bool),
            reallocation_count=moves,
            outage_kills=np.zeros(n, dtype=np.int32),
            cluster_code=rng.integers(0, len(CLUSTERS), n).astype(np.int32),
        )
        table = JobTable.from_columns(columns, sites=["grid5000"], clusters=list(CLUSTERS))
        return RunResult(
            label=label,
            table=table,
            total_reallocations=int(moves.sum()),
            reallocation_events=24,
        )

    baseline = build("baseline", np.zeros(n), np.zeros(n, dtype=np.int32))
    moved = rng.random(n) < 0.2
    shift = np.where(moved, rng.integers(-1_800, 1_801, n).astype(np.float64), 0.0)
    realloc = build("realloc", shift, moved.astype(np.int32))
    return baseline, realloc


def store_configs(n: int):
    """Distinct store keys for the pair at one scale."""
    baseline = ExperimentConfig(scenario="jan", seed=BENCH_SEED + n)
    realloc = ExperimentConfig(scenario="jan", seed=BENCH_SEED + n, algorithm="standard")
    return baseline, realloc


def put_pair(store, configs, results):
    for config, result in zip(configs, results):
        store.put_result(config, result)


def get_and_compare(store, configs, reallocations: int):
    baseline = store.get_result(configs[0])
    realloc = store.get_result(configs[1])
    return compare_tables(
        baseline.to_table(), realloc.to_table(), reallocations=reallocations
    )


def test_store_format_speedup():
    report = {
        "speedup_floor_scale": SPEEDUP_FLOOR_SCALE,
        "seed": BENCH_SEED,
        "scales": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-store-") as tmp:
        root = Path(tmp)
        for n in scales():
            results = synthetic_pair(n, BENCH_SEED + n)
            configs = store_configs(n)
            repetitions = 3 if n < 50_000 else 2
            entry = {"jobs": n}
            metrics = {}
            for fmt in ("npz", "json"):
                store = ResultStore(root / f"{fmt}-{n}", format=fmt)
                put_s, _ = best_of(
                    repetitions, put_pair, store, configs, results, disable_gc=True
                )
                get_s, metrics[fmt] = best_of(
                    repetitions,
                    get_and_compare,
                    store,
                    configs,
                    results[1].total_reallocations,
                    disable_gc=True,
                )
                entry[f"{fmt}_put_s"] = round(put_s, 4)
                entry[f"{fmt}_get_compare_s"] = round(get_s, 4)
                # Each store holds only its own format; sum over suffixes
                # so a smoke-scale JSON document below the gzip threshold
                # still counts.
                entry[f"{fmt}_bytes"] = sum(
                    numbers["bytes"]
                    for numbers in store.disk_stats()["results"].values()
                )
                if fmt == "npz" and n == min(scales()):
                    # Differential oracle: the binary round trip must
                    # reproduce the documents record by record.
                    assert store.get_result(configs[0]).to_dict() == results[0].to_dict()
                    assert store.get_result(configs[1]).to_dict() == results[1].to_dict()
            assert metrics["npz"] == metrics["json"], (
                f"scale {n}: npz metrics diverged from the JSON oracle"
            )
            entry["speedup"] = round(
                wall_speedup(entry["json_get_compare_s"], entry["npz_get_compare_s"]), 2
            )
            entry["min_speedup"] = MIN_SPEEDUP
            entry["bytes"] = {
                "speedup": round(
                    wall_speedup(entry["json_bytes"], entry["npz_bytes"]), 2
                ),
                "min_speedup": BYTES_MIN_SPEEDUP,
            }
            report["scales"][str(n)] = entry
            print(
                f"\n{n} jobs: npz put {entry['npz_put_s']:.3f}s / "
                f"get+compare {entry['npz_get_compare_s']:.3f}s / "
                f"{entry['npz_bytes']} B; json put {entry['json_put_s']:.3f}s / "
                f"get+compare {entry['json_get_compare_s']:.3f}s / "
                f"{entry['json_bytes']} B; speedup {entry['speedup']:.2f}x, "
                f"bytes {entry['bytes']['speedup']:.2f}x"
            )

    publish_report("BENCH_store.json", report)

    for scale_name, numbers in report["scales"].items():
        if int(scale_name) >= SPEEDUP_FLOOR_SCALE:
            assert numbers["speedup"] >= numbers["min_speedup"], (
                f"{scale_name} jobs: warm get+compare speedup "
                f"{numbers['speedup']}x below the {numbers['min_speedup']}x floor"
            )
            assert numbers["bytes"]["speedup"] >= numbers["bytes"]["min_speedup"], (
                f"{scale_name} jobs: on-disk byte ratio "
                f"{numbers['bytes']['speedup']}x below the "
                f"{numbers['bytes']['min_speedup']}x floor"
            )
