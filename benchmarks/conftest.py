"""Shared fixtures for the benchmark harness.

Every metric table of the paper is fed by one of four experiment sweeps
(Algorithm 1 / Algorithm 2  x  homogeneous / heterogeneous platforms).  The
sweeps are expensive (up to 98 simulations each), so they are cached in a
session-scoped runner: the first benchmark that needs a sweep pays for it
and the other tables of the same group reuse the cached runs.

The harness is controlled by environment variables:

* ``REPRO_BENCH_TARGET_JOBS`` — trace size (default 300 jobs per
  scenario).  The paper replays the full traces — up to 133 135 jobs —
  which is possible here too by raising the target, at a proportional
  cost in wall-clock time.
* ``REPRO_BENCH_WORKERS`` — sweep simulations run on this many worker
  processes (default 0 = serial, the historical behaviour).
* ``REPRO_BENCH_STORE`` — optional directory of a persistent
  :class:`~repro.store.ResultStore`; a warm store lets the whole table
  suite run with zero re-simulations.

The perf benchmarks measure production paths against the references in
``tests/oracles/``, so ``tests/`` goes on ``sys.path`` here: a benchmark
run on its own imports them as ``oracles`` exactly like the test suite.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from repro.experiments.config import SweepConfig
from repro.experiments.runner import ExperimentRunner

#: Approximate number of jobs generated per scenario for the benchmarks.
TARGET_JOBS = int(os.environ.get("REPRO_BENCH_TARGET_JOBS", "300"))

#: Worker processes used by the sweep campaigns (0 = serial).
WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "0"))

#: Optional persistent result store shared across benchmark sessions.
STORE_DIR = os.environ.get("REPRO_BENCH_STORE") or None


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    """Session-wide experiment runner (caches traces, runs and metrics)."""
    return ExperimentRunner(store=STORE_DIR, workers=WORKERS or None)


@pytest.fixture(scope="session")
def sweeps(runner):
    """Lazily computed sweeps, keyed by (algorithm, heterogeneous)."""
    cache = {}

    def get(algorithm: str, heterogeneous: bool):
        key = (algorithm, heterogeneous)
        if key not in cache:
            cache[key] = runner.sweep(
                SweepConfig(
                    algorithm=algorithm,
                    heterogeneous=heterogeneous,
                    target_jobs=TARGET_JOBS,
                )
            )
        return cache[key]

    return get


def run_table_bench(benchmark, sweeps, *, metric, algorithm, heterogeneous, expected_number):
    """Shared body of the sixteen metric-table benchmarks.

    The benchmarked callable runs (or fetches from cache) the sweep that
    feeds the table and assembles the table; the rendered rows are printed
    so the harness output shows the same rows the paper reports.
    """
    from repro.experiments.report import render_table
    from repro.experiments.tables import build_metric_table

    def build():
        return build_metric_table(sweeps(algorithm, heterogeneous), metric)

    table = benchmark.pedantic(build, rounds=1, iterations=1)
    print()
    print(render_table(table, decimals=0 if metric == "reallocations" else 2))

    assert table.number == expected_number
    assert len(table.rows) == 12  # 2 batch policies x 6 heuristics
    assert len(table.columns) == (7 if metric == "reallocations" else 8)
    if metric in ("impacted", "early"):
        assert all(0.0 <= v <= 100.0 for row in table.rows for v in row.values)
    if metric == "response":
        assert all(v > 0.0 for row in table.rows for v in row.values)
    if metric == "reallocations":
        assert all(v >= 0.0 for row in table.rows for v in row.values)
    return table
