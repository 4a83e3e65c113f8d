"""Shared timing harness of the performance benchmarks.

Every ``benchmarks/test_perf_*.py`` file measures a "before" and an
"after" implementation of one hot path and asserts a wall-clock ratio.
The measurement conventions they share live here:

* **best-of-N timing** (:func:`best_of`) — each engine is run
  ``repetitions`` times and the *minimum* wall-clock is kept, which
  shrugs off the noise of shared CI runners (the minimum is the run with
  the least interference, and both engines get the same treatment);
* **GC-off timed sections** (:func:`gc_disabled`) — benchmarks holding
  large live populations disable the cyclic collector inside the timed
  region, because collector scans grow with population size, not with
  the algorithm under test;
* **env-var scale overrides** (:func:`env_scales`) — CI smoke runs
  shrink a benchmark through an environment variable while the committed
  ``BENCH_*.json`` numbers come from full-scale runs (floors are only
  asserted at or above their recorded ``speedup_floor_scale``);
* **opt-in publishing** (:func:`publish_report`) — a benchmark rewrites
  its root ``BENCH_*.json`` only under ``REPRO_BENCH_WRITE=1``, so a
  plain test run leaves the committed reports untouched.
"""

from __future__ import annotations

import gc
import math
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Tuple

from repro.analysis.benchio import dump_bench_report

#: Repository root, where the ``BENCH_*.json`` reports live.
REPO_ROOT = Path(__file__).resolve().parents[1]


@contextmanager
def gc_disabled() -> Iterator[None]:
    """Disable the cyclic garbage collector, restoring its prior state."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def best_of(
    repetitions: int,
    fn: Callable[..., Any],
    *args: Any,
    disable_gc: bool = False,
) -> Tuple[float, Any]:
    """Run ``fn(*args)`` ``repetitions`` times; return ``(best_s, result)``.

    ``best_s`` is the minimum wall-clock over the repetitions and
    ``result`` the return value of the last run (every run must be
    deterministic, so the runs are interchangeable).  ``disable_gc``
    wraps each timed run in :func:`gc_disabled`.
    """
    if repetitions <= 0:
        raise ValueError(f"repetitions must be positive, got {repetitions}")
    best_s = math.inf
    result: Any = None
    for _ in range(repetitions):
        if disable_gc:
            with gc_disabled():
                started = time.perf_counter()
                result = fn(*args)
                elapsed = time.perf_counter() - started
        else:
            started = time.perf_counter()
            result = fn(*args)
            elapsed = time.perf_counter() - started
        best_s = min(best_s, elapsed)
    return best_s, result


def env_scales(variable: str, default: Tuple[int, ...]) -> Tuple[int, ...]:
    """Benchmark scales from a comma-separated env var, or ``default``."""
    env = os.environ.get(variable)
    if env:
        return tuple(int(part) for part in env.split(","))
    return default


def speedup(slow_s: float, fast_s: float) -> float:
    """Wall-clock ratio ``slow_s / fast_s`` (``inf`` on a zero denominator)."""
    return slow_s / fast_s if fast_s > 0 else math.inf


def publish_report(name: str, report: Any) -> None:
    """Write ``report`` to ``REPO_ROOT / name`` when ``REPRO_BENCH_WRITE=1``.

    Without the variable the measurement still runs and its floors are
    still asserted; only the committed report is left alone.
    """
    if os.environ.get("REPRO_BENCH_WRITE") == "1":
        dump_bench_report(REPO_ROOT / name, report)
