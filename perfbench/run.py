"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cell-cbf-cancel --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process each

A run repeats *units* of its workload (set up, run, check) for about
``--seconds`` seconds and reports medians over them, with every time
scaled to the reference host speed of ``perfbench/calibrate.py``.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` every other unit is
traced (see ``perfbench/layers.py``) and it prints the per-layer metrics
of the traced units plus ``trace.overhead``, their wall time over that of
the untraced ones.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it, starting with ``meta``, records the machine, the source,
the inputs and the engines the program used.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

CHECKOUT = Path(__file__).resolve().parents[1]
REFERENCES = Path(__file__).resolve().with_name("references.json")

#: Default workload seed, and the holdout seed kept out of development.
DEFAULT_SEED = 1
HOLDOUT_SEED = 7919

#: Fewest units a run measures, whatever ``--seconds`` says.
MIN_UNITS = 3

#: Set-ups per untraced unit (the last one feeds the unit); ``setup_s``
#: is the median of all of them.
SETUP_REPEATS = 5

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "jobs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p999_ms": "ms",
    "peak_rss_mb": "MB",
}


def _bootstrap() -> None:
    """Make ``repro`` (from ``src/``) and ``perfbench`` importable."""
    for path in (CHECKOUT / "src", CHECKOUT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (the largest value for p99.9 of < 1000)."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]


def layer_units() -> Dict[str, str]:
    """Per-layer metric name -> unit (also the order they are printed in)."""
    from perfbench.layers import TRACED_METRICS, WORKLOAD_LAYER_METRICS

    units = {}
    for name in list(TRACED_METRICS) + list(WORKLOAD_LAYER_METRICS):
        if name.endswith("_ms"):
            units[name] = "ms"
        elif name.endswith((".s", "_s")):
            units[name] = "s"
        elif name.endswith(".bytes"):
            units[name] = "bytes"
        else:
            units[name] = "count"
    units["trace.overhead"] = "ratio"
    units["failed_share"] = "share"
    return units


# ---------------------------------------------------------------------- #
# Run metadata                                                           #
# ---------------------------------------------------------------------- #
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> Optional[str]:
    """HEAD of the checkout when it is a git work tree (read, not run)."""
    git = CHECKOUT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """SHA-256 over the program's sources (the checkout need not be git)."""
    sha = hashlib.sha256()
    root = CHECKOUT / "src"
    for path in sorted(root.rglob("*.py")):
        sha.update(str(path.relative_to(root)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def metadata() -> Dict[str, Any]:
    import numpy

    return {
        "machine": {
            "nproc": os.cpu_count(),
            "cpu": _cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------- #
# Measurement                                                            #
# ---------------------------------------------------------------------- #
def load_references() -> Dict[str, Dict[str, Any]]:
    with open(REFERENCES, encoding="utf-8") as handle:
        return json.load(handle)


def _unit(workload: Any, seed: int, traced: bool) -> Dict[str, Any]:
    """Set up, run and check one unit; never raises."""
    from perfbench import layers
    from perfbench.calibrate import timings
    from perfbench.tracer import LayerTracer

    record: Dict[str, Any] = {"traced": traced, "problems": [], "setup_s": []}
    tracer = LayerTracer() if traced else None
    state = raw = None
    gc.collect()
    record["setup_calibration_s"] = timings()
    record["calibration_s"] = list(record["setup_calibration_s"])
    clock = time.perf_counter
    try:
        try:
            if tracer is not None:
                layers.install(tracer)
            for _ in range(1 if traced else SETUP_REPEATS):
                if state is not None:
                    workload.teardown(state)
                    state = None
                started = clock()
                state = workload.setup(seed)
                record["setup_s"].append(clock() - started)
            gc.collect()
            started = clock()
            try:
                raw = workload.run(state)
            finally:
                record["wall_s"] = clock() - started
                record["calibration_s"] += timings()
        finally:
            if tracer is not None:
                tracer.restore()
        record["state"] = state
        outcome = workload.outcome(state, raw, record["wall_s"])
        record["outcome"] = outcome
        record["problems"].extend(outcome.problems)
        if tracer is not None:
            record["layers"] = layers.layer_metrics(tracer.snapshot(), outcome.extra)
    except Exception:  # a broken program is a failed unit, not a crashed run
        traceback.print_exc(file=sys.stderr)
        record["problems"].append("unit raised " + traceback.format_exc(limit=1).strip())
    finally:
        if state is not None:
            workload.teardown(state)
    return record


def measure(
    workload: Any,
    seed: int,
    seconds: float,
    trace: bool,
    references: Mapping[str, Mapping[str, Any]],
    min_units: int = MIN_UNITS,
) -> Dict[str, Any]:
    """Repeat units of ``workload`` for about ``seconds`` and check them."""
    reference = references.get(workload.name, {}).get(str(seed))
    records: List[Dict[str, Any]] = []
    report: Dict[str, Any] = {"workload": workload.name, "seed": seed}
    floor = max(min_units, 4) if trace else min_units
    first: Optional[Dict[str, Any]] = None
    try:  # imports and first-use caches are paid once per process
        workload.teardown(workload.setup(seed))
    except Exception:  # the units report it
        pass
    started = time.perf_counter()
    while True:
        cycle = time.perf_counter()
        record = _unit(workload, seed, traced=trace and len(records) % 2 == 1)
        records.append(record)
        if first is None and "outcome" in record:
            first = record
        else:
            # Keep one unit's program state for the run report; holding
            # every unit's would inflate the peak memory of the run.
            record.pop("state", None)
        now = time.perf_counter()
        if len(records) >= floor and now - started + (now - cycle) > seconds:
            break

    run_problems: List[str] = []
    if first is not None:
        report["inputs"] = workload.inputs_digest(first["state"])
        report["output"] = first["outcome"].output
        report["summary"] = first["outcome"].summary
        report["engines"] = workload.engines(first["state"])
        if reference is not None and reference.get("inputs") != report["inputs"]:
            run_problems.append("inputs differ from the reference: the generator changed")
    for record in records:
        problems = record["problems"]
        outcome = record.get("outcome")
        if outcome is not None and outcome.output != report["output"]:
            problems.append("output differs from the run's first unit")
        if reference is not None and outcome is not None:
            if outcome.output != reference.get("output"):
                problems.append("output differs from the reference")
            if outcome.summary != reference.get("summary"):
                problems.append(f"summary {outcome.summary} differs from the reference")
        problems.extend(run_problems)
    failed = [r for r in records if r["problems"]]
    for record in failed:
        print(f"unit failed: {'; '.join(record['problems'])}", file=sys.stderr)
    report["reference"] = "none" if reference is None else (
        "match" if not failed else "mismatch")
    report["records"] = records
    report["attempted"] = len(records)
    report["failed"] = len(failed)
    return report


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else math.nan


def _at_reference(record: Mapping[str, Any], seconds: float,
                  key: str = "calibration_s") -> float:
    """``seconds`` measured in ``record``'s unit, at the reference host speed.

    The unit's run is scaled by the reference timings before and after
    it; its set-ups (``key="setup_calibration_s"``), which follow the first
    timings within milliseconds, by those alone.
    """
    from perfbench.calibrate import speed

    return seconds * speed(record[key])


def faster_half(records: Sequence[Mapping[str, Any]],
                key: str = "calibration_s") -> List[Mapping[str, Any]]:
    """The records measured at or above the median host speed of ``records``.

    Scaling is linear, but the program does not slow down exactly as the
    reference work does, so a scaled time is the less accurate the
    farther its unit ran from the reference speed.
    """
    from perfbench.calibrate import speed

    if not records:
        return []
    middle = statistics.median(speed(r[key]) for r in records)
    return [r for r in records if speed(r[key]) >= middle]


def end_to_end(report: Mapping[str, Any], at_reference: bool = True) -> Dict[str, float]:
    """End-to-end metrics: medians over the faster half of the untraced units.

    Each unit's times are scaled by the host speed measured around it,
    unless ``at_reference`` is false.  Latency percentiles are taken
    per unit over the requests it served (each job of a service burst;
    the unit itself for the batch workloads), then the median over units
    is reported, so one slow unit cannot set the tail of a whole run.
    """
    scaled = _at_reference if at_reference else lambda record, seconds, key=None: seconds
    untraced = [r for r in report["records"] if not r["traced"] and "wall_s" in r]
    plain = faster_half(untraced)
    done = [r for r in plain if "outcome" in r]

    def latency_ms(record: Mapping[str, Any], fraction: float) -> float:
        sample = record["outcome"].latencies_s or [record["wall_s"]]
        return 1e3 * scaled(record, percentile(sample, fraction))

    return {
        "setup_s": _median([scaled(r, sample, "setup_calibration_s")
                            for r in faster_half(untraced, "setup_calibration_s")
                            for sample in r["setup_s"]]),
        "wall_s": _median([scaled(r, r["wall_s"]) for r in plain]),
        "jobs_per_s": _median([r["outcome"].jobs / scaled(r, r["wall_s"]) for r in done]),
        "latency_p50_ms": _median([latency_ms(r, 0.50) for r in done]),
        "latency_p999_ms": _median([latency_ms(r, 0.999) for r in done]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(report: Mapping[str, Any]) -> Dict[str, float]:
    """Per-layer metrics: medians over the run's traced units.

    Times are scaled to the reference host speed, like the end-to-end ones.
    """
    records = report["records"]
    traced = [r for r in records if r["traced"] and "layers" in r]
    plain = [r for r in records if not r["traced"] and "wall_s" in r]
    timed = {name for name, unit in layer_units().items() if unit in ("s", "ms")}
    metrics: Dict[str, float] = {}
    for name in traced[0]["layers"] if traced else ():
        metrics[name] = statistics.median(
            _at_reference(r, r["layers"][name]) if name in timed else r["layers"][name]
            for r in traced)
    metrics["trace.overhead"] = _median(
        [_at_reference(r, r["wall_s"]) for r in traced]) / _median(
        [_at_reference(r, r["wall_s"]) for r in plain])
    metrics["failed_share"] = report["failed"] / report["attempted"]
    return metrics


def result_line(report: Mapping[str, Any], metrics: Mapping[str, float],
                units: Mapping[str, str]) -> Dict[str, Any]:
    """The result object; a metric no unit could measure reads 0.

    That only happens when units failed, so ``correct`` is false then.
    """
    values = {name: metrics.get(name, math.nan) for name in units}
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value if math.isfinite(value) else 0.0, "unit": units[name]}
            for name, value in values.items()
        },
    }


# ---------------------------------------------------------------------- #
# Command line                                                           #
# ---------------------------------------------------------------------- #
def _run_all(args: argparse.Namespace, names: Sequence[str]) -> int:
    """Each workload in a fresh process; prints a table of every metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in names:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        completed = subprocess.run(command, cwd=CHECKOUT, capture_output=True,
                                   text=True, timeout=900)
        sys.stderr.write(completed.stderr)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"{name}: exited {completed.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
        rows.append((name, result))
    metric_names = list(rows[0][1]["metrics"])
    print(f"{'metric':24s} {'unit':6s} " + " ".join(f"{name:>20s}" for name, _ in rows))
    for metric in metric_names:
        unit = rows[0][1]["metrics"][metric]["unit"]
        cells = " ".join(f"{result['metrics'][metric]['value']:>20.6g}" for _, result in rows)
        print(f"{metric:24s} {unit:6s} {cells}")
    print(f"{'failed/attempted':24s} {'':6s} " + " ".join(
        f"{str(result['failed']) + '/' + str(result['attempted']):>20s}" for _, result in rows))
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all' for every workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0,
                        help="how long one run measures (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's digests as the seed's reference")
    args = parser.parse_args(argv)

    if not (CHECKOUT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {CHECKOUT / 'src'}", file=sys.stderr)
        return 2
    _bootstrap()
    from perfbench.calibrate import speed
    from perfbench.workloads import make_workloads

    workloads = make_workloads(workroot=CHECKOUT / ".perfbench-work")
    if args.workload == "all":
        return _run_all(args, list(workloads))
    if args.workload not in workloads:
        parser.error(f"--workload must be 'all' or one of {sorted(workloads)}")
    workload = workloads[args.workload]

    references = load_references()
    report = measure(workload, args.seed, args.seconds, bool(args.trace),
                     {} if args.record_reference else references)
    if args.trace:
        units, metrics = layer_units(), per_layer(report)
    else:
        units, metrics = END_TO_END_UNITS, end_to_end(report)

    for name, unit in units.items():
        print(f"{name:28s} {metrics.get(name, math.nan):.6g} {unit}")
    meta = metadata()
    meta.update({key: report.get(key) for key in (
        "workload", "seed", "inputs", "output", "summary", "engines", "reference")})
    meta.update(seconds=args.seconds, trace=args.trace,
                units=report["attempted"],
                host_speed=_median([speed(r["calibration_s"]) for r in report["records"]]),
                unit_walls_s=[record.get("wall_s") for record in report["records"]],
                calibrations_s=[record.get("calibration_s") for record in report["records"]])
    if not args.trace:
        meta["as_measured"] = end_to_end(report, at_reference=False)
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result_line(report, metrics, units)))

    if args.record_reference:
        if report["failed"]:
            print("perfbench: not recording a reference of a failed run", file=sys.stderr)
            return 1
        references.setdefault(workload.name, {})[str(args.seed)] = {
            key: report[key] for key in ("inputs", "output", "summary")
        }
        REFERENCES.write_text(json.dumps(references, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
