"""Command-line interface of the reproduction.

Usage (installed entry point ``repro`` or ``python -m repro``)::

    # Execute (or resume) the full experiment campaign on 8 workers,
    # persisting every simulation to the on-disk store
    python -m repro campaign run --workers 8

    # Only Algorithm 1 on the homogeneous platforms
    python -m repro campaign run --algorithm standard --platform homogeneous

    # Regenerate tables (all 17, or a selection); a warm store finishes
    # with zero re-simulations
    python -m repro tables
    python -m repro tables --table 2 8 --workers 4

    # Figures and the Algorithm 1 vs Algorithm 2 comparison
    python -m repro figures
    python -m repro summary

    # Full-trace scaling preset: re-simulate the selected sweeps at the
    # paper's full trace volume for several worker counts and print the
    # wall-clock per count
    python -m repro campaign run --preset full-trace --worker-counts 1 4 8

    # Declarative parameter-grid campaigns: run a named sweep (work-
    # stealing claim loop over the store) and print its report — the
    # ranked best cells plus per-axis marginal means
    python -m repro campaign sweep --list
    python -m repro campaign sweep period-grid --workers 4

    # Long-running / multi-host execution: every host points one or more
    # workers at the same store directory; each worker claims unclaimed
    # configurations until the sweep is drained, then any host renders
    # the report from the warm store
    python -m repro campaign worker --sweep period-grid --store /mnt/shared/store
    python -m repro campaign sweep period-grid --store /mnt/shared/store

    # Watch the fleet from any host: done / claimed-by-whom / pending
    # counts plus stale-claim ages, from pure store reads (no locks taken)
    python -m repro campaign status --sweep period-grid --store /mnt/shared/store

    # Drop store documents that belong to no configuration of a campaign
    # (--target-jobs must match the value the campaign was run with)
    python -m repro store gc --campaign paper --target-jobs 300

The result store defaults to ``.repro-store`` in the current directory
(override with ``--store DIR`` or the ``REPRO_STORE`` environment
variable; disable persistence with ``--no-store``).  ``--fresh`` ignores
stored results and re-simulates everything, refreshing the store.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.benchcheck import collect_checks, failed_checks, render_checks
from repro.experiments.campaign import (
    CAMPAIGN_NAMES,
    campaign_configs,
    drain_units,
    plan_units,
    run_campaign,
    run_distributed_sweep,
    sweep_status,
)
from repro.experiments.config import (
    DEFAULT_BENCH_TARGET_JOBS,
    SweepConfig,
    full_trace_target_jobs,
)
from repro.experiments.figures import figure1_example, figure2_side_effects
from repro.experiments.report import (
    render_comparison,
    render_figure1,
    render_figure2,
    render_sweep_report,
    render_table,
)
from repro.experiments.runner import ExperimentRunner, SweepResult
from repro.experiments.sweeps import SWEEP_NAMES, SWEEP_REGISTRY, get_sweep
from repro.experiments.tables import (
    METRIC_NAMES,
    TABLE_NUMBERS,
    build_metric_table,
    build_sweep_report,
    comparison_summary,
    table_workload,
)
from repro.grid.metascheduler import MappingPolicy
from repro.platform.catalog import grid5000_platform, pwa_g5k_platform
from repro.service import (
    HTTPServiceClient,
    MetaSchedulerService,
    ServiceConfig,
    ServiceHTTP,
    bombard,
    swf_specs,
    synthetic_specs,
)
from repro.service.clock import CLOCK_MODES
from repro.store import DEFAULT_STALE_LOCK_SECONDS, ResultStore, config_key

#: table number -> (metric, algorithm, heterogeneous)
TABLE_SPECS = {number: spec for spec, number in TABLE_NUMBERS.items()}

_ALGORITHMS = {"standard": ("standard",), "cancellation": ("cancellation",),
               "both": ("standard", "cancellation")}
_PLATFORMS = {"homogeneous": (False,), "heterogeneous": (True,),
              "both": (False, True)}
_SERVICE_PLATFORMS = {"grid5000": grid5000_platform, "pwa-g5k": pwa_g5k_platform}


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--target-jobs", type=int, default=None, metavar="N",
        help="approximate jobs per scenario (default "
             f"{DEFAULT_BENCH_TARGET_JOBS}; the full-trace preset defaults "
             "to the whole trace, up to the paper's 133135 jobs)")
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="run simulations on N worker processes (default: serial)")
    parser.add_argument(
        "--store", default=os.environ.get("REPRO_STORE", ".repro-store"),
        metavar="DIR", help="persistent result store directory "
                            "(default %(default)s, or $REPRO_STORE)")
    parser.add_argument(
        "--no-store", action="store_true",
        help="disable the persistent store (everything stays in memory)")
    parser.add_argument(
        "--fresh", action="store_true",
        help="ignore stored results: re-simulate and refresh the store")
    parser.add_argument(
        "--verbose", action="store_true", help="print one line per simulation")


def _add_service_options(parser: argparse.ArgumentParser) -> None:
    """Options shared by ``serve`` and the self-hosted ``bombard`` mode."""
    parser.add_argument(
        "--platform", choices=sorted(_SERVICE_PLATFORMS), default="grid5000",
        help="platform the service schedules on (default %(default)s)")
    parser.add_argument(
        "--heterogeneous", action="store_true",
        help="use the heterogeneous flavour of the platform")
    parser.add_argument(
        "--policy", choices=("fcfs", "cbf"), default="fcfs",
        help="local scheduling policy of every cluster (default %(default)s)")
    parser.add_argument(
        "--mapping", choices=[policy.value for policy in MappingPolicy],
        default="mct", help="online mapping policy (default %(default)s)")
    parser.add_argument(
        "--clock", choices=CLOCK_MODES, default="virtual",
        help="service clock: 'virtual' drives the simulation kernel as "
             "fast as possible, 'real' follows the wall clock "
             "(default %(default)s)")
    parser.add_argument(
        "--clock-rate", type=float, default=1.0, metavar="X",
        help="simulated seconds per wall second in real-clock mode "
             "(default %(default)s)")
    parser.add_argument(
        "--heartbeat", type=float, default=0.05, metavar="S",
        help="scheduler heartbeat: one admission pass per S service-clock "
             "seconds (default %(default)s)")
    parser.add_argument(
        "--admission-batch", type=int, default=512, metavar="N",
        help="submissions mapped per admission pass (default %(default)s)")
    parser.add_argument(
        "--max-queue", type=int, default=100_000, metavar="N",
        help="hard bound of the admission queue (default %(default)s)")
    parser.add_argument(
        "--high-water", type=int, default=10_000, metavar="N",
        help="queue depth at which backpressure engages (default %(default)s)")
    parser.add_argument(
        "--backpressure", choices=("reject", "await"), default="reject",
        help="policy while backpressure is engaged: refuse submissions or "
             "make awaiting submitters wait (default %(default)s)")
    parser.add_argument(
        "--reallocation-interval", type=float, default=None, metavar="S",
        help="run a reallocation tick every S service-clock seconds "
             "(default: reallocation off)")
    parser.add_argument(
        "--reallocation-algorithm", choices=("standard", "cancellation"),
        default="standard",
        help="the paper's Algorithm 1 (tuning) or 2 (cancel-and-resubmit) "
             "(default %(default)s)")
    parser.add_argument(
        "--reallocation-heuristic", default="mct", metavar="NAME",
        help="heuristic ordering the reallocation scan: mct, minmin, "
             "maxmin, maxgain, maxrelgain, sufferage (default %(default)s)")
    parser.add_argument(
        "--reallocation-threshold", type=float, default=60.0, metavar="S",
        help="Algorithm 1 only moves a job gaining more than S seconds "
             "(default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)

    campaign = commands.add_parser(
        "campaign", help="execute experiment campaigns",
        description="Execute experiment campaigns against the result store.")
    campaign_commands = campaign.add_subparsers(dest="campaign_command", required=True)
    run = campaign_commands.add_parser(
        "run", help="run (or resume) a campaign of sweeps",
        description="Run every simulation of the selected sweeps, skipping "
                    "results already present in the store.")
    run.add_argument("--algorithm", choices=sorted(_ALGORITHMS), default="both",
                     help="reallocation algorithm(s) to sweep (default both)")
    run.add_argument("--platform", choices=sorted(_PLATFORMS), default="both",
                     help="platform flavour(s) to sweep (default both)")
    run.add_argument("--preset", choices=("full-trace",), default=None,
                     help="named campaign preset: 'full-trace' re-simulates "
                          "the selected sweeps at the paper's full trace "
                          "volume once per worker count and reports the "
                          "wall-clock of each")
    run.add_argument("--worker-counts", type=int, nargs="+", default=None,
                     metavar="N", help="worker counts swept by the full-trace "
                     "preset (default: powers of two up to the CPU count)")
    _add_common_options(run)

    sweep = campaign_commands.add_parser(
        "sweep", help="run a named declarative sweep and print its report",
        description="Expand a named declarative sweep (parameter grid), "
                    "drain it through the store's work-stealing claim loop "
                    "(cooperating with any `campaign worker` processes "
                    "pointed at the same store), and print the sweep "
                    "report: ranked best cells and per-axis marginals.")
    sweep.add_argument("name", nargs="?", choices=SWEEP_NAMES,
                       help="sweep to run (see --list)")
    sweep.add_argument("--list", action="store_true", dest="list_sweeps",
                       help="list the available sweeps and exit")
    sweep.add_argument("--metric", default="response", choices=METRIC_NAMES,
                       help="metric the report ranks on (default %(default)s)")
    sweep.add_argument("--top", type=int, default=5, metavar="K",
                       help="best cells shown by the report (default %(default)s)")
    sweep.add_argument("--stale-after", type=float,
                       default=DEFAULT_STALE_LOCK_SECONDS, metavar="S",
                       help="seconds before a claim of a dead worker is "
                            "taken over (default %(default)s)")
    sweep.add_argument("--poll", type=float, default=0.5, metavar="S",
                       help="seconds between passes over units claimed "
                            "elsewhere (default %(default)s)")
    _add_common_options(sweep)

    worker = campaign_commands.add_parser(
        "worker", help="drain one sweep as a claim-loop worker",
        description="Run one work-stealing worker: claim unclaimed "
                    "configurations of the sweep from the shared store, "
                    "simulate them, and exit when the sweep is drained. "
                    "Start any number of workers on any number of hosts "
                    "against the same store directory; no unit is "
                    "simulated twice and none is lost.")
    worker.add_argument("--sweep", required=True, choices=SWEEP_NAMES,
                        help="sweep whose units this worker drains")
    worker.add_argument("--stale-after", type=float,
                        default=DEFAULT_STALE_LOCK_SECONDS, metavar="S",
                        help="seconds before a claim of a dead worker is "
                             "taken over (default %(default)s)")
    worker.add_argument("--poll", type=float, default=0.5, metavar="S",
                        help="seconds between passes over units claimed "
                             "elsewhere (default %(default)s)")
    _add_common_options(worker)

    status = campaign_commands.add_parser(
        "status", help="cross-host progress view of one sweep",
        description="Show the progress of a sweep over a shared store: "
                    "done / claimed / pending counts, who holds which "
                    "claim, and the age of each claim's last heartbeat. "
                    "Read-only and lock-free — safe to poll from any host "
                    "while workers drain the sweep.")
    status.add_argument("--sweep", required=True, choices=SWEEP_NAMES,
                        help="sweep whose units are inspected")
    status.add_argument("--stale-after", type=float,
                        default=DEFAULT_STALE_LOCK_SECONDS, metavar="S",
                        help="heartbeat age above which a claim is flagged "
                             "stale (default %(default)s)")
    status.add_argument("--claims", action="store_true",
                        help="list every claimed unit individually")
    status.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the status snapshot as a JSON document "
                             "(for cross-host dashboards and scripts)")
    _add_common_options(status)

    store = commands.add_parser(
        "store", help="manage the persistent result store",
        description="Inspect and garbage-collect the result store.")
    store_commands = store.add_subparsers(dest="store_command", required=True)
    gc = store_commands.add_parser(
        "gc", help="drop documents not belonging to a campaign",
        description="Remove every store document whose configuration is not "
                    "a unit of the given campaign (baselines included). "
                    "--target-jobs is required and must match the value the "
                    "campaign was run with: it determines the config keys.")
    gc.add_argument("--campaign", required=True, choices=CAMPAIGN_NAMES,
                    help="campaign whose documents are kept")
    gc.add_argument("--dry-run", action="store_true",
                    help="only report what would be removed")
    _add_common_options(gc)
    stats = store_commands.add_parser(
        "stats", help="per-format document counts and bytes on disk",
        description="Report the store's documents and bytes on disk, broken "
                    "down by namespace (results, metrics) and format (npz, "
                    "json, json.gz) — legacy JSON documents written by "
                    "earlier versions stay inspectable next to .npz ones.")
    stats.add_argument("--as-json", action="store_true",
                       help="machine-readable output")
    _add_common_options(stats)

    tables = commands.add_parser(
        "tables", help="regenerate tables of the paper",
        description="Regenerate tables 1-17 (or a selection) of the paper.")
    tables.add_argument("--table", type=int, nargs="+", choices=range(1, 18),
                        metavar="1-17", help="tables to regenerate (default: all)")
    _add_common_options(tables)

    figures = commands.add_parser(
        "figures", help="regenerate figures of the paper",
        description="Regenerate figures 1 and 2 of the paper.")
    figures.add_argument("--figure", type=int, nargs="+", choices=(1, 2),
                         help="figures to regenerate (default: both)")

    summary = commands.add_parser(
        "summary", help="Algorithm 1 vs Algorithm 2 comparison (Section 4.3)",
        description="Compare the two reallocation algorithms over matching "
                    "homogeneous sweeps.")
    _add_common_options(summary)

    bench = commands.add_parser(
        "bench", help="inspect committed benchmark reports",
        description="Work with the committed BENCH_*.json reports.")
    bench_commands = bench.add_subparsers(dest="bench_command", required=True)
    check = bench_commands.add_parser(
        "check", help="verify recorded speedups against their floors",
        description="Load every BENCH_*.json report, pair each recorded "
                    "speedup with its min_speedup floor, and print a "
                    "one-line pass/fail table. Exits non-zero when an "
                    "enforced speedup has regressed below its floor (or "
                    "when no reports are found).")
    check.add_argument(
        "--root", default=".", metavar="DIR",
        help="directory holding the BENCH_*.json reports (default: "
             "the current directory)")

    serve = commands.add_parser(
        "serve", help="run the online metascheduler service",
        description="Run the long-running metascheduler service: an asyncio "
                    "admission loop over the batch-simulation stack, exposed "
                    "over HTTP (submit / status / cancel / health / stats). "
                    "SIGINT or SIGTERM drains the admission queue and exits.")
    serve.add_argument("--host", default="127.0.0.1",
                       help="listen address (default %(default)s)")
    serve.add_argument("--port", type=int, default=0, metavar="N",
                       help="listen port (default: ephemeral, printed at "
                            "startup)")
    _add_service_options(serve)

    bombard_parser = commands.add_parser(
        "bombard", help="open-loop load generation against a service",
        description="Bombard a metascheduler service with an open-loop "
                    "arrival stream (synthetic or SWF replay), wait for the "
                    "admission queue to drain, and report offered/sustained "
                    "throughput plus submit-latency percentiles. Targets a "
                    "running `repro serve` via --port, or self-hosts a "
                    "service in process when no port is given. Exits "
                    "non-zero when the service did not drain.")
    bombard_parser.add_argument(
        "--host", default="127.0.0.1",
        help="service address (default %(default)s)")
    bombard_parser.add_argument(
        "--port", type=int, default=None, metavar="N",
        help="service port; omit to self-host a service in process")
    bombard_parser.add_argument(
        "--jobs", type=int, default=10_000, metavar="N",
        help="submissions to inject (default %(default)s)")
    bombard_parser.add_argument(
        "--rate", type=float, default=20_000.0, metavar="R",
        help="open-loop arrival rate in jobs/s (default %(default)s)")
    bombard_parser.add_argument(
        "--source", default="synthetic", metavar="synthetic|SWF",
        help="job source: 'synthetic' or the path of an SWF log to replay "
             "(default %(default)s)")
    bombard_parser.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="seed of the synthetic source (default %(default)s)")
    bombard_parser.add_argument(
        "--max-procs", type=int, default=64, metavar="N",
        help="processor requests are capped at N (default %(default)s)")
    bombard_parser.add_argument(
        "--batch", type=int, default=128, metavar="N",
        help="jobs per HTTP batch submit (default %(default)s)")
    bombard_parser.add_argument(
        "--connections", type=int, default=1, metavar="N",
        help="keep-alive HTTP connections (default %(default)s)")
    bombard_parser.add_argument(
        "--drain-timeout", type=float, default=60.0, metavar="S",
        help="seconds to wait for the admission queue to drain after the "
             "last submission (default %(default)s)")
    bombard_parser.add_argument(
        "--json", dest="as_json", action="store_true",
        help="emit the report as a JSON document")
    _add_service_options(bombard_parser)
    return parser


def _target_jobs(args: argparse.Namespace) -> int:
    return args.target_jobs if args.target_jobs is not None else DEFAULT_BENCH_TARGET_JOBS


def _open_store(args: argparse.Namespace) -> ResultStore:
    if os.path.exists(args.store) and not os.path.isdir(args.store):
        raise SystemExit(
            f"repro: error: --store {args.store!r} exists and is not a directory"
        )
    return ResultStore(args.store)


def _make_runner(args: argparse.Namespace) -> ExperimentRunner:
    store = None if args.no_store else _open_store(args)
    return ExperimentRunner(verbose=args.verbose, store=store, workers=args.workers)


def _sweep(runner: ExperimentRunner, args: argparse.Namespace,
           algorithm: str, heterogeneous: bool,
           cache: Dict[Tuple[str, bool], SweepResult]) -> SweepResult:
    key = (algorithm, heterogeneous)
    if key not in cache:
        cache[key] = runner.sweep(
            SweepConfig(algorithm=algorithm, heterogeneous=heterogeneous,
                        target_jobs=_target_jobs(args)),
            fresh=args.fresh,
        )
    return cache[key]


def _print_stats(runner: ExperimentRunner, elapsed: float) -> None:
    line = f"campaign: {runner.simulated_runs} simulated"
    if runner.store is not None:
        stats = runner.store.stats
        line += (f", {stats.hits} store hits, {stats.writes} stored"
                 f" (store: {runner.store.root})")
    print(f"{line}, {elapsed:.1f}s elapsed", file=sys.stderr)


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    if args.preset == "full-trace":
        return _cmd_full_trace_preset(args)
    runner = _make_runner(args)
    started = time.perf_counter()
    cache: Dict[Tuple[str, bool], SweepResult] = {}
    for algorithm in _ALGORITHMS[args.algorithm]:
        for heterogeneous in _PLATFORMS[args.platform]:
            sweep = _sweep(runner, args, algorithm, heterogeneous, cache)
            flavour = "heterogeneous" if heterogeneous else "homogeneous"
            print(f"sweep {algorithm}/{flavour}: {len(sweep.metrics)} cells")
    _print_stats(runner, time.perf_counter() - started)
    return 0


def _default_worker_counts() -> List[int]:
    """Powers of two from 1 up to the machine's CPU count."""
    cpus = os.cpu_count() or 1
    counts = [1]
    while counts[-1] * 2 <= cpus:
        counts.append(counts[-1] * 2)
    return counts


def _cmd_full_trace_preset(args: argparse.Namespace) -> int:
    """Scaling sweep: re-simulate the selected sweeps once per worker count.

    Every worker count starts from a fresh runner and distrusts the store
    (``fresh``), so each measurement pays the full simulation cost and the
    wall-clock numbers are comparable.  The store (when enabled) ends up
    warm for subsequent ``tables``/``summary`` calls.
    """
    target = args.target_jobs if args.target_jobs is not None else full_trace_target_jobs()
    if args.workers is not None and args.worker_counts is not None:
        raise SystemExit(
            "repro: error: --workers and --worker-counts are mutually "
            "exclusive with --preset full-trace"
        )
    if args.worker_counts is not None:
        counts = args.worker_counts
    elif args.workers is not None:
        counts = [args.workers]
    else:
        counts = _default_worker_counts()
    if any(count <= 0 for count in counts):
        raise SystemExit("repro: error: worker counts must be positive")
    groups = [(algorithm, heterogeneous)
              for algorithm in _ALGORITHMS[args.algorithm]
              for heterogeneous in _PLATFORMS[args.platform]]
    print(f"full-trace preset: {target} jobs/scenario, {len(groups)} sweep group(s), "
          f"worker counts {counts}")
    timings: List[Tuple[int, float]] = []
    for count in counts:
        runner = _make_runner(args)
        runner.workers = count if count > 1 else None
        started = time.perf_counter()
        cells = 0
        for algorithm, heterogeneous in groups:
            sweep = runner.sweep(
                SweepConfig(algorithm=algorithm, heterogeneous=heterogeneous,
                            target_jobs=target),
                fresh=True,
            )
            cells += len(sweep.metrics)
        elapsed = time.perf_counter() - started
        timings.append((count, elapsed))
        print(f"workers={count}: {elapsed:.1f}s wall-clock "
              f"({runner.simulated_runs} simulated, {cells} cells)")
    best_count, best_elapsed = min(timings, key=lambda pair: pair[1])
    print(f"best: workers={best_count} at {best_elapsed:.1f}s")
    return 0


def _cmd_campaign_sweep(args: argparse.Namespace) -> int:
    if args.list_sweeps:
        for name in SWEEP_NAMES:
            spec = SWEEP_REGISTRY[name]
            configs = spec.configs()
            units = plan_units(configs)
            print(f"{name:36s} {len(configs):4d} cells / {len(units):4d} units  "
                  f"{spec.description}")
        return 0
    if args.name is None:
        raise SystemExit("repro: error: campaign sweep needs a sweep name "
                         "(or --list to see the choices)")
    spec = get_sweep(args.name, target_jobs=args.target_jobs)
    configs = spec.configs()
    started = time.perf_counter()
    conflicts = takeovers = 0
    if args.no_store:
        # No coordination point: fall back to the in-memory campaign
        # engine (serial or process pool).
        campaign = run_campaign(configs, workers=args.workers)
        simulated = campaign.stats.simulated
    else:
        store = _open_store(args)
        if args.fresh:
            # --fresh declares the store contents void, locks of crashed
            # runs included — otherwise the drain would wait out
            # --stale-after on every orphaned claim.
            for unit in plan_units(configs):
                store.invalidate(unit)
                store.break_claim(unit)
        progress = None
        if args.verbose:  # pragma: no cover - cosmetic
            if args.workers is not None and args.workers > 1:
                # Pool workers are separate processes: per-simulation
                # callbacks cannot cross the boundary.
                print("[sweep] --verbose: per-simulation progress is only "
                      "available with --workers 1 (or via `campaign worker "
                      "--verbose` processes)", file=sys.stderr)
            else:
                progress = lambda c, source: print(  # noqa: E731
                    f"[sweep] {c.label()} ({source})", file=sys.stderr)
        reports = run_distributed_sweep(
            configs, store, workers=args.workers,
            stale_after=args.stale_after, poll_interval=args.poll,
            progress=progress,
        )
        simulated = sum(len(report.simulated) for report in reports)
        conflicts = sum(report.claim_conflicts for report in reports)
        takeovers = sum(report.stale_takeovers for report in reports)
        # Every unit now has a stored result; this pass only hydrates
        # missing metrics and never simulates.
        campaign = run_campaign(configs, store=store)
    print(render_sweep_report(
        build_sweep_report(spec, campaign.metrics, metric=args.metric),
        top=args.top,
    ))
    _print_disruptions(campaign)
    elapsed = time.perf_counter() - started
    print(f"sweep {spec.name}: {len(configs)} cells, {simulated} simulated, "
          f"{conflicts} claim conflicts, {takeovers} stale takeovers, "
          f"{elapsed:.1f}s elapsed", file=sys.stderr)
    return 0


def _print_disruptions(campaign) -> None:
    """One line of disruption accounting when any run hit an outage.

    Summed over the hydrated results of the campaign (dynamic cells
    only), so a purely static sweep prints nothing and its output stays
    byte-identical to the pre-dynamic-platform renderer.
    """
    killed = sum(r.jobs_killed_by_outage for r in campaign.results.values())
    requeued = sum(r.jobs_requeued for r in campaign.results.values())
    work_lost = sum(r.work_lost for r in campaign.results.values())
    if killed or requeued or work_lost:
        print(f"disruptions: {killed} jobs killed by outages, "
              f"{requeued} requeued, {work_lost:.0f} core-seconds lost")


def _cmd_campaign_worker(args: argparse.Namespace) -> int:
    if args.no_store:
        raise SystemExit(
            "repro: error: campaign worker coordinates through a shared "
            "store (drop --no-store)"
        )
    if args.fresh:
        raise SystemExit(
            "repro: error: campaign worker does not support --fresh; run "
            "`campaign sweep --fresh` once before starting the workers"
        )
    if args.workers is not None:
        raise SystemExit(
            "repro: error: campaign worker is single-process by design; "
            "start several `campaign worker` processes instead"
        )
    spec = get_sweep(args.sweep, target_jobs=args.target_jobs)
    store = _open_store(args)
    units = plan_units(spec.configs())
    progress = None
    if args.verbose:  # pragma: no cover - cosmetic
        progress = lambda c, source: print(  # noqa: E731
            f"[worker] {c.label()} ({source})", file=sys.stderr)
    report = drain_units(
        units, store, stale_after=args.stale_after,
        poll_interval=args.poll, progress=progress,
    )
    print(f"worker {report.owner} drained sweep {spec.name}: "
          f"{len(report.simulated)} simulated, {report.store_hits} already "
          f"stored, {report.claim_conflicts} claim conflicts, "
          f"{report.stale_takeovers} stale takeovers, {report.wall_s:.1f}s")
    return 0


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    if args.no_store:
        raise SystemExit(
            "repro: error: campaign status reads a shared store (drop --no-store)"
        )
    spec = get_sweep(args.sweep, target_jobs=args.target_jobs)
    store = _open_store(args)
    units = plan_units(spec.configs())
    status = sweep_status(units, store, stale_after=args.stale_after)
    if args.as_json:
        document = {"sweep": spec.name, "store": str(store.root)}
        document.update(status.to_dict())
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    print(f"sweep {spec.name}: {status.done}/{status.total} done, "
          f"{status.claimed} claimed, {status.pending} pending "
          f"(store: {store.root})")
    for owner, claims in sorted(status.claims_by_owner.items()):
        ages = [unit.heartbeat_age for unit in claims if unit.heartbeat_age is not None]
        oldest = f", oldest heartbeat {max(ages):.0f}s ago" if ages else ""
        print(f"  claimed by {owner}: {len(claims)} unit(s){oldest}")
        if args.claims:
            for unit in claims:
                age = (f"{unit.heartbeat_age:.0f}s"
                       if unit.heartbeat_age is not None else "?")
                print(f"    {unit.label} (heartbeat {age} ago)")
    stale = status.stale_claims
    if stale:
        print(f"  stale claims (no heartbeat for {args.stale_after:.0f}s+): "
              f"{len(stale)} — workers will take these over")
        for unit in stale:
            print(f"    {unit.label} held by {unit.owner} "
                  f"({unit.heartbeat_age:.0f}s ago)")
    return 0


def _cmd_store_gc(args: argparse.Namespace) -> int:
    if args.no_store:
        raise SystemExit("repro: error: store gc needs a store (drop --no-store)")
    if args.target_jobs is None:
        # Config keys include the per-scenario scale derived from
        # --target-jobs, so a defaulted value would silently classify every
        # document produced at another volume (e.g. a full-trace campaign)
        # as garbage.  Make the coupling explicit.
        raise SystemExit(
            "repro: error: store gc requires --target-jobs N matching the "
            "value the campaign was run with (the full-trace preset uses "
            f"{full_trace_target_jobs()}); use --dry-run to preview"
        )
    if not os.path.isdir(args.store):
        raise SystemExit(f"repro: error: store directory {args.store!r} does not exist")
    store = ResultStore(args.store)
    configs = campaign_configs(args.campaign, target_jobs=args.target_jobs)
    keep_keys = {config_key(config) for config in configs}
    kept, removed = store.gc(keep_keys, dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    print(f"store gc ({args.campaign}, {args.target_jobs} jobs/scenario): "
          f"{kept} documents kept, {removed} {verb} (store: {store.root})")
    return 0


def _cmd_store_stats(args: argparse.Namespace) -> int:
    if args.no_store:
        raise SystemExit("repro: error: store stats needs a store (drop --no-store)")
    store = _open_store(args)
    breakdown = store.disk_stats()
    if args.as_json:
        document = {"store": str(store.root), "namespaces": breakdown}
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    total_documents = 0
    total_bytes = 0
    print(f"store {store.root}:")
    for namespace in ("results", "metrics"):
        per_format = breakdown.get(namespace, {})
        documents = sum(entry["documents"] for entry in per_format.values())
        size = sum(entry["bytes"] for entry in per_format.values())
        total_documents += documents
        total_bytes += size
        print(f"  {namespace}: {documents} document(s), {size} bytes")
        for suffix in ("npz", "json", "json.gz"):
            entry = per_format.get(suffix)
            if entry is not None:
                print(f"    {suffix}: {entry['documents']} document(s), "
                      f"{entry['bytes']} bytes")
    print(f"  total: {total_documents} document(s), {total_bytes} bytes")
    return 0


def _cmd_bench_check(args: argparse.Namespace) -> int:
    try:
        checks = collect_checks(args.root)
    except (FileNotFoundError, ValueError) as exc:
        print(f"repro bench check: {exc}", file=sys.stderr)
        return 1
    print(render_checks(checks))
    return 1 if failed_checks(checks) else 0


def _cmd_tables(args: argparse.Namespace) -> int:
    numbers: List[int] = sorted(set(args.table)) if args.table else list(range(1, 18))
    runner = _make_runner(args)
    started = time.perf_counter()
    cache: Dict[Tuple[str, bool], SweepResult] = {}
    for number in numbers:
        if number == 1:
            print(render_table(table_workload(target_jobs=_target_jobs(args)), decimals=0))
        else:
            metric, algorithm, heterogeneous = TABLE_SPECS[number]
            sweep = _sweep(runner, args, algorithm, heterogeneous, cache)
            decimals = 0 if metric == "reallocations" else 2
            print(render_table(build_metric_table(sweep, metric), decimals=decimals))
        print()
    _print_stats(runner, time.perf_counter() - started)
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    numbers = sorted(set(args.figure)) if args.figure else [1, 2]
    for number in numbers:
        if number == 1:
            print(render_figure1(figure1_example()))
        else:
            print(render_figure2(figure2_side_effects()))
        print()
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    runner = _make_runner(args)
    started = time.perf_counter()
    cache: Dict[Tuple[str, bool], SweepResult] = {}
    standard = _sweep(runner, args, "standard", False, cache)
    cancellation = _sweep(runner, args, "cancellation", False, cache)
    print(render_comparison(comparison_summary(standard, cancellation)))
    _print_stats(runner, time.perf_counter() - started)
    return 0


def _build_service(args: argparse.Namespace) -> MetaSchedulerService:
    platform = _SERVICE_PLATFORMS[args.platform](args.heterogeneous)
    try:
        config = ServiceConfig(
            heartbeat=args.heartbeat,
            admission_batch=args.admission_batch,
            max_queue=args.max_queue,
            high_water=min(args.high_water, args.max_queue),
            backpressure=args.backpressure,
            reallocation_interval=args.reallocation_interval,
            reallocation_algorithm=args.reallocation_algorithm,
            reallocation_heuristic=args.reallocation_heuristic,
            reallocation_threshold=args.reallocation_threshold,
        )
        return MetaSchedulerService(
            platform,
            batch_policy=args.policy,
            mapping_policy=args.mapping,
            clock=args.clock,
            clock_rate=args.clock_rate,
            config=config,
        )
    except ValueError as exc:
        raise SystemExit(f"repro: error: {exc}")


async def _serve_async(args: argparse.Namespace) -> int:
    service = _build_service(args)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    handled = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
            handled.append(signum)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # e.g. non-main thread / platforms without signal support
    try:
        async with service:
            async with ServiceHTTP(service, args.host, args.port) as http:
                print(
                    f"serve: {service.platform.name} "
                    f"({len(service.servers)} clusters, "
                    f"{args.policy}/{args.mapping}, clock={args.clock}) "
                    f"listening on http://{http.host}:{http.port}",
                    flush=True,
                )
                await stop.wait()
                print("serve: draining admission queue", flush=True)
            # __aexit__ of the service awaits the drain.
    finally:
        for signum in handled:
            loop.remove_signal_handler(signum)
    print(
        f"serve: stopped; {service.accepted} accepted, "
        f"{service.admitted} admitted, {service.completed} completed, "
        f"{service.in_flight} still in flight"
    )
    return 0


async def _bombard_async(args: argparse.Namespace) -> int:
    if args.source == "synthetic":
        specs = synthetic_specs(seed=args.seed, max_procs=args.max_procs)
    else:
        if not os.path.exists(args.source):
            raise SystemExit(
                f"repro: error: --source must be 'synthetic' or the path "
                f"of an SWF log; {args.source!r} does not exist"
            )
        specs = swf_specs(args.source, max_procs=args.max_procs)
    service: Optional[MetaSchedulerService] = None
    if args.port is None:
        # Self-hosted: run the service (and its HTTP listener) in this
        # process and bombard it over the loopback.
        service = _build_service(args)
    try:
        if service is not None:
            async with service:
                async with ServiceHTTP(service, "127.0.0.1", 0) as http:
                    async with HTTPServiceClient(http.host, http.port) as client:
                        report = await bombard(
                            client, jobs=args.jobs, rate=args.rate,
                            specs=specs, batch=args.batch,
                            connections=args.connections,
                            drain_timeout=args.drain_timeout,
                        )
        else:
            async with HTTPServiceClient(args.host, args.port) as client:
                report = await bombard(
                    client, jobs=args.jobs, rate=args.rate,
                    specs=specs, batch=args.batch,
                    connections=args.connections,
                    drain_timeout=args.drain_timeout,
                )
    except ConnectionError as exc:
        raise SystemExit(
            f"repro: error: cannot reach the service at "
            f"{args.host}:{args.port}: {exc}"
        )
    if args.as_json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.drained and report.accepted > 0 else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    return asyncio.run(_serve_async(args))


def _cmd_bombard(args: argparse.Namespace) -> int:
    return asyncio.run(_bombard_async(args))


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "campaign":
            if args.campaign_command == "sweep":
                return _cmd_campaign_sweep(args)
            if args.campaign_command == "worker":
                return _cmd_campaign_worker(args)
            if args.campaign_command == "status":
                return _cmd_campaign_status(args)
            return _cmd_campaign_run(args)
        if args.command == "store":
            if args.store_command == "stats":
                return _cmd_store_stats(args)
            return _cmd_store_gc(args)
        if args.command == "tables":
            return _cmd_tables(args)
        if args.command == "figures":
            return _cmd_figures(args)
        if args.command == "summary":
            return _cmd_summary(args)
        if args.command == "bench":
            return _cmd_bench_check(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "bombard":
            return _cmd_bombard(args)
    except BrokenPipeError:
        # stdout was closed early (e.g. piped into `head`): exit quietly,
        # pointing the dangling descriptor at devnull so interpreter
        # shutdown does not print a second traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
