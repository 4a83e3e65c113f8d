"""Parallel, incremental execution of experiment campaigns.

A *campaign* is a set of :class:`~repro.experiments.config.ExperimentConfig`
cells — typically the 84 reallocation configurations of one sweep, or all
364 cells of the paper.  The engine

1. expands the set with the baseline of every reallocation configuration
   and **deduplicates** it (one sweep shares one baseline per scenario and
   batch policy; the naive expansion would re-run it six times);
2. partitions the remaining work into independent units — every
   configuration is a self-contained simulation whose workload is
   regenerated *inside* the worker from ``(scenario, flavour, scale,
   seed)``, so units ship only a small config dict across the process
   boundary;
3. skips units whose outcome is already known (caller-provided in-memory
   results, then the persistent :class:`~repro.store.ResultStore`);
4. executes the rest serially (``workers <= 1``) or on a
   ``ProcessPoolExecutor``, persisting fresh outcomes back to the store;
5. computes the paper's comparison metrics for every requested
   reallocation configuration in the parent process.

Determinism: each simulation is a single-threaded discrete-event run fully
determined by its configuration, and metrics are computed from completed
results in the parent, so a 4-worker campaign is byte-identical to the
serial path — only wall-clock time changes.

The same unit planning also drives the *distributed* execution path: with
several worker processes — or several hosts — sharing one store directory,
:func:`drain_units` lets every worker pull unclaimed configurations
through the store's advisory claim/release protocol until the sweep is
drained (see :func:`run_distributed_sweep` and ``repro campaign worker``).
"""

from __future__ import annotations

import threading
import time as _time
import zlib
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.batch.job import Job
from repro.core.metrics import ComparisonMetrics, compare_runs
from repro.core.metrics import compare_tables  # noqa: F401 - perfbench's tests read it here
from repro.core.results import RunResult
from repro.experiments.config import (
    DEFAULT_BENCH_TARGET_JOBS,
    ExperimentConfig,
)
from repro.experiments.sweeps import paper_sweep
from repro.grid.simulation import GridSimulation
from repro.platform.catalog import platform_for_scenario
from repro.platform.spec import PlatformSpec
from repro.workload.failures import apply_outage_script
from repro.store import (
    DEFAULT_STALE_LOCK_SECONDS,
    ResultStore,
    config_key,
    default_owner,
)
from repro.workload.scenarios import get_scenario

#: Named campaign groups understood by the CLI (``campaign run``,
#: ``store gc``).  Each name maps to the (algorithm, heterogeneous) sweep
#: groups it covers; ``paper`` is the full 364-cell experiment set.
CAMPAIGN_GROUPS: Dict[str, Tuple[Tuple[str, bool], ...]] = {
    "paper": (
        ("standard", False),
        ("standard", True),
        ("cancellation", False),
        ("cancellation", True),
    ),
    "standard-homogeneous": (("standard", False),),
    "standard-heterogeneous": (("standard", True),),
    "cancellation-homogeneous": (("cancellation", False),),
    "cancellation-heterogeneous": (("cancellation", True),),
}

CAMPAIGN_NAMES: Tuple[str, ...] = tuple(sorted(CAMPAIGN_GROUPS))

#: Per-process template cache of generated traces, keyed by
#: ``ExperimentConfig.workload_key()``.  Workers inherit an empty cache and
#: fill it on first use; configurations sharing a trace pay generation once
#: per process instead of once per simulation.  A campaign worker draining
#: a sweep (:func:`drain_units`) therefore pays full-trace synthesis once
#: per worker process, however many cells it claims.
_TRACE_CACHE: Dict[Tuple, List[Job]] = {}


@dataclass(slots=True)
class TraceCacheStats:
    """Counters of the process-local workload template cache."""

    #: traces synthesized from scratch in this process
    synthesized: int = 0
    #: workload requests served from an existing template
    hits: int = 0


_TRACE_STATS = TraceCacheStats()


def fresh_workload(config: ExperimentConfig) -> List[Job]:
    """Fresh copies of the trace of ``config`` (process-local template cache)."""
    key = config.workload_key()
    template = _TRACE_CACHE.get(key)
    if template is None:
        platform = platform_for_scenario(config.scenario, config.heterogeneous)
        scenario = get_scenario(config.scenario)
        template = scenario.generate(platform, scale=config.scale, seed=config.seed)
        _TRACE_CACHE[key] = template
        _TRACE_STATS.synthesized += 1
    else:
        _TRACE_STATS.hits += 1
    return [job.copy() for job in template]


def trace_cache_stats() -> TraceCacheStats:
    """Snapshot of this process's template-cache counters."""
    return TraceCacheStats(
        synthesized=_TRACE_STATS.synthesized, hits=_TRACE_STATS.hits
    )


def clear_trace_cache() -> None:
    """Drop the process-local trace templates and counters (mostly for tests)."""
    _TRACE_CACHE.clear()
    _TRACE_STATS.synthesized = 0
    _TRACE_STATS.hits = 0


def experiment_platform(config: ExperimentConfig) -> "PlatformSpec":
    """Platform of one configuration, with outage timelines attached.

    Static configurations return the paper's platform untouched; a
    configuration of the ``dynamic`` scenario family gets its outage
    script applied, with the windows placed relative to the scenario's
    *scaled* trace duration and the stochastic scripts seeded from the
    run's workload seed.
    """
    platform = platform_for_scenario(config.scenario, config.heterogeneous)
    if config.outage_script is not None:
        duration = get_scenario(config.scenario).scaled_duration(config.scale)
        platform = apply_outage_script(
            platform, config.outage_script, duration, seed=config.seed
        )
    return platform


def execute_config(
    config: ExperimentConfig, jobs: Optional[List[Job]] = None
) -> RunResult:
    """Run the single simulation described by ``config``.

    This is the one place a configuration is turned into a
    :class:`GridSimulation`; the runner facade and the pool workers both
    delegate here.  ``jobs`` may be supplied by callers that keep their own
    trace cache.
    """
    platform = experiment_platform(config)
    if jobs is None:
        jobs = fresh_workload(config)
    simulation = GridSimulation(
        platform,
        jobs,
        batch_policy=config.batch_policy,
        mapping_policy=config.mapping_policy,
        reallocation=config.algorithm,
        heuristic=config.heuristic,
        reallocation_period=config.reallocation_period,
        reallocation_threshold=config.reallocation_threshold,
        mapping_seed=config.seed,
    )
    result = simulation.run()
    result.metadata["scenario"] = config.scenario
    result.metadata["scale"] = config.scale
    if config.outage_script is not None:
        result.metadata["outage_script"] = config.outage_script
    return result


def _pool_worker(config_data: Mapping[str, Any]) -> Dict[str, Any]:
    """Executed in the worker process: simulate one configuration.

    Configs and results cross the process boundary as plain dicts — the
    same canonical form the store persists — which keeps pickling cheap and
    independent of internal class layout.
    """
    config = ExperimentConfig.from_dict(config_data)
    return execute_config(config).to_dict()


@dataclass(slots=True)
class CampaignStats:
    """Where the results of one campaign came from."""

    #: simulations actually executed during this campaign
    simulated: int = 0
    #: results served from the persistent store
    store_hits: int = 0
    #: results the caller already held in memory
    memory_hits: int = 0
    #: metrics served from the persistent store
    metrics_store_hits: int = 0

    @property
    def total(self) -> int:
        return self.simulated + self.store_hits + self.memory_hits


@dataclass(slots=True)
class CampaignResult:
    """Outcome of :func:`run_campaign`.

    ``results`` holds one :class:`RunResult` per unique unit (requested
    configurations plus deduplicated baselines); ``metrics`` one
    :class:`ComparisonMetrics` per requested reallocation configuration.
    """

    results: Dict[ExperimentConfig, RunResult] = field(default_factory=dict)
    metrics: Dict[ExperimentConfig, ComparisonMetrics] = field(default_factory=dict)
    stats: CampaignStats = field(default_factory=CampaignStats)


def campaign_configs(
    name: str, target_jobs: int = DEFAULT_BENCH_TARGET_JOBS
) -> List[ExperimentConfig]:
    """Every unit of a named campaign, baselines included.

    This is the authoritative membership list used by ``repro store gc``:
    a store document whose config is not in this list does not belong to
    the campaign.  ``target_jobs`` must match the value the campaign was
    run with — it determines the per-scenario scale factors and therefore
    the config keys.
    """
    try:
        groups = CAMPAIGN_GROUPS[name]
    except KeyError as exc:
        valid = ", ".join(CAMPAIGN_NAMES)
        raise ValueError(f"unknown campaign {name!r}; expected one of {valid}") from exc
    configs: List[ExperimentConfig] = []
    for algorithm, heterogeneous in groups:
        configs.extend(paper_sweep(algorithm, heterogeneous, target_jobs).configs())
    return plan_units(configs)


def plan_units(configs: Sequence[ExperimentConfig]) -> List[ExperimentConfig]:
    """Expand ``configs`` with their baselines and deduplicate.

    Baselines come first (stable insertion order otherwise) so a verbose
    campaign log reads naturally; order does not affect results.
    """
    ordered: Dict[ExperimentConfig, None] = {}
    for config in configs:
        if not config.is_baseline:
            ordered.setdefault(config.baseline(), None)
    for config in configs:
        ordered.setdefault(config, None)
    return list(ordered)


def run_campaign(
    configs: Sequence[ExperimentConfig],
    *,
    workers: Optional[int] = None,
    store: Optional[ResultStore] = None,
    fresh: bool = False,
    known_results: Optional[Mapping[ExperimentConfig, RunResult]] = None,
    known_metrics: Optional[Mapping[ExperimentConfig, ComparisonMetrics]] = None,
    progress: Optional[Callable[[ExperimentConfig, RunResult, str], None]] = None,
) -> CampaignResult:
    """Execute a set of experiment configurations.

    Parameters
    ----------
    configs:
        The cells to evaluate.  Baselines of reallocation configurations
        are added (and deduplicated) automatically.
    workers:
        ``None``, 0 or 1 runs everything in-process; ``N > 1`` uses a
        process pool of ``N`` workers.
    store:
        Optional persistent :class:`ResultStore`.  Known outcomes are
        loaded from it and fresh outcomes written back.
    fresh:
        Distrust the persistent store: stored results and metrics are
        ignored, every remaining unit is re-simulated and its stored
        document overwritten.  ``known_results``/``known_metrics`` are
        still honoured — they were computed in this process with the
        current code, so re-running them (e.g. the baselines shared by
        consecutive ``--fresh`` sweeps) would only repeat deterministic
        work; pass empty mappings to force a full re-simulation.
    known_results / known_metrics:
        In-memory outcomes the caller already holds (e.g. the runner's
        caches); consulted before the store.
    progress:
        Callback invoked as ``progress(config, result, source)`` with
        ``source`` in ``{"memory", "store", "simulated"}``.
    """
    campaign = CampaignResult()
    known_results = known_results or {}
    known_metrics = known_metrics or {}

    # Resolve cells whose metrics are already known up front: a fully-warm
    # campaign then never hydrates a RunResult document (at paper scale a
    # result holds up to ~133k job records; the metrics are seven numbers).
    needed: List[ExperimentConfig] = []
    for config in configs:
        if config.is_baseline:
            needed.append(config)
            continue
        if config in campaign.metrics:
            continue
        metrics = known_metrics.get(config)
        if metrics is None and store is not None and not fresh:
            metrics = store.get_metrics(config)
            if metrics is not None:
                campaign.stats.metrics_store_hits += 1
        if metrics is None:
            needed.append(config)
        else:
            campaign.metrics[config] = metrics

    units = plan_units(needed)

    def note(config: ExperimentConfig, result: RunResult, source: str) -> None:
        campaign.results[config] = result
        if progress is not None:
            progress(config, result, source)

    pending: List[ExperimentConfig] = []
    for config in units:
        cached = known_results.get(config)
        if cached is not None:
            campaign.stats.memory_hits += 1
            note(config, cached, "memory")
            continue
        if store is not None and not fresh:
            stored = store.get_result(config)
            if stored is not None:
                campaign.stats.store_hits += 1
                note(config, stored, "store")
                continue
        pending.append(config)

    if pending:
        if workers is None or workers <= 1:
            for config in pending:
                result = execute_config(config)
                campaign.stats.simulated += 1
                if store is not None:
                    store.put_result(config, result)
                note(config, result, "simulated")
        else:
            _run_pool(campaign, pending, workers, store, note)

    # Metrics are cheap to derive, so compute them in the parent where both
    # runs of every pair are guaranteed to be present.  The comparison runs
    # columnar — on table-backed results (simulated or loaded from an .npz
    # store) a warm campaign regenerates every metric without building a
    # single per-job object.
    for config in needed:
        if config.is_baseline or config in campaign.metrics:
            continue
        baseline = campaign.results[config.baseline()]
        realloc = campaign.results[config]
        metrics = compare_runs(baseline, realloc)
        if store is not None:
            store.put_metrics(config, metrics)
        campaign.metrics[config] = metrics
    return campaign


def _run_pool(
    campaign: CampaignResult,
    pending: Sequence[ExperimentConfig],
    workers: int,
    store: Optional[ResultStore],
    note: Callable[[ExperimentConfig, RunResult, str], None],
) -> None:
    """Fan ``pending`` out over a process pool and collect the results."""
    max_workers = min(workers, len(pending))
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        futures = {
            pool.submit(_pool_worker, config.to_dict()): config for config in pending
        }
        outcomes: Dict[ExperimentConfig, RunResult] = {}
        remaining = set(futures)
        while remaining:
            done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
            for future in done:
                config = futures[future]
                result = RunResult.from_dict(future.result())
                campaign.stats.simulated += 1
                if store is not None:
                    store.put_result(config, result)
                outcomes[config] = result
    # Record in plan order so verbose logs and insertion order stay
    # deterministic regardless of completion order.
    for config in pending:
        note(config, outcomes[config], "simulated")


# --------------------------------------------------------------------- #
# Distributed, lock-safe sweep execution (work stealing over the store) #
# --------------------------------------------------------------------- #
@dataclass(slots=True)
class WorkerReport:
    """What one worker did while draining a sweep."""

    owner: str
    #: labels of the units this worker simulated, in execution order
    simulated: List[str] = field(default_factory=list)
    #: units somebody else had already finished when we reached them
    store_hits: int = 0
    #: claim attempts lost to a live claim of another worker
    claim_conflicts: int = 0
    #: stale locks this worker took over
    stale_takeovers: int = 0
    #: wall-clock seconds spent draining
    wall_s: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "owner": self.owner,
            "simulated": list(self.simulated),
            "store_hits": self.store_hits,
            "claim_conflicts": self.claim_conflicts,
            "stale_takeovers": self.stale_takeovers,
            "wall_s": self.wall_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkerReport":
        return cls(
            owner=data["owner"],
            simulated=list(data["simulated"]),
            store_hits=int(data["store_hits"]),
            claim_conflicts=int(data["claim_conflicts"]),
            stale_takeovers=int(data["stale_takeovers"]),
            wall_s=float(data["wall_s"]),
        )


class _ClaimHeartbeat:
    """Keep one claim visibly alive while its owner simulates.

    A daemon thread touches the claim's lock file (via
    :meth:`ResultStore.heartbeat`) every quarter of ``stale_after``, so
    the heartbeat age other workers measure stays far below the takeover
    threshold for as long as the simulation runs.  This is what lets
    ``--stale-after`` shrink below the duration of a single simulation
    without live claims being stolen: staleness means "stopped
    heartbeating", not "claimed long ago".
    """

    def __init__(
        self, store: ResultStore, config: ExperimentConfig, stale_after: float
    ) -> None:
        self._store = store
        self._config = config
        self._interval = max(0.05, stale_after / 4.0)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._beat, name="repro-claim-heartbeat", daemon=True
        )

    def _beat(self) -> None:
        while not self._stop.wait(self._interval):
            self._store.heartbeat(self._config)

    def __enter__(self) -> "_ClaimHeartbeat":
        self._thread.start()
        return self

    def __exit__(self, *_exc: object) -> None:
        self._stop.set()
        self._thread.join()


def drain_units(
    units: Sequence[ExperimentConfig],
    store: ResultStore,
    *,
    owner: Optional[str] = None,
    stale_after: float = DEFAULT_STALE_LOCK_SECONDS,
    poll_interval: float = 0.5,
    progress: Optional[Callable[[ExperimentConfig, str], None]] = None,
) -> WorkerReport:
    """Work-stealing drain of a sweep's unit list against a shared store.

    Every participating worker — other processes on this machine, or other
    hosts pointed at the same store directory — runs this same loop over
    the same deterministic unit list:

    1. a unit whose result is already stored is done — skip it;
    2. otherwise try to **claim** it (advisory lock file, atomic create);
       the winner simulates — heartbeating the claim the whole time — then
       publishes the result and releases;
    3. a unit claimed by someone else is deferred and revisited later; if
       its claim stops heartbeating for ``stale_after`` seconds it is
       presumed dead and taken over, so a crashed worker never strands the
       sweep while a live worker's long simulation is never stolen.

    The loop returns when every unit has a stored result, which makes the
    protocol free of both duplication (claims are exclusive) and loss
    (results are published atomically before release).  Each worker starts
    at a different offset of the list — derived from its ``owner``
    identity — so concurrent workers mostly claim disjoint slices and
    steal from each other only at the end.

    ``progress`` is invoked as ``progress(config, source)`` with source in
    ``{"store", "simulated"}``.
    """
    owner = owner or default_owner()
    report = WorkerReport(owner=owner)
    started = _time.perf_counter()
    pending: List[ExperimentConfig] = list(units)
    if pending:
        offset = zlib.crc32(owner.encode("utf-8")) % len(pending)
        pending = pending[offset:] + pending[:offset]
    conflicts_before = store.stats.claim_conflicts
    takeovers_before = store.stats.stale_takeovers
    while pending:
        progressed = False
        deferred: List[ExperimentConfig] = []
        for config in pending:
            # Existence is not enough: a document from another schema
            # version reads as a miss, so the sweep would not actually be
            # drained for the report pass that follows.
            if store.result_is_current(config):
                report.store_hits += 1
                if progress is not None:
                    progress(config, "store")
                progressed = True
                continue
            if not store.try_claim(config, owner=owner, stale_after=stale_after):
                deferred.append(config)  # live claim elsewhere: revisit
                continue
            try:
                # The claim may have been won a heartbeat after the
                # previous holder published its result and released.
                if store.result_is_current(config):
                    report.store_hits += 1
                    if progress is not None:
                        progress(config, "store")
                else:
                    with _ClaimHeartbeat(store, config, stale_after):
                        result = execute_config(config)
                    store.put_result(config, result)
                    report.simulated.append(config.label())
                    if progress is not None:
                        progress(config, "simulated")
            finally:
                store.release(config)
            progressed = True
        pending = deferred
        if pending and not progressed:
            _time.sleep(poll_interval)
    report.claim_conflicts = store.stats.claim_conflicts - conflicts_before
    report.stale_takeovers = store.stats.stale_takeovers - takeovers_before
    report.wall_s = _time.perf_counter() - started
    return report


def _sweep_worker(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Executed in a worker process: drain one sweep against the store."""
    store = ResultStore(payload["store"])
    units = [ExperimentConfig.from_dict(data) for data in payload["units"]]
    report = drain_units(
        units,
        store,
        stale_after=payload["stale_after"],
        poll_interval=payload["poll_interval"],
    )
    return report.to_dict()


def run_distributed_sweep(
    configs: Sequence[ExperimentConfig],
    store: ResultStore,
    *,
    workers: Optional[int] = None,
    stale_after: float = DEFAULT_STALE_LOCK_SECONDS,
    poll_interval: float = 0.5,
    progress: Optional[Callable[[ExperimentConfig, str], None]] = None,
) -> List[WorkerReport]:
    """Drain a sweep with ``workers`` concurrent claim-loop processes.

    ``workers`` of ``None``, 0 or 1 drains in-process.  Unlike
    :func:`run_campaign`'s pool path — which partitions the pending set up
    front — every worker here runs the full work-stealing loop, so the
    same invocation cooperates transparently with workers started on other
    machines against the same store directory.  Simulation outcomes are
    deterministic per configuration, hence the store contents are
    byte-identical to a serial drain no matter how the units were split.

    ``progress`` only applies to the in-process path: pool workers are
    separate processes and callbacks cannot cross that boundary.
    """
    units = plan_units(configs)
    if workers is None or workers <= 1:
        return [
            drain_units(
                units,
                store,
                stale_after=stale_after,
                poll_interval=poll_interval,
                progress=progress,
            )
        ]
    payload = {
        "store": str(store.root),
        "units": [config.to_dict() for config in units],
        "stale_after": stale_after,
        "poll_interval": poll_interval,
    }
    count = min(workers, max(1, len(units)))
    with ProcessPoolExecutor(max_workers=count) as pool:
        futures = [pool.submit(_sweep_worker, payload) for _ in range(count)]
        return [WorkerReport.from_dict(future.result()) for future in futures]


# --------------------------------------------------------------------- #
# Cross-host progress view (read-only, lock-free)                       #
# --------------------------------------------------------------------- #
@dataclass(slots=True)
class UnitStatus:
    """Progress of one unit of a sweep, as seen from the shared store."""

    label: str
    key: str
    #: ``done`` (result stored), ``claimed`` (a worker holds the lock) or
    #: ``pending`` (nobody started it yet)
    state: str
    #: claim owner (``host:pid`` by default); only for ``claimed`` units
    owner: Optional[str] = None
    #: seconds since the claim's last heartbeat; only for ``claimed`` units
    heartbeat_age: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON representation (used by ``campaign status --json``)."""
        data: Dict[str, Any] = {"label": self.label, "key": self.key, "state": self.state}
        if self.state == "claimed":
            data["owner"] = self.owner
            data["heartbeat_age"] = self.heartbeat_age
        return data


@dataclass(slots=True)
class SweepStatus:
    """Cross-host progress of a sweep over a shared store.

    Built by :func:`sweep_status` from pure reads — result-header sniffs
    and lock-file stats — so any number of status calls can watch a fleet
    of workers without ever contending for a claim.
    """

    total: int
    done: int
    claimed: int
    pending: int
    #: threshold used to flag stale claims in :attr:`stale_claims`
    stale_after: float
    units: List[UnitStatus] = field(default_factory=list)

    @property
    def claims_by_owner(self) -> Dict[str, List[UnitStatus]]:
        """Claimed units grouped by owner, preserving unit order."""
        owners: Dict[str, List[UnitStatus]] = {}
        for unit in self.units:
            if unit.state == "claimed":
                owners.setdefault(unit.owner or "?", []).append(unit)
        return owners

    @property
    def stale_claims(self) -> List[UnitStatus]:
        """Claimed units whose last heartbeat is older than ``stale_after``."""
        return [
            unit
            for unit in self.units
            if unit.state == "claimed"
            and unit.heartbeat_age is not None
            and unit.heartbeat_age >= self.stale_after
        ]

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON snapshot for machine consumption (cross-host dashboards).

        The same lock-free reads that feed the human-readable status view,
        rendered as one document: counts, per-unit states, and the stale
        claims a worker would take over.
        """
        return {
            "total": self.total,
            "done": self.done,
            "claimed": self.claimed,
            "pending": self.pending,
            "stale_after": self.stale_after,
            "units": [unit.to_dict() for unit in self.units],
            "stale_claims": [unit.to_dict() for unit in self.stale_claims],
        }


def sweep_status(
    units: Sequence[ExperimentConfig],
    store: ResultStore,
    *,
    stale_after: float = DEFAULT_STALE_LOCK_SECONDS,
) -> SweepStatus:
    """Read-only progress view of a sweep's unit list against a store.

    For every unit: a current stored result means *done*; otherwise a
    present lock file means *claimed* (with its owner and heartbeat age);
    otherwise *pending*.  The view takes no locks and writes nothing, so
    it is safe to poll from any host while workers drain the sweep —
    exactly what ``repro campaign status`` renders.
    """
    status = SweepStatus(
        total=len(units), done=0, claimed=0, pending=0, stale_after=stale_after
    )
    for config in units:
        key = config_key(config)
        if store.result_is_current(config):
            status.done += 1
            status.units.append(UnitStatus(label=config.label(), key=key, state="done"))
            continue
        owner = store.claim_owner(config)
        if owner is not None:
            status.claimed += 1
            status.units.append(
                UnitStatus(
                    label=config.label(),
                    key=key,
                    state="claimed",
                    owner=owner,
                    heartbeat_age=store.claim_age(config),
                )
            )
        else:
            status.pending += 1
            status.units.append(
                UnitStatus(label=config.label(), key=key, state="pending")
            )
    return status
