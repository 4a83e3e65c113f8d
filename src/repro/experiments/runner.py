"""Running experiments and sweeps.

The :class:`ExperimentRunner` is a thin facade over the campaign engine
(:mod:`repro.experiments.campaign`) and the persistent result store
(:mod:`repro.store`).  It keeps the historical per-process API — used by
:mod:`repro.experiments.tables`, the figures and the benchmark suite —
while delegating execution:

* single runs go through :func:`~repro.experiments.campaign.execute_config`
  with a three-level cache (in-memory dict → optional on-disk store →
  simulate);
* :meth:`ExperimentRunner.sweep` runs the whole grid as a campaign, which
  deduplicates shared baselines and can fan the independent simulations
  out over a process pool (``workers``).

The in-memory caches preserve the original behaviour: repeated ``run()``
calls return the *same* object, and the sixteen tables fed by the same 364
experiments never re-simulate them within a process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.batch.job import Job
from repro.core.metrics import ComparisonMetrics, compare_runs
from repro.core.metrics import compare_tables  # noqa: F401 - perfbench's tests read it here
from repro.core.results import RunResult
from repro.experiments.campaign import (
    execute_config,
    fresh_workload,
    run_campaign,
)
from repro.experiments.config import ExperimentConfig, SweepConfig
from repro.store import ResultStore


@dataclass(slots=True)
class SweepResult:
    """Metrics of a full sweep, indexed by (batch policy, heuristic, scenario)."""

    config: SweepConfig
    metrics: Dict[Tuple[str, str, str], ComparisonMetrics] = field(default_factory=dict)

    def get(self, batch_policy: str, heuristic: str, scenario: str) -> ComparisonMetrics:
        """Metrics of one cell of the sweep."""
        return self.metrics[(batch_policy, heuristic, scenario)]

    def cells(self) -> Dict[Tuple[str, str, str], ComparisonMetrics]:
        """All cells (copy)."""
        return dict(self.metrics)


class ExperimentRunner:
    """Executes experiment configurations with caching.

    Parameters
    ----------
    verbose:
        When true, one progress line is printed per simulated experiment
        (useful when regenerating the full table set from a terminal).
    store:
        Optional persistent result store — a :class:`ResultStore` or a
        directory path.  When given, results and metrics survive the
        process: a warm store regenerates tables with zero re-simulations.
    workers:
        Default parallelism of :meth:`sweep`.  ``None``, 0 or 1 keeps the
        historical serial behaviour; ``N > 1`` runs sweeps on a process
        pool of ``N`` workers.
    """

    def __init__(
        self,
        verbose: bool = False,
        store: Union[ResultStore, str, Path, None] = None,
        workers: Optional[int] = None,
    ) -> None:
        self.verbose = verbose
        if isinstance(store, (str, Path)):
            store = ResultStore(store)
        self.store = store
        self.workers = workers
        #: number of simulations actually executed by this runner
        self.simulated_runs = 0
        self._result_cache: Dict[ExperimentConfig, RunResult] = {}
        self._metrics_cache: Dict[ExperimentConfig, ComparisonMetrics] = {}

    # ------------------------------------------------------------------ #
    # Workload and runs                                                  #
    # ------------------------------------------------------------------ #
    def workload(self, config: ExperimentConfig) -> List[Job]:
        """Fresh copies of the trace of ``config``.

        Delegates to the campaign engine's process-local template cache,
        so the facade and the engine never generate (or hold) the same
        trace twice in one process.
        """
        return fresh_workload(config)

    def run(self, config: ExperimentConfig) -> RunResult:
        """Run one experiment (memory cache → store → simulate)."""
        cached = self._result_cache.get(config)
        if cached is not None:
            return cached
        result: Optional[RunResult] = None
        if self.store is not None:
            result = self.store.get_result(config)
        if result is None:
            result = execute_config(config)
            self.simulated_runs += 1
            if self.store is not None:
                self.store.put_result(config, result)
            if self.verbose:  # pragma: no cover - cosmetic
                print(f"[runner] {config.label()}: {len(result)} jobs, "
                      f"{result.total_reallocations} reallocations")
        self._result_cache[config] = result
        return result

    def baseline(self, config: ExperimentConfig) -> RunResult:
        """Run (or fetch) the reference experiment of ``config``."""
        return self.run(config.baseline())

    def metrics(self, config: ExperimentConfig) -> ComparisonMetrics:
        """The paper's four metrics for one reallocation configuration."""
        if config.is_baseline:
            raise ValueError("metrics() needs a reallocation configuration, not a baseline")
        cached = self._metrics_cache.get(config)
        if cached is not None:
            return cached
        metrics: Optional[ComparisonMetrics] = None
        if self.store is not None:
            metrics = self.store.get_metrics(config)
        if metrics is None:
            baseline = self.baseline(config)
            realloc = self.run(config)
            # Compare columnar: on table-backed results (simulated or
            # npz-loaded) this never materialises a per-job object.
            metrics = compare_runs(baseline, realloc)
            if self.store is not None:
                self.store.put_metrics(config, metrics)
        self._metrics_cache[config] = metrics
        return metrics

    # ------------------------------------------------------------------ #
    # Sweeps                                                             #
    # ------------------------------------------------------------------ #
    def sweep(
        self,
        sweep_config: SweepConfig,
        workers: Optional[int] = None,
        fresh: bool = False,
    ) -> SweepResult:
        """Run a full sweep (one reallocation algorithm, one platform flavour).

        The sweep executes as a campaign: shared baselines run once, known
        outcomes come from the in-memory caches or the store, and the
        remaining simulations run serially or on ``workers`` processes
        (defaulting to the runner's ``workers`` setting).  ``fresh``
        distrusts the store and re-simulates everything this runner has
        not already computed in memory, refreshing the store.
        """
        if workers is None:
            workers = self.workers
        configs = sweep_config.configs()
        progress = self._progress if self.verbose else None
        campaign = run_campaign(
            configs,
            workers=workers,
            store=self.store,
            fresh=fresh,
            known_results=self._result_cache,
            known_metrics=self._metrics_cache,
            progress=progress,
        )
        self.simulated_runs += campaign.stats.simulated
        self._result_cache.update(campaign.results)
        self._metrics_cache.update(campaign.metrics)
        result = SweepResult(config=sweep_config)
        for config in configs:
            key = (config.batch_policy, config.heuristic, config.scenario)
            result.metrics[key] = campaign.metrics[config]
        return result

    def _progress(
        self, config: ExperimentConfig, result: RunResult, source: str
    ) -> None:  # pragma: no cover - cosmetic
        print(f"[campaign] {config.label()} ({source}): {len(result)} jobs, "
              f"{result.total_reallocations} reallocations")

    # ------------------------------------------------------------------ #
    # Cache management                                                   #
    # ------------------------------------------------------------------ #
    def clear(self) -> None:
        """Drop this runner's cached results and metrics.

        The persistent store (when configured) is left untouched; use
        ``runner.store.clear()`` to wipe it as well.  Workload templates
        live in a process-wide cache shared with the campaign engine —
        call :func:`repro.experiments.campaign.clear_trace_cache` to drop
        those (it affects every runner in the process).
        """
        self._result_cache.clear()
        self._metrics_cache.clear()

    @property
    def cached_runs(self) -> int:
        """Number of simulation results currently cached in memory."""
        return len(self._result_cache)


_SHARED_RUNNER: Optional[ExperimentRunner] = None


def shared_runner() -> ExperimentRunner:
    """Process-wide runner shared by the benchmark modules."""
    global _SHARED_RUNNER
    if _SHARED_RUNNER is None:
        _SHARED_RUNNER = ExperimentRunner()
    return _SHARED_RUNNER
