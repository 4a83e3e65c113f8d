"""Tests for the parallel campaign engine (:mod:`repro.experiments.campaign`)."""

from __future__ import annotations

import pytest

from repro.experiments.campaign import (
    clear_trace_cache,
    drain_units,
    execute_config,
    fresh_workload,
    plan_units,
    run_campaign,
    trace_cache_stats,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentRunner
from repro.store import ResultStore

SMALL_SCALE = 0.004  # ~55 jobs for the jan scenario: fast but non-trivial


def config(**overrides) -> ExperimentConfig:
    defaults = dict(
        scenario="jan",
        batch_policy="fcfs",
        algorithm="standard",
        heuristic="minmin",
        scale=SMALL_SCALE,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


@pytest.fixture(autouse=True)
def _fresh_trace_cache():
    clear_trace_cache()
    yield
    clear_trace_cache()


class TestPlanUnits:
    def test_baselines_added_and_deduplicated(self):
        configs = [config(heuristic=h) for h in ("mct", "minmin", "maxmin")]
        units = plan_units(configs)
        # one shared baseline + three reallocation cells
        assert len(units) == 4
        assert units[0].is_baseline
        assert set(units[1:]) == set(configs)

    def test_requested_configs_deduplicated(self):
        units = plan_units([config(), config()])
        assert len(units) == 2  # baseline + the single unique config

    def test_baseline_only_campaign(self):
        baseline = config(algorithm=None, heuristic="mct")
        assert plan_units([baseline]) == [baseline]

    def test_parameter_grid_shares_one_baseline(self):
        # baselines ignore the reallocation knobs, so a period/threshold
        # grid must not multiply baseline simulations
        configs = [
            config(reallocation_period=1800.0),
            config(reallocation_period=7200.0),
            config(reallocation_threshold=120.0),
        ]
        units = plan_units(configs)
        assert sum(1 for unit in units if unit.is_baseline) == 1

    def test_distinct_policies_keep_distinct_baselines(self):
        configs = [config(), config(batch_policy="cbf")]
        units = plan_units(configs)
        assert len(units) == 4
        assert sum(1 for unit in units if unit.is_baseline) == 2


class TestRunCampaign:
    def test_results_cover_units_and_metrics_cover_requests(self):
        configs = [config(heuristic=h) for h in ("mct", "minmin")]
        campaign = run_campaign(configs)
        assert set(campaign.metrics) == set(configs)
        assert set(campaign.results) == set(plan_units(configs))
        assert campaign.stats.simulated == 3

    def test_known_results_skip_execution(self):
        configs = [config()]
        first = run_campaign(configs)
        second = run_campaign(configs, known_results=first.results)
        assert second.stats.simulated == 0
        assert second.stats.memory_hits == 2

    def test_store_roundtrip_skips_execution(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        configs = [config(heuristic=h) for h in ("mct", "minmin")]
        cold = run_campaign(configs, store=store)
        assert cold.stats.simulated == 3
        warm = run_campaign(configs, store=store)
        assert warm.stats.simulated == 0
        assert warm.stats.metrics_store_hits == 2
        for cell in configs:
            assert warm.metrics[cell] == cold.metrics[cell]

    def test_warm_metrics_never_hydrate_results(self, tmp_path):
        # A fully-warm campaign must serve the (tiny) metrics documents
        # without loading any (large) RunResult document.
        store = ResultStore(tmp_path / "store")
        configs = [config(heuristic=h) for h in ("mct", "minmin")]
        run_campaign(configs, store=store)
        hits_before = store.stats.hits
        warm = run_campaign(configs, store=store)
        assert warm.stats.store_hits == 0  # no result documents read
        assert warm.results == {}
        assert store.stats.hits == hits_before + len(configs)  # metrics only

    def test_warm_store_still_serves_requested_baselines(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        cell = config()
        run_campaign([cell, cell.baseline()], store=store)
        warm = run_campaign([cell, cell.baseline()], store=store)
        assert warm.stats.simulated == 0
        assert warm.stats.store_hits == 1  # the explicitly requested baseline
        assert cell.baseline() in warm.results

    def test_fresh_ignores_but_refreshes_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        configs = [config()]
        run_campaign(configs, store=store)
        refreshed = run_campaign(configs, store=store, fresh=True)
        assert refreshed.stats.simulated == 2
        assert refreshed.stats.store_hits == 0
        assert refreshed.stats.metrics_store_hits == 0

    def test_fresh_trusts_in_process_results(self, tmp_path):
        # fresh distrusts the *store*, not outcomes computed this process:
        # the baselines shared by consecutive --fresh sweeps run once.
        store = ResultStore(tmp_path / "store")
        configs = [config()]
        first = run_campaign(configs, store=store, fresh=True)
        assert first.stats.simulated == 2
        second = run_campaign(
            configs,
            store=store,
            fresh=True,
            known_results=first.results,
            known_metrics=first.metrics,
        )
        assert second.stats.simulated == 0
        assert second.stats.store_hits == 0

    def test_execute_config_matches_runner_run(self):
        cell = config()
        direct = execute_config(cell)
        runner = ExperimentRunner()
        assert runner.run(cell).to_dict() == direct.to_dict()

    def test_progress_callback_sources(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        seen = []
        configs = [config()]
        run_campaign(
            configs, store=store, progress=lambda c, r, source: seen.append(source)
        )
        assert seen == ["simulated", "simulated"]
        # warm: metrics come straight from the store, no unit is touched
        seen.clear()
        run_campaign(
            configs, store=store, progress=lambda c, r, source: seen.append(source)
        )
        assert seen == []


class TestTraceCache:
    def test_one_synthesis_per_shared_workload(self):
        # Baseline + three heuristics + a different threshold: five
        # simulations, one workload synthesis.
        configs = [config(heuristic=h) for h in ("mct", "minmin", "maxmin")]
        configs.append(config(reallocation_threshold=0.0))
        run_campaign(configs)
        stats = trace_cache_stats()
        assert stats.synthesized == 1
        assert stats.hits == len(plan_units(configs)) - 1

    def test_distinct_workload_keys_synthesize_separately(self):
        fresh_workload(config())
        fresh_workload(config(scale=2 * SMALL_SCALE))
        fresh_workload(config(heterogeneous=True))
        assert trace_cache_stats().synthesized == 3

    def test_drain_pays_synthesis_once_per_worker_process(self, tmp_path):
        # The claim loop of a campaign worker funnels every simulation
        # through the same process-local template cache.
        store = ResultStore(tmp_path / "store")
        units = plan_units([config(heuristic=h) for h in ("mct", "minmin")])
        report = drain_units(units, store)
        assert len(report.simulated) == len(units)
        stats = trace_cache_stats()
        assert stats.synthesized == 1
        assert stats.hits == len(units) - 1

    def test_clear_resets_counters(self):
        fresh_workload(config())
        clear_trace_cache()
        stats = trace_cache_stats()
        assert (stats.synthesized, stats.hits) == (0, 0)


class TestDrainUnits:
    def test_drain_simulates_everything_once_and_releases_locks(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        units = plan_units([config(heuristic=h) for h in ("mct", "minmin")])
        report = drain_units(units, store)
        assert sorted(report.simulated) == sorted(u.label() for u in units)
        for unit in units:
            assert store.has_result(unit)
            assert store.claim_owner(unit) is None  # released

    def test_drain_matches_run_campaign_results(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        cells = [config()]
        drain_units(plan_units(cells), store)
        campaign = run_campaign(cells, store=store)
        assert campaign.stats.simulated == 0
        direct = run_campaign(cells)
        for cell in cells:
            assert campaign.metrics[cell] == direct.metrics[cell]

    def test_drain_progress_sources(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        units = plan_units([config()])
        seen = []
        drain_units(units, store, progress=lambda c, source: seen.append(source))
        assert seen == ["simulated"] * len(units)
        seen.clear()
        drain_units(units, store, progress=lambda c, source: seen.append(source))
        assert seen == ["store"] * len(units)

    def test_drain_of_empty_unit_list(self, tmp_path):
        report = drain_units([], ResultStore(tmp_path / "store"))
        assert report.simulated == []
        assert report.store_hits == 0

    def test_drain_resimulates_stale_schema_documents(self, tmp_path):
        # A worker must not count documents no reader would accept as
        # drained units (file existence is not enough).
        import json

        from repro.store import SCHEMA_VERSION

        from oracles.store import LegacyStore

        units = plan_units([config()])
        drain_units(units, LegacyStore(tmp_path / "store"))
        store = ResultStore(tmp_path / "store")
        for unit in units:
            path = store.result_path(unit)
            document = json.loads(path.read_text())
            document["schema"] = SCHEMA_VERSION + 1
            path.write_text(json.dumps(document, separators=(",", ":")))
        report = drain_units(units, store)
        assert sorted(report.simulated) == sorted(u.label() for u in units)
        for unit in units:
            assert store.result_is_current(unit)


class TestRunnerFacade:
    def test_sweep_populates_memory_cache_from_campaign(self):
        runner = ExperimentRunner()
        from repro.experiments.config import SweepConfig

        sweep = runner.sweep(
            SweepConfig(
                algorithm="standard",
                heterogeneous=False,
                scenarios=("jan",),
                batch_policies=("fcfs",),
                heuristics=("mct", "minmin"),
                target_jobs=60,
            )
        )
        assert len(sweep.metrics) == 2
        assert runner.cached_runs == 3  # 2 realloc + 1 shared baseline
        assert runner.simulated_runs == 3
        # a repeated sweep is served entirely from memory
        runner.sweep(
            SweepConfig(
                algorithm="standard",
                heterogeneous=False,
                scenarios=("jan",),
                batch_policies=("fcfs",),
                heuristics=("mct", "minmin"),
                target_jobs=60,
            )
        )
        assert runner.simulated_runs == 3

    def test_store_backed_runner_survives_process_boundary(self, tmp_path):
        cell = config()
        warm_runner = ExperimentRunner(store=tmp_path / "store")
        first = warm_runner.run(cell)
        rehydrated = ExperimentRunner(store=tmp_path / "store")
        second = rehydrated.run(cell)
        assert rehydrated.simulated_runs == 0
        assert second.to_dict() == first.to_dict()

    def test_store_backed_metrics_survive(self, tmp_path):
        cell = config()
        ExperimentRunner(store=tmp_path / "store").metrics(cell)
        rehydrated = ExperimentRunner(store=tmp_path / "store")
        metrics = rehydrated.metrics(cell)
        assert rehydrated.simulated_runs == 0
        assert 0.0 <= metrics.pct_impacted <= 100.0
