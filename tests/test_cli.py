"""Tests for the `repro` command-line interface (campaign presets, store gc)."""

from __future__ import annotations

import json
import zipfile

import pytest

from repro.__main__ import _default_worker_counts, main
from repro.experiments.campaign import CAMPAIGN_NAMES, campaign_configs, execute_config
from repro.experiments.config import ExperimentConfig, full_trace_target_jobs
from repro.store import ResultStore, config_key
from repro.workload.scenarios import SCENARIO_NAMES, get_scenario

TARGET = 15  # tiny traces keep the CLI tests fast


class TestFullTracePreset:
    def test_preset_reports_wall_clock_per_worker_count(self, tmp_path, capsys):
        code = main([
            "campaign", "run", "--preset", "full-trace",
            "--target-jobs", str(TARGET), "--worker-counts", "1",
            "--algorithm", "standard", "--platform", "homogeneous",
            "--store", str(tmp_path / "store"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "full-trace preset" in out
        assert "workers=1:" in out and "wall-clock" in out
        assert "best: workers=1" in out

    def test_preset_defaults_to_full_trace_volume(self):
        expected = max(get_scenario(name).total_jobs for name in SCENARIO_NAMES)
        assert full_trace_target_jobs() == expected

    def test_preset_rejects_non_positive_worker_counts(self, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "campaign", "run", "--preset", "full-trace",
                "--target-jobs", str(TARGET), "--worker-counts", "0",
                "--store", str(tmp_path / "store"),
            ])

    def test_default_worker_counts_are_positive_powers_of_two(self):
        counts = _default_worker_counts()
        assert counts[0] == 1
        assert all(b == 2 * a for a, b in zip(counts, counts[1:]))

    def test_preset_honours_workers_as_single_count(self, tmp_path, capsys):
        code = main([
            "campaign", "run", "--preset", "full-trace",
            "--target-jobs", str(TARGET), "--workers", "1",
            "--algorithm", "standard", "--platform", "homogeneous",
            "--store", str(tmp_path / "store"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "worker counts [1]" in out

    def test_preset_rejects_workers_with_worker_counts(self, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "campaign", "run", "--preset", "full-trace",
                "--target-jobs", str(TARGET), "--workers", "2",
                "--worker-counts", "1", "--store", str(tmp_path / "store"),
            ])


class TestStoreGc:
    @pytest.fixture()
    def warm_store(self, tmp_path):
        """Store warmed with the standard/homogeneous sweep at TARGET jobs."""
        store_dir = tmp_path / "store"
        code = main([
            "campaign", "run", "--algorithm", "standard",
            "--platform", "homogeneous", "--target-jobs", str(TARGET),
            "--store", str(store_dir),
        ])
        assert code == 0
        return store_dir

    def test_gc_keeps_matching_campaign(self, warm_store, capsys):
        code = main([
            "store", "gc", "--campaign", "standard-homogeneous",
            "--target-jobs", str(TARGET), "--store", str(warm_store),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 removed" in out
        store = ResultStore(warm_store)
        assert len(store) > 0

    def test_gc_dry_run_removes_nothing(self, warm_store, capsys):
        before = len(ResultStore(warm_store))
        code = main([
            "store", "gc", "--campaign", "cancellation-heterogeneous",
            "--target-jobs", str(TARGET), "--store", str(warm_store), "--dry-run",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "would remove" in out
        assert len(ResultStore(warm_store)) == before

    def test_gc_drops_foreign_documents_but_keeps_shared_baselines(self, warm_store):
        store = ResultStore(warm_store)
        before = len(store)
        code = main([
            "store", "gc", "--campaign", "cancellation-homogeneous",
            "--target-jobs", str(TARGET), "--store", str(warm_store),
        ])
        assert code == 0
        # The realloc runs and metrics of the standard sweep are gone, but
        # the baselines (shared between the two algorithms on the same
        # platform flavour) survive.
        remaining = len(ResultStore(warm_store))
        baselines = [c for c in campaign_configs(
            "cancellation-homogeneous", target_jobs=TARGET) if c.is_baseline]
        assert remaining == len(baselines)
        assert remaining < before

    def test_legacy_engine_document_loads_and_survives_gc(self, tmp_path, capsys):
        # Earlier versions could record ``"profile_engine": "list"`` in a
        # document's config; the engines are float-identical, so such a
        # document must still load and must not be collected.
        config = campaign_configs("standard-homogeneous", target_jobs=TARGET)[0]
        store = ResultStore(tmp_path / "store")
        path = store.put_result(config, execute_config(config))
        assert path.suffix == ".npz"
        with zipfile.ZipFile(path) as archive:
            members = [(info, archive.read(info)) for info in archive.infolist()]
        rewritten = path.with_suffix(".tmp")
        with zipfile.ZipFile(rewritten, "w") as archive:
            for info, data in members:
                if info.filename == "header.json":
                    header = json.loads(data)
                    header["config"]["profile_engine"] = "list"
                    data = json.dumps(header, separators=(",", ":")).encode("utf-8")
                archive.writestr(info, data)
        rewritten.replace(path)

        code = main([
            "store", "gc", "--campaign", "standard-homogeneous",
            "--target-jobs", str(TARGET), "--store", str(store.root),
        ])
        assert code == 0
        assert "1 documents kept, 0 removed" in capsys.readouterr().out
        with zipfile.ZipFile(path) as archive:
            header = json.loads(archive.read("header.json"))
        assert header["config"]["profile_engine"] == "list"
        assert ExperimentConfig.from_dict(header["config"]) == config
        loaded = ResultStore(store.root).get_result(config)
        assert loaded is not None
        assert loaded.to_dict() == execute_config(config).to_dict()

    def test_gc_requires_explicit_target_jobs(self, warm_store):
        # Config keys depend on --target-jobs; defaulting it would silently
        # classify documents from other volumes as garbage.
        with pytest.raises(SystemExit, match="target-jobs"):
            main([
                "store", "gc", "--campaign", "standard-homogeneous",
                "--store", str(warm_store),
            ])
        assert len(ResultStore(warm_store)) > 0

    def test_gc_requires_existing_store(self, tmp_path):
        with pytest.raises(SystemExit, match="does not exist"):
            main([
                "store", "gc", "--campaign", "paper",
                "--target-jobs", str(TARGET),
                "--store", str(tmp_path / "missing"),
            ])

    def test_gc_rejects_no_store(self, warm_store):
        with pytest.raises(SystemExit):
            main([
                "store", "gc", "--campaign", "paper", "--no-store",
                "--store", str(warm_store),
            ])


class TestCampaignSweep:
    def test_list_shows_every_registered_sweep(self, capsys):
        from repro.experiments.sweeps import SWEEP_NAMES

        assert main(["campaign", "sweep", "--list"]) == 0
        out = capsys.readouterr().out
        for name in SWEEP_NAMES:
            assert name in out
        assert "cells" in out

    def test_sweep_requires_a_name_without_list(self):
        with pytest.raises(SystemExit, match="sweep name"):
            main(["campaign", "sweep"])

    def test_sweep_runs_and_prints_report(self, tmp_path, capsys):
        code = main([
            "campaign", "sweep", "threshold-grid",
            "--target-jobs", str(TARGET), "--store", str(tmp_path / "store"),
            "--top", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Sweep 'threshold-grid'" in out
        assert "Best cells (top 3):" in out
        assert "reallocation_threshold:" in out  # per-axis marginal line

    def test_sweep_ranks_on_the_requested_metric(self, tmp_path, capsys):
        code = main([
            "campaign", "sweep", "threshold-grid", "--metric", "reallocations",
            "--target-jobs", str(TARGET), "--store", str(tmp_path / "store"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Number of reallocations" in out

    def test_warm_sweep_simulates_nothing(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        args = ["campaign", "sweep", "threshold-grid",
                "--target-jobs", str(TARGET), "--store", store]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        err = capsys.readouterr().err
        assert "cells, 0 simulated" in err

    def test_sweep_without_store_uses_in_memory_engine(self, capsys):
        code = main([
            "campaign", "sweep", "threshold-grid",
            "--target-jobs", str(TARGET), "--no-store",
        ])
        assert code == 0
        assert "Sweep 'threshold-grid'" in capsys.readouterr().out


class TestCampaignWorker:
    def test_worker_drains_a_sweep(self, tmp_path, capsys):
        code = main([
            "campaign", "worker", "--sweep", "threshold-grid",
            "--target-jobs", str(TARGET), "--store", str(tmp_path / "store"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "drained sweep threshold-grid" in out
        store = ResultStore(tmp_path / "store")
        assert len(store) > 0

    def test_worker_then_sweep_report_without_resimulation(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["campaign", "worker", "--sweep", "threshold-grid",
                     "--target-jobs", str(TARGET), "--store", store]) == 0
        capsys.readouterr()
        assert main(["campaign", "sweep", "threshold-grid",
                     "--target-jobs", str(TARGET), "--store", store]) == 0
        captured = capsys.readouterr()
        assert "Sweep 'threshold-grid'" in captured.out
        assert "cells, 0 simulated" in captured.err

    def test_worker_rejects_no_store(self):
        with pytest.raises(SystemExit, match="store"):
            main(["campaign", "worker", "--sweep", "threshold-grid", "--no-store"])

    def test_worker_rejects_fresh(self, tmp_path):
        with pytest.raises(SystemExit, match="fresh"):
            main(["campaign", "worker", "--sweep", "threshold-grid", "--fresh",
                  "--store", str(tmp_path / "store")])

    def test_worker_rejects_workers_flag(self, tmp_path):
        with pytest.raises(SystemExit, match="single-process"):
            main(["campaign", "worker", "--sweep", "threshold-grid",
                  "--workers", "2", "--store", str(tmp_path / "store")])


class TestCampaignStatus:
    def test_status_of_an_untouched_sweep_is_all_pending(self, tmp_path, capsys):
        code = main([
            "campaign", "status", "--sweep", "threshold-grid",
            "--target-jobs", str(TARGET), "--store", str(tmp_path / "store"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "sweep threshold-grid: 0/" in out
        assert "0 claimed" in out

    def test_status_after_a_drain_is_all_done(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["campaign", "worker", "--sweep", "threshold-grid",
                     "--target-jobs", str(TARGET), "--store", store]) == 0
        capsys.readouterr()
        assert main(["campaign", "status", "--sweep", "threshold-grid",
                     "--target-jobs", str(TARGET), "--store", store]) == 0
        out = capsys.readouterr().out
        from repro.experiments.campaign import plan_units
        from repro.experiments.sweeps import get_sweep

        count = len(plan_units(get_sweep("threshold-grid", target_jobs=TARGET).configs()))
        assert f"sweep threshold-grid: {count}/{count} done, 0 claimed, 0 pending" in out

    def test_status_lists_claims_and_flags_stale_ones(self, tmp_path, capsys):
        import os

        from repro.experiments.campaign import plan_units
        from repro.experiments.sweeps import get_sweep

        spec = get_sweep("threshold-grid", target_jobs=TARGET)
        units = plan_units(spec.configs())
        store = ResultStore(tmp_path / "store")
        assert store.try_claim(units[0], owner="host-a:1")
        assert store.try_claim(units[1], owner="host-b:2")
        lock = store.lock_path(units[1])
        old = os.stat(lock).st_mtime - 90.0
        os.utime(lock, (old, old))

        code = main([
            "campaign", "status", "--sweep", "threshold-grid",
            "--target-jobs", str(TARGET), "--store", str(tmp_path / "store"),
            "--stale-after", "60", "--claims",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 claimed" in out
        assert "claimed by host-a:1: 1 unit(s)" in out
        assert "claimed by host-b:2: 1 unit(s)" in out
        assert "stale claims (no heartbeat for 60s+): 1" in out
        assert "held by host-b:2" in out

    def test_status_rejects_no_store(self):
        with pytest.raises(SystemExit, match="store"):
            main(["campaign", "status", "--sweep", "threshold-grid", "--no-store"])


class TestCampaignConfigs:
    def test_paper_covers_all_four_groups(self):
        paper = campaign_configs("paper", target_jobs=TARGET)
        partial = campaign_configs("standard-homogeneous", target_jobs=TARGET)
        assert set(partial) <= set(paper)
        assert len(set(paper)) == len(paper)
        algorithms = {c.algorithm for c in paper}
        assert algorithms == {None, "standard", "cancellation"}

    def test_unknown_campaign_raises(self):
        with pytest.raises(ValueError):
            campaign_configs("nope")

    def test_names_are_sorted_and_complete(self):
        assert list(CAMPAIGN_NAMES) == sorted(CAMPAIGN_NAMES)
        assert "paper" in CAMPAIGN_NAMES

    def test_config_keys_depend_on_target_jobs(self):
        small = {config_key(c) for c in campaign_configs("paper", target_jobs=TARGET)}
        large = {config_key(c) for c in campaign_configs("paper", target_jobs=2 * TARGET)}
        assert small.isdisjoint(large)


class TestStatusJson:
    def test_json_snapshot_of_an_untouched_sweep(self, tmp_path, capsys):
        import json

        code = main([
            "campaign", "status", "--sweep", "threshold-grid",
            "--target-jobs", str(TARGET), "--store", str(tmp_path / "store"),
            "--json",
        ])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["sweep"] == "threshold-grid"
        assert document["done"] == 0 and document["claimed"] == 0
        assert document["pending"] == document["total"] == len(document["units"])
        assert all(unit["state"] == "pending" for unit in document["units"])
        assert document["stale_claims"] == []

    def test_json_snapshot_reports_claims_with_owner_and_age(self, tmp_path, capsys):
        import json

        from repro.experiments.campaign import plan_units
        from repro.experiments.sweeps import get_sweep

        spec = get_sweep("threshold-grid", target_jobs=TARGET)
        units = plan_units(spec.configs())
        store = ResultStore(tmp_path / "store")
        assert store.try_claim(units[0], owner="host-a:1")
        assert main([
            "campaign", "status", "--sweep", "threshold-grid",
            "--target-jobs", str(TARGET), "--store", str(tmp_path / "store"),
            "--json",
        ]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["claimed"] == 1
        claimed = [u for u in document["units"] if u["state"] == "claimed"]
        assert claimed[0]["owner"] == "host-a:1"
        assert claimed[0]["heartbeat_age"] >= 0.0
        assert claimed[0]["key"] == config_key(units[0])


class TestOutageSweepCli:
    def test_outage_grid_sweep_reports_disruptions(self, tmp_path, capsys, monkeypatch):
        # Shrink the grid to one dynamic cell family so the test stays fast.
        from repro.experiments import sweeps as sweeps_module

        tiny = sweeps_module.SweepSpec(
            name="outage-grid",
            scenarios=("feb",),
            batch_policies=("fcfs",),
            algorithms=("standard",),
            heuristics=("mct",),
            outages=("maintenance",),
            target_jobs=TARGET,
        )
        monkeypatch.setitem(sweeps_module.SWEEP_REGISTRY, "outage-grid", tiny)
        code = main([
            "campaign", "sweep", "outage-grid", "--target-jobs", str(TARGET),
            "--store", str(tmp_path / "store"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "outage-grid" in out
        assert "disruptions:" in out
        killed = int(out.split("disruptions: ")[1].split(" jobs")[0])
        assert killed > 0

    def test_static_sweeps_print_no_disruption_line(self, tmp_path, capsys):
        assert main([
            "campaign", "sweep", "threshold-grid", "--target-jobs", str(TARGET),
            "--store", str(tmp_path / "store"),
        ]) == 0
        assert "disruptions:" not in capsys.readouterr().out


class TestBenchCheck:
    @staticmethod
    def _write(tmp_path, name, payload):
        import json

        (tmp_path / name).write_text(json.dumps(payload))

    def test_all_floors_met(self, tmp_path, capsys):
        self._write(tmp_path, "BENCH_alpha.json",
                    {"min_speedup": 2.0, "speedup": 3.5})
        code = main(["bench", "check", "--root", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 regression(s)" in out
        assert "BENCH_alpha.json:speedup" in out

    def test_regression_fails(self, tmp_path, capsys):
        self._write(tmp_path, "BENCH_alpha.json",
                    {"min_speedup": 2.0, "speedup": 1.4})
        code = main(["bench", "check", "--root", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "REGRESSION" in out
        assert "1 regression(s)" in out

    def test_floor_scale_gates_small_runs(self, tmp_path, capsys):
        self._write(tmp_path, "BENCH_alpha.json", {
            "min_speedup": 3.0,
            "speedup_floor_scale": 1_000_000,
            "scales": {
                "100000": {"drain_speedup": 1.1},
                "1000000": {"drain_speedup": 4.0},
            },
        })
        code = main(["bench", "check", "--root", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "below floor scale" in out
        assert "1 enforced" in out

    def test_online_nodes_exempt(self, tmp_path, capsys):
        self._write(tmp_path, "BENCH_alpha.json", {
            "min_speedup": 3.0,
            "heuristics": {
                "mct": {"speedup": 0.9, "online": True},
                "minmin": {"speedup": 5.0, "online": False},
            },
        })
        code = main(["bench", "check", "--root", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "online variant" in out

    def test_no_floor_is_reported_not_enforced(self, tmp_path, capsys):
        self._write(tmp_path, "BENCH_alpha.json", {"speedup": 0.4})
        code = main(["bench", "check", "--root", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "no floor" in out

    def test_missing_reports_fail(self, tmp_path, capsys):
        code = main(["bench", "check", "--root", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "no BENCH_*.json reports" in err

    def test_repo_reports_pass(self, capsys):
        # The committed reports themselves must satisfy their own floors.
        code = main(["bench", "check"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 regression(s)" in out


class TestNoProfileEngineOption:
    # The availability profile picks its own storage; there is no flag.
    @pytest.mark.parametrize("command", [
        ["campaign", "status", "--sweep", "threshold-grid"],
        ["serve", "--clock", "virtual"],
    ])
    def test_flag_is_rejected(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--profile-engine", "list"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --profile-engine" in capsys.readouterr().err


class TestServiceSettings:
    @pytest.mark.parametrize("command", ["serve", "bombard"])
    @pytest.mark.parametrize("flags", [
        ["--reallocation-interval", "-1"],
        ["--reallocation-interval", "nan"],
        ["--reallocation-threshold", "inf"],
        ["--reallocation-heuristic", "bogus"],
    ])
    def test_bad_setting_exits_with_usage_error(self, command, flags):
        with pytest.raises(SystemExit, match="^repro: error: "):
            main([command, "--clock", "virtual", *flags])
