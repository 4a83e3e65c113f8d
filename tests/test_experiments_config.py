"""Tests for experiment configurations and sweep definitions."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from repro.core.heuristics import HEURISTIC_NAMES
from repro.experiments.campaign import plan_units
from repro.experiments.config import (
    BATCH_POLICIES,
    DEFAULT_BENCH_TARGET_JOBS,
    ExperimentConfig,
    SweepConfig,
    bench_scale,
)
from repro.experiments.sweeps import SWEEP_REGISTRY, get_sweep
from repro.store import config_key
from repro.workload.scenarios import SCENARIO_NAMES, get_scenario


class TestBenchScale:
    def test_scale_targets_requested_job_count(self):
        for scenario in SCENARIO_NAMES:
            scale = bench_scale(scenario, target_jobs=300)
            total = get_scenario(scenario).total_jobs
            assert 0 < scale <= 1.0
            assert total * scale == pytest.approx(300, abs=1.5) or scale == 1.0

    def test_scale_capped_at_one(self):
        assert bench_scale("jun", target_jobs=10**9) == 1.0

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            bench_scale("jan", target_jobs=0)

    def test_default_target_is_moderate(self):
        assert 50 <= DEFAULT_BENCH_TARGET_JOBS <= 5000


class TestExperimentConfig:
    def test_baseline_config(self):
        config = ExperimentConfig(scenario="jan")
        assert config.is_baseline
        assert config.algorithm is None
        assert "baseline" in config.label()

    def test_reallocation_config(self):
        config = ExperimentConfig(
            scenario="apr", heterogeneous=True, batch_policy="cbf",
            algorithm="cancellation", heuristic="sufferage", scale=0.01,
        )
        assert not config.is_baseline
        assert "cancellation" in config.label()
        assert "heter" in config.label()

    def test_baseline_derivation_shares_workload_key(self):
        config = ExperimentConfig(
            scenario="may", batch_policy="cbf", algorithm="standard",
            heuristic="maxgain", scale=0.015,
        )
        baseline = config.baseline()
        assert baseline.is_baseline
        assert baseline.batch_policy == "cbf"
        assert baseline.workload_key() == config.workload_key()

    @pytest.mark.parametrize("kwargs", [
        {"scenario": "nope"},
        {"scenario": "jan", "batch_policy": "sjf"},
        {"scenario": "jan", "algorithm": "swap"},
        {"scenario": "jan", "algorithm": "standard", "heuristic": "greedy"},
        {"scenario": "jan", "scale": 0.0},
        {"scenario": "jan", "scale": 1.5},
    ])
    def test_invalid_configurations(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)

    def test_configs_are_hashable(self):
        a = ExperimentConfig(scenario="jan", scale=0.01)
        b = ExperimentConfig(scenario="jan", scale=0.01)
        assert a == b
        assert len({a, b}) == 1


class TestCanonicalForm:
    """Configurations that compare equal serialise alike, so they share a store key.

    ``plan_units`` merges equal configurations into one unit; without one
    canonical form the store would keep them under two keys.  The pinned
    digests of :class:`TestStoreKeysPinned` show the normalisation leaves
    every built-in configuration's key as it was.
    """

    @pytest.mark.parametrize("kwargs", [
        {"reallocation_period": 3600},
        {"reallocation_threshold": 60},
        {"heterogeneous": 0},
        {"seed": np.int64(20100326)},
        {"scale": np.float64(0.02)},
        {"reallocation_period": np.float32(3600.0)},
    ])
    def test_equal_configs_share_one_key(self, kwargs):
        plain = ExperimentConfig(scenario="jan", algorithm="standard")
        variant = ExperimentConfig(scenario="jan", algorithm="standard", **kwargs)
        assert variant == plain and hash(variant) == hash(plain)
        assert config_key(variant) == config_key(plain)
        assert plan_units([plain, variant]) == plan_units([plain])

    def test_negative_zero_threshold_is_zero(self):
        zero = ExperimentConfig(scenario="jan", reallocation_threshold=0.0)
        negative = ExperimentConfig(scenario="jan", reallocation_threshold=-0.0)
        assert config_key(negative) == config_key(zero)
        assert math.copysign(1.0, negative.reallocation_threshold) == 1.0

    def test_fields_take_their_canonical_types(self):
        config = ExperimentConfig(
            scenario="jan", heterogeneous=1, seed=np.int32(7), scale=1,
            reallocation_period=900, reallocation_threshold=0,
        )
        assert (type(config.heterogeneous), type(config.seed)) == (bool, int)
        assert {type(config.scale), type(config.reallocation_period),
                type(config.reallocation_threshold)} == {float}
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_a_non_integral_seed_is_rejected(self):
        with pytest.raises(TypeError):
            ExperimentConfig(scenario="jan", seed=1.5)


class TestSweepConfig:
    def test_full_sweep_size(self):
        sweep = SweepConfig(algorithm="standard", heterogeneous=False)
        configs = sweep.configs()
        # 7 scenarios x 2 policies x 6 heuristics
        assert len(configs) == 7 * 2 * 6
        assert all(c.algorithm == "standard" for c in configs)
        assert {c.batch_policy for c in configs} == set(BATCH_POLICIES)
        assert {c.heuristic for c in configs} == set(HEURISTIC_NAMES)

    def test_restricted_sweep(self):
        sweep = SweepConfig(
            algorithm="cancellation",
            heterogeneous=True,
            scenarios=("jan",),
            batch_policies=("fcfs",),
            heuristics=("mct", "minmin"),
        )
        configs = sweep.configs()
        assert len(configs) == 2
        assert all(c.heterogeneous for c in configs)

    def test_invalid_algorithm(self):
        with pytest.raises(ValueError):
            SweepConfig(algorithm="none", heterogeneous=False)

    def test_paper_experiment_count(self):
        # The paper runs 364 experiments: 336 with reallocation plus 28
        # baselines (7 scenarios x 2 platform flavours x 2 batch policies).
        total_realloc = sum(
            len(SweepConfig(algorithm=a, heterogeneous=h).configs())
            for a in ("standard", "cancellation")
            for h in (False, True)
        )
        baselines = 7 * 2 * 2
        assert total_realloc == 336
        assert total_realloc + baselines == 364


class TestLegacyProfileEngineKey:
    """Configurations no longer carry a profile engine (the profile picks its storage).

    Older versions recorded ``profile_engine`` in ``to_dict`` for an
    explicit engine request; reading such a document must still work.
    """

    def test_config_has_no_engine_field(self):
        config = ExperimentConfig(scenario="jan")
        assert "profile_engine" not in config.to_dict()
        assert not hasattr(config, "profile_engine")

    @pytest.mark.parametrize("value", ["auto", "array", "list", "linked-list", None])
    def test_from_dict_ignores_legacy_engine(self, value):
        config = ExperimentConfig(scenario="jan", batch_policy="cbf", algorithm="standard")
        data = dict(config.to_dict(), profile_engine=value)
        restored = ExperimentConfig.from_dict(data)
        assert restored == config
        assert config_key(restored) == config_key(config)


def _units_digest(configs):
    """(unit count, SHA-256 over the sorted store keys of every unit)."""
    keys = sorted(config_key(config) for config in plan_units(configs))
    return len(keys), hashlib.sha256("\n".join(keys).encode()).hexdigest()


class TestStoreKeysPinned:
    """Store keys recorded before the profile-engine option was removed.

    Every paper-table unit and every built-in sweep unit must keep its
    key, so stores filled by earlier versions stay warm.
    """

    PAPER = {
        ("standard", False): (98, "a313c72837a3cbe600b55a55256b4ecdb41bf82db37325ab5db4c1a59b102455"),
        ("standard", True): (98, "40679a351f9b8c318acc7fc90bffe15c1240df16d6a24667a70aa452e5b4cb70"),
        ("cancellation", False): (98, "47a7884f99a0287c07d49bbc018e5c46417c83053f85450e206adb5e0ad79a24"),
        ("cancellation", True): (98, "a60ac07777a049d3d03f5a49e55aa0575d748f54a8332f2fd231834e9f83f152"),
    }
    SWEEPS = {
        "mapping-grid": (15, "a9a2b10f32cc0d64355c3694e8380161041aa572dc3ac73545c23b1fbab82221"),
        "outage-grid": (112, "6e30c80901c2b01af20b0ed89b8a4b44b27c1644838c09642faa6aa0f5346555"),
        "paper": (364, "a943ecaf5e78d5f952f458c10121e3911cb55bd1e99cfb738bdca0a020645d2d"),
        "paper-cancellation-heterogeneous": (98, "a60ac07777a049d3d03f5a49e55aa0575d748f54a8332f2fd231834e9f83f152"),
        "paper-cancellation-homogeneous": (98, "47a7884f99a0287c07d49bbc018e5c46417c83053f85450e206adb5e0ad79a24"),
        "paper-standard-heterogeneous": (98, "40679a351f9b8c318acc7fc90bffe15c1240df16d6a24667a70aa452e5b4cb70"),
        "paper-standard-homogeneous": (98, "a313c72837a3cbe600b55a55256b4ecdb41bf82db37325ab5db4c1a59b102455"),
        "period-grid": (44, "95753ef9e7b498d27a94bce8534f45747b39c3cfea73e509ae8544c375105aa4"),
        "threshold-grid": (12, "187884ba0aaa417e84235f6ed9c601826107ed03c75816e199faec0b496c9670"),
        "trace-fraction-grid": (12, "5d30d08b7729bc3bf2ed28b633254f010f9990d49bd6c34718cfcfab939e92ee"),
    }

    def test_single_config_key(self):
        assert config_key(ExperimentConfig(scenario="jan")) == (
            "3069a587620baec255289b1b311e6ffaf7c72ea0909f9ab191e03ab8c3f032a4"
        )

    @pytest.mark.parametrize("algorithm,heterogeneous", sorted(PAPER))
    def test_paper_table_keys(self, algorithm, heterogeneous):
        sweep = SweepConfig(algorithm=algorithm, heterogeneous=heterogeneous)
        assert _units_digest(sweep.configs()) == self.PAPER[(algorithm, heterogeneous)]

    def test_every_registered_sweep_is_pinned(self):
        assert sorted(self.SWEEPS) == sorted(SWEEP_REGISTRY)

    @pytest.mark.parametrize("name", sorted(SWEEPS))
    def test_sweep_unit_keys(self, name):
        assert _units_digest(get_sweep(name).configs()) == self.SWEEPS[name]
