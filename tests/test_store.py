"""Tests for the persistent result store (:mod:`repro.store`)."""

from __future__ import annotations

import gzip
import json
import os

import pytest

from repro.batch.job import JobState
from repro.batch.jobtable import JobTable
from repro.core.metrics import ComparisonMetrics
from repro.core.results import JobRecord, RunResult
from repro.experiments.config import ExperimentConfig
from repro.store import SCHEMA_VERSION, ResultStore, config_key

from oracles.store import LegacyStore


def make_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        scenario="jan",
        batch_policy="fcfs",
        algorithm="standard",
        heuristic="minmin",
        scale=0.004,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def make_result() -> RunResult:
    records = [
        JobRecord(
            job_id=1, submit_time=0.0, procs=2, runtime=50.0, walltime=100.0,
            origin_site="lyon", final_cluster="alpha", start_time=1.0,
            completion_time=51.0, state=JobState.COMPLETED, killed=False,
            reallocation_count=1,
        ),
        JobRecord(
            job_id=2, submit_time=5.0, procs=1, runtime=10.0, walltime=20.0,
            origin_site=None, final_cluster=None, start_time=None,
            completion_time=None, state=JobState.REJECTED, killed=False,
            reallocation_count=0,
        ),
    ]
    return RunResult(
        "test/run", table=JobTable.from_records(records), total_reallocations=1,
        reallocation_events=3, makespan=51.0,
        metadata={"scenario": "jan", "scale": 0.004, "n_jobs": 2},
    )


def make_metrics() -> ComparisonMetrics:
    return ComparisonMetrics(
        compared_jobs=50, impacted_jobs=10, pct_impacted=20.0, reallocations=7,
        earlier_jobs=6, pct_earlier=60.0, relative_response_time=0.93,
    )


@pytest.fixture
def store(tmp_path) -> ResultStore:
    """A store writing legacy JSON documents (:mod:`oracles.store`).

    The raw-document tests below peek at and rewrite JSON bytes, which
    exercises the JSON read path every store keeps for legacy documents;
    the ``.npz`` writer is covered by ``tests/test_store_formats.py``.
    """
    return LegacyStore(tmp_path / "store")


class TestConfigKey:
    def test_stable_across_instances(self):
        assert config_key(make_config()) == config_key(make_config())

    def test_differs_per_field(self):
        base = config_key(make_config())
        assert config_key(make_config(heuristic="mct")) != base
        assert config_key(make_config(seed=1)) != base
        assert config_key(make_config(algorithm=None, heuristic="mct")) != base
        assert config_key(make_config(heterogeneous=True)) != base

    def test_key_is_hex_sha256(self):
        key = config_key(make_config())
        assert len(key) == 64
        int(key, 16)  # raises if not hex


class TestSerializationRoundTrip:
    def test_run_result_round_trip(self):
        result = make_result()
        clone = RunResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert clone.to_dict() == result.to_dict()
        assert clone.label == result.label
        assert clone.makespan == result.makespan
        assert clone.records[1].state is JobState.COMPLETED
        assert clone.records[2].completion_time is None
        assert clone.metadata == result.metadata

    def test_metrics_round_trip(self):
        metrics = make_metrics()
        clone = ComparisonMetrics.from_dict(json.loads(json.dumps(metrics.to_dict())))
        assert clone == metrics

    def test_config_round_trip(self):
        config = make_config()
        clone = ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert clone == config

    def test_baseline_config_round_trip(self):
        config = make_config().baseline()
        clone = ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert clone == config
        assert clone.is_baseline


class TestCacheHitMiss:
    def test_miss_on_empty_store(self, store):
        assert store.get_result(make_config()) is None
        assert store.stats.misses == 1
        assert store.stats.hits == 0

    def test_hit_after_put(self, store):
        config, result = make_config(), make_result()
        store.put_result(config, result)
        loaded = store.get_result(config)
        assert loaded is not None
        assert loaded.to_dict() == result.to_dict()
        assert store.stats.hits == 1
        assert store.stats.writes == 1

    def test_different_config_still_misses(self, store):
        store.put_result(make_config(), make_result())
        assert store.get_result(make_config(heuristic="mct")) is None

    def test_metrics_hit_after_put(self, store):
        config, metrics = make_config(), make_metrics()
        store.put_metrics(config, metrics)
        assert store.get_metrics(config) == metrics

    def test_len_counts_documents(self, store):
        assert len(store) == 0
        store.put_result(make_config(), make_result())
        store.put_metrics(make_config(), make_metrics())
        assert len(store) == 2

    def test_invalidate_drops_both_documents(self, store):
        config = make_config()
        store.put_result(config, make_result())
        store.put_metrics(config, make_metrics())
        assert store.invalidate(config) == 2
        assert store.get_result(config) is None
        assert len(store) == 0

    def test_clear_empties_store(self, store):
        store.put_result(make_config(), make_result())
        store.put_metrics(make_config(), make_metrics())
        store.clear()
        assert len(store) == 0


class TestSchemaVersioning:
    def test_version_mismatch_invalidates(self, store):
        config = make_config()
        path = store.put_result(config, make_result())
        document = json.loads(path.read_text())
        document["schema"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(document))
        assert store.get_result(config) is None
        assert store.stats.version_dropped == 1
        assert not path.exists()  # stale document was dropped

    def test_kind_mismatch_invalidates(self, store):
        config = make_config()
        path = store.put_result(config, make_result())
        document = json.loads(path.read_text())
        document["kind"] = "something_else"
        path.write_text(json.dumps(document))
        assert store.get_result(config) is None
        assert not path.exists()

    def test_rewrite_after_invalidation_works(self, store):
        config = make_config()
        path = store.put_result(config, make_result())
        path.write_text("{}")
        assert store.get_result(config) is None
        store.put_result(config, make_result())
        assert store.get_result(config) is not None


class TestCorruptedFileRecovery:
    def test_truncated_json_recovers(self, store):
        config = make_config()
        path = store.put_result(config, make_result())
        path.write_text(path.read_text()[: 40])
        assert store.get_result(config) is None
        assert store.stats.corrupt_dropped == 1
        assert not path.exists()

    def test_non_object_document_recovers(self, store):
        config = make_config()
        path = store.put_result(config, make_result())
        path.write_text("[1, 2, 3]")
        assert store.get_result(config) is None
        assert store.stats.corrupt_dropped == 1

    def test_empty_file_recovers(self, store):
        config = make_config()
        path = store.put_result(config, make_result())
        path.write_text("")
        assert store.get_result(config) is None
        assert not path.exists()


class TestGarbageCollection:
    def _populate(self, store, count=4):
        configs = [make_config(seed=20100326 + i) for i in range(count)]
        for config in configs:
            store.put_result(config, make_result())
            store.put_metrics(config, make_metrics())
        return configs

    def test_gc_keeps_only_requested_keys(self, store):
        configs = self._populate(store)
        keep = {config_key(c) for c in configs[:2]}
        kept, removed = store.gc(keep)
        assert (kept, removed) == (4, 4)  # result + metrics per kept config
        assert len(store) == 4
        assert store.get_result(configs[0]) is not None
        assert store.get_result(configs[3]) is None

    def test_gc_dry_run_removes_nothing(self, store):
        configs = self._populate(store)
        kept, removed = store.gc({config_key(configs[0])}, dry_run=True)
        assert (kept, removed) == (2, 6)
        assert len(store) == 8

    def test_gc_on_missing_store_is_noop(self, tmp_path):
        store = ResultStore(tmp_path / "never-created")
        assert store.gc(set()) == (0, 0)

    def test_gc_prunes_empty_shards(self, store):
        configs = self._populate(store)
        store.gc(set())
        assert len(store) == 0
        # every <hh> shard directory of the dropped documents is gone
        assert not list(store.root.glob("*/??"))


class TestLegacyCompressedDocuments:
    @pytest.fixture
    def gz_store(self, tmp_path) -> ResultStore:
        """A legacy store whose every document is ``.json.gz``."""
        return LegacyStore(tmp_path / "store", compress_threshold=0)

    def test_round_trip_through_gzip(self, gz_store):
        config, result = make_config(), make_result()
        path = gz_store.put_result(config, result)
        assert path.name.endswith(".json.gz")
        loaded = gz_store.get_result(config)
        assert loaded is not None
        assert loaded.to_dict() == result.to_dict()

    def test_plain_reader_still_reads_compressed_store(self, gz_store):
        config, result = make_config(), make_result()
        gz_store.put_result(config, result)
        reader = ResultStore(gz_store.root)
        assert reader.get_result(config) is not None
        assert reader.has_result(config)

    def test_metrics_rewrite_leaves_no_compressed_twin(self, gz_store):
        config, metrics = make_config(), make_metrics()
        gz_path = gz_store.put_metrics(config, metrics)
        assert gz_path.name.endswith(".json.gz")
        plain_path = ResultStore(gz_store.root).put_metrics(config, metrics)
        assert plain_path.name.endswith(".json")
        assert plain_path.exists() and not gz_path.exists()
        assert len(gz_store) == 1

    def test_corrupt_gzip_recovers_as_miss(self, gz_store):
        config = make_config()
        path = gz_store.put_result(config, make_result())
        path.write_bytes(path.read_bytes()[:20])  # truncated gzip stream
        assert gz_store.get_result(config) is None
        assert gz_store.stats.corrupt_dropped >= 1
        assert not path.exists()

    def test_truncated_payload_inside_valid_gzip_recovers(self, gz_store):
        config = make_config()
        path = gz_store.put_result(config, make_result())
        raw = gzip.decompress(path.read_bytes())
        path.write_bytes(gzip.compress(raw[: len(raw) // 2], mtime=0))
        assert gz_store.get_result(config) is None
        assert not path.exists()

    def test_gc_and_len_cover_both_formats(self, gz_store):
        configs = [make_config(seed=20100326 + i) for i in range(3)]
        for config in configs:
            gz_store.put_result(config, make_result())
        plain = ResultStore(gz_store.root)
        plain.put_metrics(configs[0], make_metrics())
        assert len(gz_store) == 4
        kept, removed = gz_store.gc({config_key(configs[0])})
        assert (kept, removed) == (2, 2)

    def test_invalidate_drops_compressed_documents(self, gz_store):
        config = make_config()
        gz_store.put_result(config, make_result())
        gz_store.put_metrics(config, make_metrics())
        assert gz_store.invalidate(config) == 2
        assert len(gz_store) == 0


class TestClaims:
    def test_claim_is_exclusive(self, store):
        config = make_config()
        assert store.try_claim(config, owner="a")
        other = ResultStore(store.root)
        assert not other.try_claim(config, owner="b")
        assert other.stats.claim_conflicts == 1
        assert store.claim_owner(config) == "a"

    def test_release_frees_the_claim(self, store):
        config = make_config()
        assert store.try_claim(config, owner="a")
        assert store.release(config)
        assert store.claim_owner(config) is None
        other = ResultStore(store.root)
        assert other.try_claim(config, owner="b")

    def test_release_without_claim_is_noop(self, store):
        assert not store.release(make_config())

    def test_release_only_by_the_instance_that_claimed(self, store):
        config = make_config()
        assert store.try_claim(config, owner="a")
        other = ResultStore(store.root)
        assert not other.release(config)
        assert store.claim_owner(config) == "a"

    def test_fresh_claim_is_not_stolen(self, store):
        config = make_config()
        assert store.try_claim(config, owner="a")
        other = ResultStore(store.root)
        assert not other.try_claim(config, owner="b", stale_after=3600.0)
        assert other.stats.stale_takeovers == 0

    def test_stale_claim_is_taken_over(self, store):
        config = make_config()
        assert store.try_claim(config, owner="dead-worker")
        lock = store.lock_path(config)
        old = os.stat(lock).st_mtime - 7200.0
        os.utime(lock, (old, old))
        other = ResultStore(store.root)
        assert other.try_claim(config, owner="b", stale_after=3600.0)
        assert other.stats.stale_takeovers == 1
        assert other.claim_owner(config) == "b"

    def test_release_after_takeover_keeps_new_owner(self, store):
        config = make_config()
        assert store.try_claim(config, owner="a")
        lock = store.lock_path(config)
        old = os.stat(lock).st_mtime - 7200.0
        os.utime(lock, (old, old))
        other = ResultStore(store.root)
        assert other.try_claim(config, owner="b", stale_after=3600.0)
        # the original claimant comes back from the dead and releases
        assert not store.release(config)
        assert other.claim_owner(config) == "b"

    def test_unparseable_lock_reads_as_unowned(self, store):
        config = make_config()
        assert store.try_claim(config, owner="a")
        store.lock_path(config).write_text("not json")
        assert store.claim_owner(config) is None

    def test_locks_do_not_count_as_documents(self, store):
        config = make_config()
        store.try_claim(config, owner="a")
        store.put_result(config, make_result())
        assert len(store) == 1
        assert store.gc({config_key(config)}) == (1, 0)
        assert store.claim_owner(config) == "a"  # gc leaves live claims alone

    def test_gc_drops_locks_of_foreign_configs(self, store):
        kept, foreign = make_config(), make_config(seed=1)
        store.try_claim(kept, owner="live")
        store.try_claim(foreign, owner="orphan")
        store.put_result(kept, make_result())
        store.gc({config_key(kept)})
        # no unit of the campaign will ever claim the foreign config, so
        # its lock is cruft; the kept config's claim may be live
        assert store.claim_owner(foreign) is None
        assert store.claim_owner(kept) == "live"

    def test_gc_dry_run_leaves_foreign_locks(self, store):
        foreign = make_config(seed=1)
        store.try_claim(foreign, owner="orphan")
        store.gc(set(), dry_run=True)
        assert store.claim_owner(foreign) == "orphan"

    def test_clear_also_drops_locks(self, store):
        config = make_config()
        store.try_claim(config, owner="a")
        store.clear()
        assert store.claim_owner(config) is None

    def test_has_result_is_format_agnostic(self, store, tmp_path):
        config = make_config()
        assert not store.has_result(config)
        store.put_result(config, make_result())
        assert store.has_result(config)
        gz_store = LegacyStore(tmp_path / "gz", compress_threshold=0)
        gz_store.put_result(config, make_result())
        assert gz_store.has_result(config)
        assert not gz_store.has_metrics(config)

    def test_break_claim_removes_any_owner(self, store):
        config = make_config()
        other = ResultStore(store.root)
        assert other.try_claim(config, owner="crashed")
        assert store.break_claim(config)
        assert store.claim_owner(config) is None
        assert not store.break_claim(config)  # already free


class TestResultIsCurrent:
    def test_false_when_missing_true_when_stored(self, store):
        config = make_config()
        assert not store.result_is_current(config)
        store.put_result(config, make_result())
        assert store.result_is_current(config)

    def test_true_through_gzip(self, tmp_path):
        store = LegacyStore(tmp_path / "store", compress_threshold=0)
        config = make_config()
        store.put_result(config, make_result())
        assert store.result_is_current(config)

    def test_false_for_other_schema_version(self, store):
        config = make_config()
        path = store.put_result(config, make_result())
        document = json.loads(path.read_text())
        document["schema"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(document, separators=(",", ":")))
        assert store.has_result(config)  # the file is there ...
        assert not store.result_is_current(config)  # ... but no reader takes it

    def test_false_for_wrong_kind(self, store):
        config = make_config()
        path = store.put_result(config, make_result())
        path.write_text(
            json.dumps({"schema": SCHEMA_VERSION, "kind": "something_else"},
                       separators=(",", ":"))
        )
        assert not store.result_is_current(config)

    def test_false_for_truncated_gzip(self, tmp_path):
        store = LegacyStore(tmp_path / "store", compress_threshold=0)
        config = make_config()
        path = store.put_result(config, make_result())
        path.write_bytes(path.read_bytes()[:10])
        assert not store.result_is_current(config)
