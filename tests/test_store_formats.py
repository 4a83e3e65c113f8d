"""Store document formats: the ``.npz`` writer and legacy JSON reads.

:mod:`tests.test_store` exercises the legacy JSON document machinery byte
by byte through the retired writer (:mod:`oracles.store`); this module
covers the ``.npz`` writer and the read-back of legacy documents — round
trips, byte determinism, transparent legacy reads, mixed-format
maintenance (gc / invalidate / stats / len), corruption and version
handling, the committed legacy fixture under ``tests/fixtures/``, and the
``repro store stats`` command.
"""

from __future__ import annotations

import gzip
import io
import json
import shutil
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.__main__ import main
from repro.batch.job import JobState
from repro.batch.jobtable import JobTable
from repro.core.metrics import compare_tables
from repro.core.results import JobRecord, RunResult
from repro.experiments.campaign import execute_config, run_campaign
from repro.experiments.config import ExperimentConfig
from repro.store import ResultStore, config_key

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


def record(job_id: int, **overrides) -> JobRecord:
    defaults = dict(
        job_id=job_id, submit_time=float(job_id), procs=2, runtime=50.0,
        walltime=100.0, origin_site="lyon", final_cluster="alpha",
        start_time=float(job_id) + 1.0, completion_time=float(job_id) + 51.0,
        state=JobState.COMPLETED, killed=False, reallocation_count=1,
    )
    defaults.update(overrides)
    return JobRecord(**defaults)


def make_result(label: str = "test/run") -> RunResult:
    """A result mixing whole-second and full-precision time columns.

    Job 2 is rejected (``None`` outcomes → NaN completion, so the
    completion column cannot be integer-coded) and job 3 carries a
    fractional completion time (heterogeneous-speed shape), exercising
    both sides of the writer's lossless integer downcast.
    """
    records = [
        record(1),
        record(2, origin_site=None, final_cluster=None, start_time=None,
               completion_time=None, state=JobState.REJECTED,
               reallocation_count=0),
        record(3, completion_time=4.0 + 50.0 / 1.4, killed=True),
    ]
    return RunResult(
        label, table=JobTable.from_records(records), total_reallocations=1,
        reallocation_events=3, makespan=54.0,
        metadata={"scenario": "jan", "scale": 0.004, "n_jobs": 3},
    )


@pytest.fixture
def store(tmp_path) -> ResultStore:
    return ResultStore(tmp_path / "store")


class TestNpzRoundTrip:
    def test_store_takes_no_format_options(self, tmp_path):
        for option in ({"format": "json"}, {"compress_threshold": 0}):
            with pytest.raises(TypeError):
                ResultStore(tmp_path / "store", **option)

    def test_put_writes_npz_document_only(self, store):
        path = store.put_result(make_config(), make_result())
        assert path.suffix == ".npz"
        assert path.exists()
        base = store.result_path(make_config())
        assert not base.exists() and not base.with_suffix(".json.gz").exists()

    def test_round_trip_preserves_everything(self, store):
        original = make_result()
        store.put_result(make_config(), original)
        loaded = store.get_result(make_config())
        assert loaded == original
        assert loaded.to_dict() == original.to_dict()
        assert loaded.makespan == original.makespan
        assert loaded.metadata == original.metadata

    def test_round_trip_preserves_fractional_times(self, store):
        store.put_result(make_config(), make_result())
        loaded = store.get_result(make_config())
        assert loaded[3].completion_time == 4.0 + 50.0 / 1.4
        assert loaded[2].completion_time is None

    def test_loaded_result_is_table_backed(self, store):
        store.put_result(make_config(), make_result())
        loaded = store.get_result(make_config())
        assert loaded._records is None  # no per-job objects until asked
        assert len(loaded) == 3

    def test_npz_bytes_deterministic_across_stores(self, tmp_path):
        paths = []
        for name in ("one", "two"):
            store = ResultStore(tmp_path / name)
            paths.append(store.put_result(make_config(), make_result()))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_document_is_a_regular_npz(self, store):
        path = store.put_result(make_config(), make_result())
        with np.load(path) as data:
            assert "job_id" in data.files
            assert len(data["job_id"]) == 3

    def test_header_records_encodings(self, store):
        path = store.put_result(make_config(), make_result())
        with zipfile.ZipFile(path) as archive:
            header = json.loads(archive.read("header.json"))
        payload = header["payload"]
        assert header["schema"] == 1 and header["kind"] == "run_result"
        # Whole-second columns are integer-coded; the NaN-bearing
        # completion column is not, so it keeps no predictor either.
        assert "submit_time" in payload["integer_coded"]
        assert "completion_time" not in payload["integer_coded"]
        assert payload["encodings"]["submit_time"] == "delta"
        assert payload["encodings"]["job_id"] == "delta"
        assert "completion_time" not in payload["encodings"]

    def test_result_is_current_for_npz(self, store):
        assert store.result_is_current(make_config()) is False
        store.put_result(make_config(), make_result())
        assert store.result_is_current(make_config()) is True


class TestLegacyMigration:
    def test_reads_legacy_json_documents(self, tmp_path):
        legacy = LegacyStore(tmp_path / "store")
        original = make_result()
        legacy.put_result(make_config(), original)
        modern = ResultStore(tmp_path / "store")
        loaded = modern.get_result(make_config())
        assert loaded == original

    def test_reads_legacy_gz_documents(self, tmp_path):
        legacy = LegacyStore(tmp_path / "store", compress_threshold=0)
        original = make_result()
        path = legacy.put_result(make_config(), original)
        assert path.name.endswith(".json.gz")
        modern = ResultStore(tmp_path / "store")
        assert modern.get_result(make_config()) == original

    def test_rewrite_in_npz_drops_json_twin(self, tmp_path):
        legacy = LegacyStore(tmp_path / "store")
        json_path = legacy.put_result(make_config(), make_result())
        modern = ResultStore(tmp_path / "store")
        npz_path = modern.put_result(make_config(), modern.get_result(make_config()))
        assert npz_path.exists() and not json_path.exists()

    def test_mixed_store_len_counts_both_formats(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put_result(make_config(), make_result())
        legacy = LegacyStore(tmp_path / "store")
        legacy.put_result(make_config(seed=7), make_result())
        assert len(store) == 2

    def test_mixed_store_gc_keeps_either_format(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put_result(make_config(), make_result())
        legacy = LegacyStore(tmp_path / "store")
        legacy.put_result(make_config(seed=7), make_result())
        legacy.put_result(make_config(seed=8), make_result())
        kept, removed = store.gc([config_key(make_config()),
                                  config_key(make_config(seed=7))])
        assert (kept, removed) == (2, 1)
        assert store.get_result(make_config()) is not None
        assert store.get_result(make_config(seed=7)) is not None
        assert store.get_result(make_config(seed=8)) is None

    def test_invalidate_drops_every_format(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put_result(make_config(), make_result())
        # Plant a stale legacy twin next to the npz document by hand (a
        # put through either store would have dropped the other format).
        base = store.result_path(make_config())
        base.write_text("{}", encoding="utf-8")
        assert store.invalidate(make_config()) == 2
        assert store.get_result(make_config()) is None
        assert not store.has_result(make_config())

    def test_disk_stats_breaks_down_by_format(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put_result(make_config(), make_result())
        legacy = LegacyStore(tmp_path / "store")
        legacy.put_result(make_config(seed=7), make_result())
        results = store.disk_stats()["results"]
        assert results["npz"]["documents"] == 1
        assert results["json"]["documents"] == 1
        assert results["npz"]["bytes"] > 0 and results["json"]["bytes"] > 0
        assert "json.gz" not in results


#: A store written by the JSON writer of an earlier version: the result of
#: one reallocation cell as ``.json``, its baseline as ``.json.gz`` (written
#: with ``compress_threshold=0``) and the cell's metrics as ``.json``.
LEGACY_FIXTURE = Path(__file__).parent / "fixtures" / "legacy_store"
LEGACY_REALLOC = ExperimentConfig(
    scenario="pwa-g5k", batch_policy="cbf", algorithm="cancellation",
    heuristic="mct", scale=0.0006,
)
LEGACY_BASELINE = LEGACY_REALLOC.baseline()


def _fixture_files(root: Path) -> dict:
    """Relative path -> bytes of every document under ``root``."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def _without_gzip_os_byte(raw: bytes) -> bytes:
    """Gzip bytes minus the header's OS field (byte 9).

    Python 3.10's gzip module writes 255 there, later versions let zlib
    fill it in; the deflate stream and every other byte are the same.
    """
    return raw[:9] + raw[10:]


class TestLegacyFixture:
    def test_legacy_store_reads_back_and_matches_the_oracle_writer(self, tmp_path):
        # Reads may drop documents, so work on a copy of the fixture.
        root = tmp_path / "legacy_store"
        shutil.copytree(LEGACY_FIXTURE, root)
        store = ResultStore(root)

        baseline = execute_config(LEGACY_BASELINE)
        realloc = execute_config(LEGACY_REALLOC)
        for config, fresh in ((LEGACY_REALLOC, realloc), (LEGACY_BASELINE, baseline)):
            assert store.result_is_current(config)
            assert store.get_result(config).to_dict() == fresh.to_dict()
        expected = compare_tables(baseline.to_table(), realloc.to_table(),
                                  reallocations=realloc.total_reallocations)
        assert expected.reallocations > 0
        assert store.get_metrics(LEGACY_REALLOC) == expected
        assert (store.stats.hits, store.stats.misses) == (3, 0)
        assert store.stats.corrupt_dropped == store.stats.version_dropped == 0

        counts = {
            namespace: {fmt: entry["documents"] for fmt, entry in formats.items()}
            for namespace, formats in store.disk_stats().items()
        }
        assert counts == {"results": {"json": 1, "json.gz": 1},
                          "metrics": {"json": 1}}
        assert len(store) == 3

        campaign = run_campaign([LEGACY_BASELINE, LEGACY_REALLOC], store=store)
        assert campaign.stats.simulated == 0
        assert campaign.metrics[LEGACY_REALLOC] == expected

        # The retired writer, kept in oracles.store, writes these bytes.
        rewritten = tmp_path / "rewritten"
        LegacyStore(rewritten, compress_threshold=None).put_result(LEGACY_REALLOC, realloc)
        LegacyStore(rewritten, compress_threshold=0).put_result(LEGACY_BASELINE, baseline)
        LegacyStore(rewritten, compress_threshold=None).put_metrics(LEGACY_REALLOC, expected)
        fixture, ours = _fixture_files(LEGACY_FIXTURE), _fixture_files(rewritten)
        assert fixture.keys() == ours.keys()
        for name, raw in fixture.items():
            if name.endswith(".gz"):
                assert gzip.decompress(ours[name]) == gzip.decompress(raw), name
                assert _without_gzip_os_byte(ours[name]) == _without_gzip_os_byte(raw), name
            else:
                assert ours[name] == raw, name
        # A production metrics write is byte-identical to the legacy one.
        plain = ResultStore(tmp_path / "plain").put_metrics(LEGACY_REALLOC, expected)
        assert plain.read_bytes() == fixture[str(plain.relative_to(tmp_path / "plain"))]


def _rewrite_member(path, member, transform) -> None:
    """Rewrite one member of an npz document in place through ``transform``."""
    with zipfile.ZipFile(path) as archive:
        members = {name: archive.read(name) for name in archive.namelist()}
    members[member] = transform(members[member])
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_DEFLATED) as archive:
        for name, data in members.items():
            archive.writestr(name, data)
    path.write_bytes(buffer.getvalue())


def _rewrite_header(path, mutate) -> None:
    """Rewrite the header.json member of an npz document in place."""

    def transform(raw):
        header = json.loads(raw)
        mutate(header)
        return json.dumps(header, separators=(",", ":")).encode()

    _rewrite_member(path, "header.json", transform)


def _negate_first_code(raw):
    """An ``.npy`` column whose first code is -1 (valid dtype, bad value)."""
    column = np.lib.format.read_array(io.BytesIO(raw), allow_pickle=False).copy()
    column[0] = -1
    out = io.BytesIO()
    np.lib.format.write_array(out, column, allow_pickle=False)
    return out.getvalue()


class TestNpzResilience:
    def test_corrupt_npz_is_dropped_and_recovers(self, store):
        path = store.put_result(make_config(), make_result())
        path.write_bytes(b"not a zip archive")
        assert store.get_result(make_config()) is None
        assert store.stats.corrupt_dropped == 1
        assert not path.exists()
        store.put_result(make_config(), make_result())
        assert store.get_result(make_config()) == make_result()

    def test_truncated_npz_is_dropped(self, store):
        path = store.put_result(make_config(), make_result())
        path.write_bytes(path.read_bytes()[:-40])
        assert store.get_result(make_config()) is None
        assert store.stats.corrupt_dropped == 1

    def test_foreign_schema_counts_as_version_drop(self, store):
        path = store.put_result(make_config(), make_result())

        def bump(header):
            header["schema"] = 999

        _rewrite_header(path, bump)
        assert store.result_is_current(make_config()) is False
        assert store.get_result(make_config()) is None
        assert store.stats.version_dropped == 1
        assert store.stats.corrupt_dropped == 0
        assert not path.exists()

    def test_unknown_encoding_counts_as_corrupt(self, store):
        path = store.put_result(make_config(), make_result())

        def poison(header):
            header["payload"]["encodings"]["submit_time"] = "xor"

        _rewrite_header(path, poison)
        assert store.get_result(make_config()) is None
        assert store.stats.corrupt_dropped == 1

    @pytest.mark.parametrize("column", ["site_code", "cluster_code", "state"])
    def test_negative_category_code_counts_as_corrupt(self, store, column):
        # A negative code would index from the end of the category list
        # and load as a valid, wrong result.
        path = store.put_result(make_config(), make_result())
        _rewrite_member(path, f"{column}.npy", _negate_first_code)
        assert store.get_result(make_config()) is None
        assert store.stats.corrupt_dropped == 1
        assert not path.exists()

    def test_missing_column_member_counts_as_corrupt(self, store):
        path = store.put_result(make_config(), make_result())

        def claim_extra(header):
            header["payload"]["columns"].append("no_such_column")

        _rewrite_header(path, claim_extra)
        assert store.get_result(make_config()) is None
        assert store.stats.corrupt_dropped == 1


class TestStoreStatsCommand:
    def test_text_breakdown(self, tmp_path, capsys):
        store = ResultStore(tmp_path / "store")
        store.put_result(make_config(), make_result())
        legacy = LegacyStore(tmp_path / "store")
        legacy.put_result(make_config(seed=7), make_result())
        main(["store", "stats", "--store", str(tmp_path / "store")])
        out = capsys.readouterr().out
        assert "results" in out and "npz" in out and "json" in out
        assert "2 document(s)" in out

    def test_json_breakdown(self, tmp_path, capsys):
        store = ResultStore(tmp_path / "store")
        store.put_result(make_config(), make_result())
        main(["store", "stats", "--store", str(tmp_path / "store"), "--as-json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["namespaces"]["results"]["npz"]["documents"] == 1

    def test_store_format_option_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main([
                "campaign", "run", "--algorithm", "standard",
                "--platform", "homogeneous", "--target-jobs", "12",
                "--store", str(tmp_path / "store"), "--store-format", "json",
            ])
        assert "--store-format" in capsys.readouterr().err
