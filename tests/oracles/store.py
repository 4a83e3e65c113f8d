"""The retired JSON/gzip writer of :class:`repro.store.ResultStore`.

Production stores write result documents as ``.npz`` and metrics as plain
``.json``; they still *read* the ``.json`` and ``.json.gz`` documents that
earlier versions wrote.  :class:`LegacyStore` writes those documents
byte for byte as that writer did, so the tests and the store benchmark
can build legacy stores to read back:

* every document is the compact JSON envelope
  ``{"schema":…,"kind":…,"key":…,"config":…,"payload":…}`` (the
  ``schema``/``kind`` prefix is what ``result_is_current`` sniffs);
* a document of at least ``compress_threshold`` serialized bytes is
  written gzip-compressed (``.json.gz``, gzip mtime 0), smaller ones as
  ``.json``; ``None`` never compresses;
* a write drops the key's twin in every other format.

Run as a module to convert a store into a legacy one::

    PYTHONPATH=src:tests python -m oracles.store SOURCE TARGET

Every result and metrics document of ``SOURCE`` is rewritten into
``TARGET``, alternately as ``.json`` and ``.json.gz`` (in sorted key
order), so a table built from ``TARGET`` reads both legacy forms.
"""

from __future__ import annotations

import gzip
import json
import sys
import zipfile
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.core.metrics import ComparisonMetrics
from repro.core.results import RunResult
from repro.experiments.config import ExperimentConfig
from repro.store import SCHEMA_VERSION, ResultStore

#: The retired writer's default: documents of this many bytes are gzipped.
DEFAULT_COMPRESS_THRESHOLD = 64 * 1024


class LegacyStore(ResultStore):
    """A store whose writers are the retired JSON/gzip ones (reads unchanged)."""

    def __init__(
        self,
        root: Union[str, Path],
        compress_threshold: Optional[int] = DEFAULT_COMPRESS_THRESHOLD,
    ) -> None:
        super().__init__(root)
        self.compress_threshold = compress_threshold

    def put_result(self, config: ExperimentConfig, result: RunResult) -> Path:
        return self._save_json(
            self.result_path(config), "run_result", config, result.to_dict()
        )

    def put_metrics(self, config: ExperimentConfig, metrics: ComparisonMetrics) -> Path:
        return self._save_json(
            self.metrics_path(config), "comparison_metrics", config, metrics.to_dict()
        )

    def _save_json(
        self, path: Path, kind: str, config: ExperimentConfig, payload: Dict[str, Any]
    ) -> Path:
        document = {
            "schema": SCHEMA_VERSION,
            "kind": kind,
            "key": path.stem,
            "config": config.to_dict(),
            "payload": payload,
        }
        raw = json.dumps(document, separators=(",", ":"), allow_nan=False).encode("utf-8")
        if self.compress_threshold is not None and len(raw) >= self.compress_threshold:
            raw = gzip.compress(raw, mtime=0)
            target, other = self._gz(path), path
        else:
            target, other = path, self._gz(path)
        self._write_atomic(target, path.stem, raw)
        self._drop(other)
        self._drop(self._npz(path))
        self.stats.writes += 1
        return target


def _document_config(path: Path) -> ExperimentConfig:
    """The configuration recorded in the envelope of any store document."""
    if path.suffix == ".npz":
        with zipfile.ZipFile(path) as archive:
            header = json.loads(archive.read("header.json"))
    elif path.name.endswith(".json.gz"):
        header = json.loads(gzip.decompress(path.read_bytes()))
    else:
        header = json.loads(path.read_bytes())
    return ExperimentConfig.from_dict(header["config"])


def convert_store(source: Union[str, Path], target: Union[str, Path]) -> int:
    """Rewrite every document of ``source`` into a legacy store at ``target``.

    Documents alternate between ``.json`` and ``.json.gz`` in sorted key
    order.  Returns the number of documents written.
    """
    reader = ResultStore(source)
    writers = (LegacyStore(target, compress_threshold=None),
               LegacyStore(target, compress_threshold=0))
    written = 0
    for namespace, load, put in (
        ("results", reader.get_result, "put_result"),
        ("metrics", reader.get_metrics, "put_metrics"),
    ):
        paths = sorted(
            (p for p in Path(source).glob(f"{namespace}/??/*")
             if p.name.endswith((".npz", ".json", ".json.gz"))),
            key=lambda p: p.name,
        )
        for index, path in enumerate(paths):
            config = _document_config(path)
            document = load(config)
            if document is None:
                raise ValueError(f"{path}: not a current store document")
            getattr(writers[index % 2], put)(config, document)
            written += 1
    return written


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python -m oracles.store SOURCE TARGET")
    count = convert_store(sys.argv[1], sys.argv[2])
    print(f"converted {count} document(s) from {sys.argv[1]} to {sys.argv[2]}")
