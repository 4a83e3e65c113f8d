"""On-disk result store (content-addressed, binary-columnar, multi-writer safe).

Layout::

    <root>/
        results/<hh>/<hash>.npz      one RunResult per simulated experiment
        results/<hh>/<hash>.json     ... legacy JSON documents (read only)
        results/<hh>/<hash>.json.gz  ... legacy gzip-compressed JSON (read only)
        metrics/<hh>/<hash>.json     one ComparisonMetrics per realloc config
        locks/<hh>/<hash>.lock       advisory claim of one in-flight simulation

``<hash>`` is :func:`config_key` — a SHA-256 over the canonical JSON form
of the :class:`~repro.experiments.config.ExperimentConfig` — and ``<hh>``
its first two hex digits (keeps directories small for large sweeps).

There is one writer per document kind.  Result documents are written
**columnar**: a ``.npz`` archive holding one ``.npy`` member per
:class:`~repro.batch.jobtable.JobTable` column plus a ``header.json``
member with the run-level scalars (label, counters, metadata, category
lists) and the usual ``schema``/``kind``/``key``/``config`` envelope.
The zip container is written by hand with zeroed timestamps, fixed member
order and a fixed compression level, so the bytes are a pure function of
the content — byte-identical across processes and repeated runs.  Loading
a ``.npz`` result adopts the columns straight into a table-backed
:class:`~repro.core.results.RunResult`: no per-job object is built.
Metrics documents are small and are written as plain ``.json``.

Stores written by earlier versions may hold ``.json`` and ``.json.gz``
result documents, and ``.json.gz`` metrics documents.  Those are still
read (a lookup falls back from ``.npz`` to ``.json`` to ``.json.gz``),
counted, invalidated and collected, so a legacy store stays warm; a
rewrite of the same key replaces any legacy twin.

Every document carries a schema version.  Loading a document written under
a different version, or one that fails to parse, silently degrades to a
cache miss: the offending file is deleted and the caller re-simulates.
Writes are atomic (temp file + ``os.replace``) so a crashed or killed
campaign never leaves a truncated document a later run would trip over.

Concurrent writers — several processes, or several hosts sharing the store
directory — coordinate through *advisory lock files*:

* :meth:`ResultStore.try_claim` atomically creates
  ``locks/<hh>/<hash>.lock`` (``O_CREAT | O_EXCL``); exactly one claimant
  wins, everyone else sees the configuration as taken;
* a live claim owner periodically *heartbeats* its lock
  (:meth:`ResultStore.heartbeat` touches the file's mtime), so staleness
  is measured from the last heartbeat, not from the claim's creation — a
  worker mid-way through a long simulation stays protected however small
  ``stale_after`` is set;
* a claim whose last heartbeat is older than ``stale_after`` seconds is
  presumed dead (crashed or unplugged worker) and may be taken over: the
  stale file is atomically renamed away — only one stealer wins the
  rename — and the claim race restarts;
* :meth:`ResultStore.release` removes the lock only if this store
  instance still owns it (a takeover may have transferred ownership).

The locks are advisory: readers never consult them, and a finished result
is always published atomically regardless of who holds the claim.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import io
import itertools
import json
import os
import shutil
import socket
import tempfile
import time
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.batch.jobtable import JobTable
from repro.core.metrics import ComparisonMetrics
from repro.core.results import RunResult

if TYPE_CHECKING:  # runtime import would be circular (experiments -> store)
    from repro.experiments.config import ExperimentConfig

#: Version of the on-disk document layout.  Bump when the serialized form
#: of RunResult / ComparisonMetrics / ExperimentConfig changes; stored
#: documents with any other version are invalidated on load.
SCHEMA_VERSION = 1

#: Claims older than this many seconds are presumed dead and may be stolen.
DEFAULT_STALE_LOCK_SECONDS = 1800.0

#: File suffixes that count as store documents (everything else in a shard
#: directory — temp files, foreign droppings — is ignored by the scans).
DOCUMENT_SUFFIXES = ("npz", "json", "json.gz")

_RESULT_KIND = "run_result"
_METRICS_KIND = "comparison_metrics"

_claim_counter = itertools.count(1)


@functools.lru_cache(maxsize=1024)
def config_key(config: ExperimentConfig) -> str:
    """Stable content hash of a configuration.

    The key is a SHA-256 hex digest over the canonical (sorted-key,
    separator-free) JSON encoding of :meth:`ExperimentConfig.to_dict`, so
    it is stable across processes, Python versions and dict orderings.
    Memoised per configuration: equal configurations share one canonical
    form, and the cache covers every unit of the paper campaign.
    """
    canonical = json.dumps(
        config.to_dict(), sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def default_owner() -> str:
    """Identity of this process as recorded in claim documents."""
    return f"{socket.gethostname()}:{os.getpid()}"


@dataclass(slots=True)
class StoreStats:
    """Counters of one :class:`ResultStore` instance (not persisted)."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    #: documents dropped because their schema version did not match
    version_dropped: int = 0
    #: documents dropped because they could not be parsed
    corrupt_dropped: int = 0
    #: configurations successfully claimed by this instance
    claims: int = 0
    #: claim attempts lost to another live claimant
    claim_conflicts: int = 0
    #: stale locks this instance renamed away before re-racing the claim
    stale_takeovers: int = 0


class ResultStore:
    """Persistent cache of experiment outcomes.

    Parameters
    ----------
    root:
        Directory holding the store; created on first write.

    Examples
    --------
    >>> store = ResultStore("/tmp/repro-store")          # doctest: +SKIP
    >>> store.put_result(config, result)                 # doctest: +SKIP
    >>> store.get_result(config) is not None             # doctest: +SKIP
    True
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.stats = StoreStats()
        #: config key -> claim token owned by this instance
        self._claims: Dict[str, str] = {}

    # ------------------------------------------------------------------ #
    # Paths                                                              #
    # ------------------------------------------------------------------ #
    def _path(self, namespace: str, key: str) -> Path:
        return self.root / namespace / key[:2] / f"{key}.json"

    def result_path(self, config: ExperimentConfig) -> Path:
        """Location of a legacy JSON result document of ``config``.

        The base name every format derives from: the current document
        lives at the same stem with a ``.npz`` suffix, and a legacy
        compressed one at this path plus ``.gz``.
        """
        return self._path("results", config_key(config))

    def metrics_path(self, config: ExperimentConfig) -> Path:
        """File that holds (or would hold) the metrics of ``config``."""
        return self._path("metrics", config_key(config))

    def lock_path(self, config: ExperimentConfig) -> Path:
        """Advisory lock file guarding the simulation of ``config``."""
        key = config_key(config)
        return self.root / "locks" / key[:2] / f"{key}.lock"

    @staticmethod
    def _gz(path: Path) -> Path:
        return path.with_name(path.name + ".gz")

    @staticmethod
    def _npz(path: Path) -> Path:
        return path.with_name(path.stem + ".npz")

    # ------------------------------------------------------------------ #
    # Run results                                                        #
    # ------------------------------------------------------------------ #
    def get_result(self, config: ExperimentConfig) -> Optional[RunResult]:
        """Load the stored result of ``config``, or ``None`` on a miss.

        Tries the columnar ``.npz`` document first (a hit adopts the
        columns into a table-backed result, zero per-job objects), then
        falls back to legacy ``.json``/``.json.gz`` documents — so a
        store written by an earlier version stays warm.
        """
        path = self.result_path(config)
        result = self._load_npz(self._npz(path))
        if result is not None:
            self.stats.hits += 1
            return result
        payload = self._load(path, _RESULT_KIND)
        if payload is None:
            return None
        return RunResult.from_dict(payload)

    def put_result(self, config: ExperimentConfig, result: RunResult) -> Path:
        """Persist ``result`` under the key of ``config`` as a ``.npz`` document."""
        return self._save_npz(self.result_path(config), config, result)

    def has_result(self, config: ExperimentConfig) -> bool:
        """Cheap existence test — no document is read or validated."""
        path = self.result_path(config)
        return (
            self._npz(path).exists() or path.exists() or self._gz(path).exists()
        )

    def result_is_current(self, config: ExperimentConfig) -> bool:
        """True when a stored result exists *and* carries the current schema.

        A header sniff, not a load: documents serialize with ``schema``
        and ``kind`` as their first two keys (``.npz`` documents carry the
        same envelope in their ``header.json`` member), so reading a few
        dozen bytes distinguishes a current document from one a reader
        would drop — without hydrating a payload that may hold 100k+ job
        records.  Used by the distributed drain loop, where trusting bare
        file existence would let a worker fleet declare a stale store
        "drained".
        """
        prefix = f'{{"schema":{SCHEMA_VERSION},"kind":"{_RESULT_KIND}"'.encode("ascii")
        path = self.result_path(config)
        try:
            with zipfile.ZipFile(self._npz(path)) as archive:
                with archive.open("header.json") as handle:
                    return handle.read(len(prefix)) == prefix
        except FileNotFoundError:
            pass
        except (KeyError, OSError, EOFError, ValueError, zipfile.BadZipFile):
            return False
        try:
            with path.open("rb") as handle:
                return handle.read(len(prefix)) == prefix
        except FileNotFoundError:
            pass
        except OSError:
            return False
        try:
            with gzip.open(self._gz(path), "rb") as handle:
                return handle.read(len(prefix)) == prefix
        except (OSError, EOFError, ValueError):
            return False

    # ------------------------------------------------------------------ #
    # Comparison metrics                                                 #
    # ------------------------------------------------------------------ #
    def get_metrics(self, config: ExperimentConfig) -> Optional[ComparisonMetrics]:
        """Load the stored metrics of ``config``, or ``None`` on a miss."""
        payload = self._load(self.metrics_path(config), _METRICS_KIND)
        if payload is None:
            return None
        return ComparisonMetrics.from_dict(payload)

    def put_metrics(self, config: ExperimentConfig, metrics: ComparisonMetrics) -> Path:
        """Persist ``metrics`` under the key of ``config`` as plain JSON."""
        path = self.metrics_path(config)
        document = {
            "schema": SCHEMA_VERSION,
            "kind": _METRICS_KIND,
            "key": path.stem,
            "config": config.to_dict(),
            "payload": metrics.to_dict(),
        }
        raw = json.dumps(document, separators=(",", ":"), allow_nan=False).encode("utf-8")
        self._write_atomic(path, path.stem, raw)
        self._drop(self._gz(path))  # a legacy compressed twin
        self.stats.writes += 1
        return path

    def has_metrics(self, config: ExperimentConfig) -> bool:
        """Cheap existence test for the metrics document of ``config``."""
        path = self.metrics_path(config)
        return path.exists() or self._gz(path).exists()

    # ------------------------------------------------------------------ #
    # Claims (advisory locks for concurrent writers)                     #
    # ------------------------------------------------------------------ #
    def try_claim(
        self,
        config: ExperimentConfig,
        owner: Optional[str] = None,
        stale_after: float = DEFAULT_STALE_LOCK_SECONDS,
    ) -> bool:
        """Atomically claim the right to simulate ``config``.

        Returns True when this instance now holds the claim.  A live
        claim by someone else fails the attempt; a claim whose last
        heartbeat (lock mtime) is older than ``stale_after`` seconds is
        stolen (renamed away) and the creation race restarts, so at most
        one of the competing stealers wins.
        """
        path = self.lock_path(config)
        owner = owner or default_owner()
        token = f"{owner}#{next(_claim_counter)}"
        path.parent.mkdir(parents=True, exist_ok=True)
        for attempt in range(2):
            try:
                descriptor = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if attempt or not self._steal_stale_lock(path, stale_after):
                    self.stats.claim_conflicts += 1
                    return False
                continue
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                json.dump(
                    {
                        "owner": owner,
                        "token": token,
                        "claimed_at": time.time(),
                        "key": path.stem,
                    },
                    handle,
                )
            self._claims[path.stem] = token
            self.stats.claims += 1
            return True
        return False  # pragma: no cover - loop always returns earlier

    def release(self, config: ExperimentConfig) -> bool:
        """Release a claim held by this instance.

        Returns True when the lock file was removed.  If the claim was
        stolen while we worked (the simulation outlived ``stale_after``),
        the current holder keeps its lock and False is returned — the
        result itself was already published atomically either way.
        """
        path = self.lock_path(config)
        token = self._claims.pop(path.stem, None)
        if token is None:
            return False
        if self.claim_owner(config, _want_token=token) is None:
            return False
        try:
            path.unlink()
            return True
        except OSError:
            return False

    def heartbeat(self, config: ExperimentConfig) -> bool:
        """Refresh the liveness of a claim held by this instance.

        Touches the lock file's mtime — the timestamp
        :meth:`_steal_stale_lock` measures staleness from — so a worker
        that heartbeats more often than ``stale_after`` can never lose a
        claim it is actively working on.  Returns False (and touches
        nothing) when this instance does not hold the claim, or when the
        claim was meanwhile taken over by another worker.
        """
        path = self.lock_path(config)
        token = self._claims.get(path.stem)
        if token is None:
            return False
        if self.claim_owner(config, _want_token=token) is None:
            return False
        try:
            os.utime(path)
            return True
        except OSError:
            return False

    def claim_age(self, config: ExperimentConfig) -> Optional[float]:
        """Seconds since the last heartbeat of the claim on ``config``.

        ``None`` when the configuration is unclaimed.  Read-only: the
        cross-host ``campaign status`` view uses this to surface stale
        claims without ever racing for a lock.
        """
        try:
            mtime = self.lock_path(config).stat().st_mtime
        except OSError:
            return None
        return max(0.0, time.time() - mtime)

    def claim_owner(
        self, config: ExperimentConfig, _want_token: Optional[str] = None
    ) -> Optional[str]:
        """Owner string of the current claim on ``config`` (None if free).

        With ``_want_token`` the claim only counts when its token matches
        (used by :meth:`release` to detect takeovers).
        """
        try:
            with self.lock_path(config).open("r", encoding="utf-8") as handle:
                claim = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(claim, dict):
            return None
        if _want_token is not None and claim.get("token") != _want_token:
            return None
        owner = claim.get("owner")
        return owner if isinstance(owner, str) else None

    def break_claim(self, config: ExperimentConfig) -> bool:
        """Forcibly remove any claim on ``config``, whoever holds it.

        For a coordinator that *knows* no worker is live — e.g.
        ``campaign sweep --fresh`` restarting after a crashed run, where
        waiting ``stale_after`` seconds per orphaned lock would stall the
        drain.  Breaking the claim of a genuinely live worker merely
        duplicates deterministic work; results still publish atomically.
        """
        try:
            self.lock_path(config).unlink()
            return True
        except OSError:
            return False

    def _steal_stale_lock(self, path: Path, stale_after: float) -> bool:
        """True when ``path`` is gone (freed, or renamed away by us).

        Staleness is the age of the lock's mtime — i.e. of the owner's
        last :meth:`heartbeat` (creation counts as the first one).
        """
        try:
            age = time.time() - path.stat().st_mtime
        except OSError:
            return True  # released meanwhile: re-race the creation
        if age < stale_after:
            return False
        grave = path.with_name(f"{path.name}.stale-{os.getpid()}-{next(_claim_counter)}")
        try:
            os.rename(path, grave)
        except OSError:
            return True  # another stealer won the rename: re-race anyway
        try:
            grave.unlink()
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
        self.stats.stale_takeovers += 1
        return True

    # ------------------------------------------------------------------ #
    # Invalidation                                                       #
    # ------------------------------------------------------------------ #
    def invalidate(self, config: ExperimentConfig) -> int:
        """Drop the stored result and metrics of one configuration.

        Returns the number of files removed (0–5 counting every format).
        """
        removed = 0
        for path in (self.result_path(config), self.metrics_path(config)):
            removed += self._drop(path)
            removed += self._drop(self._gz(path))
        removed += self._drop(self._npz(self.result_path(config)))
        return removed

    def clear(self) -> None:
        """Remove every document and lock of the store (the root is kept)."""
        for namespace in ("results", "metrics", "locks"):
            shutil.rmtree(self.root / namespace, ignore_errors=True)
        self._claims.clear()

    @staticmethod
    def _document_key(path: Path) -> str:
        """Config key of a document file (strips any document suffix)."""
        return path.name.split(".", 1)[0]

    def _documents(self) -> Iterable[Path]:
        for namespace in ("results", "metrics"):
            for suffix in DOCUMENT_SUFFIXES:
                yield from self.root.glob(f"{namespace}/??/*.{suffix}")

    def disk_stats(self) -> Dict[str, Dict[str, Dict[str, int]]]:
        """Per-namespace, per-format document counts and bytes on disk.

        ``{"results": {"npz": {"documents": n, "bytes": b}, ...}, ...}`` —
        the inspection view behind ``repro store stats``, so mixed-format
        stores (legacy JSON next to fresh ``.npz``) stay legible during a
        migration.  Formats with no documents are omitted.
        """
        breakdown: Dict[str, Dict[str, Dict[str, int]]] = {}
        for namespace in ("results", "metrics"):
            per_format: Dict[str, Dict[str, int]] = {}
            for suffix in DOCUMENT_SUFFIXES:
                documents = 0
                size = 0
                for path in self.root.glob(f"{namespace}/??/*.{suffix}"):
                    try:
                        size += path.stat().st_size
                    except OSError:
                        continue  # deleted by a concurrent writer mid-scan
                    documents += 1
                if documents:
                    per_format[suffix] = {"documents": documents, "bytes": size}
            breakdown[namespace] = per_format
        return breakdown

    def gc(self, keep_keys: Iterable[str], dry_run: bool = False) -> Tuple[int, int]:
        """Drop every document whose config key is not in ``keep_keys``.

        Used by ``repro store gc --campaign <name>``: the caller computes
        the config keys of every unit of the campaign and the store keeps
        only those (both result and metrics documents share the key of
        their configuration).  Compressed and plain documents are treated
        alike.  Returns ``(kept, removed)`` document counts; with
        ``dry_run`` nothing is deleted and ``removed`` counts the
        documents that *would* go.  Sharding directories left empty by the
        sweep are pruned.
        """
        keep = set(keep_keys)
        kept = 0
        removed = 0
        if not self.root.exists():
            return kept, removed
        for path in sorted(self._documents()):
            if self._document_key(path) in keep:
                kept += 1
            elif dry_run:
                removed += 1
            else:
                removed += self._drop(path)
                try:
                    path.parent.rmdir()
                except OSError:
                    pass  # shard still holds surviving documents
        # Lock files of foreign configurations are orphans by definition
        # (no unit of this campaign will ever claim or steal them), so the
        # sweep drops them too; they are bookkeeping, not documents, and
        # stay out of the returned counts.  Locks of kept keys are left
        # alone — they may be live claims of a running worker.
        if not dry_run:
            for path in sorted(self.root.glob("locks/??/*.lock")):
                if self._document_key(path) not in keep:
                    self._drop(path)
                    try:
                        path.parent.rmdir()
                    except OSError:
                        pass
        return kept, removed

    def __len__(self) -> int:
        """Number of stored documents (results + metrics, either format)."""
        if not self.root.exists():
            return 0
        return sum(1 for _ in self._documents())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore(root={str(self.root)!r}, documents={len(self)})"

    # ------------------------------------------------------------------ #
    # Internals                                                          #
    # ------------------------------------------------------------------ #
    def _read_document_bytes(self, path: Path) -> Optional[bytes]:
        """Raw JSON bytes of the document at ``path`` (either format)."""
        try:
            return path.read_bytes()
        except FileNotFoundError:
            pass
        except OSError:
            # Unreadable (permissions, I/O error on a shared mount):
            # recover by dropping it, like any other corrupt document.
            self.stats.corrupt_dropped += 1
            self._drop(path)
        gz_path = self._gz(path)
        try:
            with gzip.open(gz_path, "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return None
        except (OSError, EOFError, ValueError):
            # Truncated or corrupt gzip container: recover by dropping it.
            self.stats.corrupt_dropped += 1
            self._drop(gz_path)
            return None

    def _load(self, path: Path, kind: str) -> Optional[Any]:
        raw = self._read_document_bytes(path)
        if raw is None:
            self.stats.misses += 1
            return None
        try:
            document = json.loads(raw)
        except ValueError:
            # Unreadable or truncated document: recover by dropping it.
            self.stats.corrupt_dropped += 1
            self.stats.misses += 1
            self._drop(path)
            self._drop(self._gz(path))
            return None
        if not isinstance(document, dict) or "payload" not in document:
            self.stats.corrupt_dropped += 1
            self.stats.misses += 1
            self._drop(path)
            self._drop(self._gz(path))
            return None
        if document.get("schema") != SCHEMA_VERSION or document.get("kind") != kind:
            self.stats.version_dropped += 1
            self.stats.misses += 1
            self._drop(path)
            self._drop(self._gz(path))
            return None
        self.stats.hits += 1
        return document["payload"]

    def _save_npz(self, path: Path, config: ExperimentConfig, result: RunResult) -> Path:
        """Write ``result`` as a deterministic columnar ``.npz`` document.

        Columns pass through :func:`_pack_columns` first — the lossless
        integer downcast and predictor encodings that make archive-scale
        documents deflate far below their ``.json.gz`` spelling.
        """
        table = result.to_table()
        columns, sites, clusters = table.to_columns()
        columns, integer_coded, encodings = _pack_columns(columns)
        header = {
            "schema": SCHEMA_VERSION,
            "kind": _RESULT_KIND,
            "key": path.stem,
            "config": config.to_dict(),
            "payload": {
                "label": result.label,
                "total_reallocations": result.total_reallocations,
                "reallocation_events": result.reallocation_events,
                "makespan": result.makespan,
                "jobs_killed_by_outage": result.jobs_killed_by_outage,
                "jobs_requeued": result.jobs_requeued,
                "work_lost": result.work_lost,
                "metadata": dict(result.metadata),
                "sites": sites,
                "clusters": clusters,
                "columns": list(columns),
                "integer_coded": integer_coded,
                "encodings": encodings,
            },
        }
        target = self._npz(path)
        self._write_atomic(target, path.stem, _npz_bytes(header, columns))
        self._drop(path)
        self._drop(self._gz(path))
        self.stats.writes += 1
        return target

    def _load_npz(self, path: Path) -> Optional[RunResult]:
        """Load a columnar result document, or ``None`` when absent.

        Does *not* touch the hit/miss counters (the caller accounts for
        the lookup as a whole across the format fallback chain); corrupt
        and version-mismatched archives are dropped like their JSON
        counterparts and degrade to ``None``.
        """
        version_mismatch = False
        try:
            with zipfile.ZipFile(path) as archive:
                header = json.loads(archive.read("header.json").decode("utf-8"))
                if not isinstance(header, dict) or not isinstance(
                    header.get("payload"), dict
                ):
                    raise ValueError("malformed npz header")
                if (
                    header.get("schema") != SCHEMA_VERSION
                    or header.get("kind") != _RESULT_KIND
                ):
                    version_mismatch = True
                    raise ValueError("foreign schema or kind")
                payload = header["payload"]
                columns = {}
                for name in payload["columns"]:
                    with archive.open(f"{name}.npy") as member:
                        columns[name] = np.lib.format.read_array(
                            member, allow_pickle=False
                        )
                columns = _unpack_columns(
                    columns,
                    payload.get("integer_coded", ()),
                    payload.get("encodings", {}),
                )
                table = JobTable.from_columns(
                    columns, payload["sites"], payload.get("clusters")
                )
                return RunResult(
                    label=payload["label"],
                    total_reallocations=int(payload["total_reallocations"]),
                    reallocation_events=int(payload["reallocation_events"]),
                    makespan=float(payload["makespan"]),
                    jobs_killed_by_outage=int(payload.get("jobs_killed_by_outage", 0)),
                    jobs_requeued=int(payload.get("jobs_requeued", 0)),
                    work_lost=float(payload.get("work_lost", 0.0)),
                    metadata=dict(payload["metadata"]),
                    table=table,
                )
        except FileNotFoundError:
            return None
        except (
            AttributeError,
            OSError,
            EOFError,
            KeyError,
            TypeError,
            ValueError,
            zipfile.BadZipFile,
        ):
            # TypeError covers a wrong-kind column dtype rejected by
            # JobTable.from_columns' same-kind cast; AttributeError a
            # malformed ``encodings`` map.
            if version_mismatch:
                self.stats.version_dropped += 1
            else:
                self.stats.corrupt_dropped += 1
            self._drop(path)
            return None

    def _write_atomic(self, target: Path, stem: str, raw: bytes) -> None:
        """Publish ``raw`` at ``target`` via temp file + ``os.replace``."""
        target.parent.mkdir(parents=True, exist_ok=True)
        descriptor, tmp_name = tempfile.mkstemp(
            dir=target.parent, prefix=stem, suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(raw)
            os.replace(tmp_name, target)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    @staticmethod
    def _drop(path: Path) -> int:
        try:
            path.unlink()
            return 1
        except OSError:
            return 0


def _is_integer_valued(column: np.ndarray) -> bool:
    """True when a float column casts to ``int64`` provably losslessly.

    Every value must be finite, an exact integer within the 2⁵³
    float64-exact range, and never ``-0.0`` (whose sign bit an integer
    round trip would erase).
    """
    return bool(
        np.all(np.isfinite(column))
        and np.all(np.abs(column) <= 2.0**53)
        and not np.any((column == 0.0) & np.signbit(column))
        and np.array_equal(column, np.rint(column))
    )


def _delta(column: np.ndarray) -> np.ndarray:
    """First-order difference (decoded by ``np.cumsum``)."""
    return np.diff(column, prepend=column.dtype.type(0))


def _pack_columns(
    columns: Dict[str, np.ndarray],
) -> Tuple[Dict[str, np.ndarray], List[str], Dict[str, str]]:
    """Re-encode columns for storage; returns ``(packed, integer_coded, encodings)``.

    Two lossless rewrites, both recorded in the header and inverted by
    :func:`_unpack_columns`:

    * float columns whose values are all exact integers — the common case
      for the time columns of SWF-replay and homogeneous-platform runs,
      where every event lands on a whole second — are downcast to
      ``int64`` (``integer_coded``) and restored to ``float64`` on load;
    * ``int64`` time/id columns are then re-expressed against their
      natural predictor (``encodings``), which collapses their deflate
      entropy: job ids and submit times become first-order deltas
      (``"delta"``), start times become waiting times (``"wait"`` =
      start − submit) and completion times become overruns (``"overrun"``
      = completion − start − runtime, identically zero for completed
      jobs on a speed-1 cluster).  Predictor encodings only apply between
      integer-coded columns, where the arithmetic is exact.
    """
    packed: Dict[str, np.ndarray] = {}
    integer_coded: List[str] = []
    for name, column in columns.items():
        if column.dtype == np.float64 and _is_integer_valued(column):
            packed[name] = column.astype(np.int64)
            integer_coded.append(name)
        else:
            packed[name] = column
    coded = set(integer_coded)
    encodings: Dict[str, str] = {}
    if packed.get("job_id") is not None:
        packed["job_id"] = _delta(packed["job_id"])
        encodings["job_id"] = "delta"
    # Predictor order matters on decode; encode from the raw arrays.
    if "completion_time" in coded and {"start_time", "runtime"} <= coded:
        packed["completion_time"] = (
            packed["completion_time"] - packed["start_time"] - packed["runtime"]
        )
        encodings["completion_time"] = "overrun"
    if "start_time" in coded and "submit_time" in coded:
        packed["start_time"] = packed["start_time"] - packed["submit_time"]
        encodings["start_time"] = "wait"
    if "submit_time" in coded:
        packed["submit_time"] = _delta(packed["submit_time"])
        encodings["submit_time"] = "delta"
    return packed, integer_coded, encodings


def _unpack_columns(
    columns: Dict[str, np.ndarray],
    integer_coded: Iterable[str],
    encodings: Dict[str, str],
) -> Dict[str, np.ndarray]:
    """Invert :func:`_pack_columns` (decode predictors, restore dtypes)."""
    for name, encoding in encodings.items():
        if encoding not in ("delta", "wait", "overrun"):
            raise ValueError(f"unknown column encoding {encoding!r}")
    if encodings.get("submit_time") == "delta":
        columns["submit_time"] = np.cumsum(columns["submit_time"])
    if encodings.get("job_id") == "delta":
        columns["job_id"] = np.cumsum(columns["job_id"])
    if encodings.get("start_time") == "wait":
        columns["start_time"] = columns["start_time"] + columns["submit_time"]
    if encodings.get("completion_time") == "overrun":
        columns["completion_time"] = (
            columns["completion_time"] + columns["start_time"] + columns["runtime"]
        )
    for name in integer_coded:
        columns[name] = columns[name].astype(np.float64)
    return columns


def _npz_bytes(header: Dict[str, Any], columns: Dict[str, np.ndarray]) -> bytes:
    """Serialize a result document as deterministic ``.npz`` bytes.

    A hand-rolled zip instead of :func:`numpy.savez_compressed`: member
    timestamps are pinned to the zip epoch, the creator metadata is fixed,
    and members are emitted in a fixed order (``header.json`` first, then
    one ``.npy`` per column in table column order) at a fixed compression
    level — so equal documents are byte-equal, which the store's
    determinism guarantee and the warm byte-identity CI check rely on.
    The output remains a regular zip: :func:`numpy.load` and ``unzip``
    read it fine.
    """
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_DEFLATED, compresslevel=6) as archive:

        def add_member(name: str, data: bytes) -> None:
            info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
            info.create_system = 3  # unix, independent of the writing host
            info.external_attr = 0o600 << 16
            info.compress_type = zipfile.ZIP_DEFLATED
            archive.writestr(info, data)

        add_member(
            "header.json",
            json.dumps(header, separators=(",", ":"), allow_nan=False).encode("utf-8"),
        )
        for name, column in columns.items():
            member = io.BytesIO()
            np.lib.format.write_array(
                member, np.ascontiguousarray(column), allow_pickle=False
            )
            add_member(f"{name}.npy", member.getvalue())
    return buffer.getvalue()
