"""Persistent, content-addressed storage for experiment results.

The :class:`~repro.store.filestore.ResultStore` keeps one document per
simulated experiment on disk — written as binary columnar ``.npz``, with
legacy JSON documents of earlier versions still read — keyed by a stable
hash of the full :class:`~repro.experiments.config.ExperimentConfig`.  It lets the campaign
engine (:mod:`repro.experiments.campaign`) and the
:class:`~repro.experiments.runner.ExperimentRunner` skip simulations that
were already paid for in a previous process: a warm store regenerates every
table of the paper with zero re-simulations.

* :func:`config_key` — stable content hash of a configuration.
* :class:`ResultStore` — load/save/invalidate of run results and
  comparison metrics, with schema versioning, corrupted-file recovery,
  and advisory claim/release locks (with per-claim heartbeats) for
  concurrent writers sharing one directory.
* :data:`SCHEMA_VERSION` — bumped whenever the serialized layout of
  :class:`~repro.core.results.RunResult` or
  :class:`~repro.core.metrics.ComparisonMetrics` changes; documents
  written under another version are treated as misses and dropped.
* :data:`DEFAULT_STALE_LOCK_SECONDS` — age after which a claim counts as
  dead and may be taken over.
"""

from repro.store.filestore import (
    DEFAULT_STALE_LOCK_SECONDS,
    SCHEMA_VERSION,
    ResultStore,
    StoreStats,
    config_key,
    default_owner,
)

__all__ = [
    "DEFAULT_STALE_LOCK_SECONDS",
    "SCHEMA_VERSION",
    "ResultStore",
    "StoreStats",
    "config_key",
    "default_owner",
]
