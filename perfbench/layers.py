"""The layers of ``repro`` the traced run attributes time to.

:func:`install` wraps the public entry point of each layer;
:func:`layer_metrics` turns the tracer's counters into the per-layer
metrics of ``BENCHMARK.json``.  Time metrics (``*.s``, ``*_s``) are self
times: the time of a layer's own calls minus the wrapped calls made
inside them, so the layers of one traced unit add up to its wall time
(the remainder is unwrapped code, mostly the benchmark's own).
"""

from __future__ import annotations

import importlib
from pathlib import Path
from typing import Dict, Mapping

from perfbench.tracer import LayerTracer


def _one(args: tuple, kwargs: dict, result: object) -> int:
    return 1


def _jobs_arg(args: tuple, kwargs: dict, result: object) -> int:
    return len(args[1]) if len(args) > 1 else len(kwargs["jobs"])


def _moves(args: tuple, kwargs: dict, result: object) -> int:
    return int(result)


def _hit(args: tuple, kwargs: dict, result: object) -> int:
    return int(result is not None)


def _bytes_written(args: tuple, kwargs: dict, result: object) -> int:
    try:
        return Path(result).stat().st_size
    except (OSError, TypeError):
        return 0


def _fired_events(kernel: object) -> int:
    return kernel.fired_events


#: Traced entry points: (module, class -- ``None`` for a module function --,
#: attribute, layer, wrapper options).
ENTRY_POINTS = (
    ("repro.sim.kernel", "SimulationKernel", "run", "sim", {"delta": _fired_events}),
    ("repro.batch.server", "BatchServer", "submit", "batch.submit", {"items": _one}),
    ("repro.batch.server", "BatchServer", "submit_many", "batch.submit", {"items": _jobs_arg}),
    ("repro.batch.server", "BatchServer", "cancel", "batch.cancel", {}),
    ("repro.batch.server", "BatchServer", "estimate_completion", "batch.estimate",
     {"items": _one}),
    ("repro.batch.server", "BatchServer", "estimate_completion_many", "batch.estimate",
     {"items": _jobs_arg}),
    *(
        ("repro.batch.policies", "IncrementalPlanner", method, f"planner.{method}", {})
        for method in ("replan_all", "cancel", "submit", "job_finished", "advance")
    ),
    ("repro.batch.schedule", "IncrementalPlan", "place", "plan.place", {"timed": False}),
    ("repro.grid.metascheduler", "MetaScheduler", "submit", "grid.map", {}),
    ("repro.grid.metascheduler", "MetaScheduler", "submit_many", "grid.map", {}),
    ("repro.grid.reallocation", "ReallocationAgent", "run_once", "realloc.tick",
     {"items": _moves}),
    ("repro.grid.reallocation", "ReallocationEngine", "sync_waiting", "realloc.sync", {}),
    ("repro.grid.reallocation", "ReallocationEngine", "sync_cancelled", "realloc.sync", {}),
    ("repro.workload.scenarios", "Scenario", "generate", "workload.synth", {}),
    ("repro.store.filestore", "ResultStore", "put_result", "store.put",
     {"items": _bytes_written}),
    ("repro.store.filestore", "ResultStore", "put_metrics", "store.put",
     {"items": _bytes_written}),
    ("repro.store.filestore", "ResultStore", "get_result", "store.get", {"items": _hit}),
    ("repro.store.filestore", "ResultStore", "get_metrics", "store.get", {"items": _hit}),
    ("repro.service.service", "MetaSchedulerService", "offer", "service.offer", {}),
    ("repro.experiments.campaign", None, "execute_config", "campaign.sim", {}),
    ("repro.core.metrics", None, "compare_tables", "metrics.compare", {}),
)


def install(tracer: LayerTracer) -> None:
    """Wrap every traced entry point of ``repro`` (undo with ``tracer.restore()``).

    An entry point that no longer exists raises, so the traced unit fails
    instead of reporting the layer as 0.
    """
    for module_name, owner_name, attr, layer, options in ENTRY_POINTS:
        if owner_name is None:
            tracer.wrap_function(module_name, attr, layer, **options)
        else:
            owner = getattr(importlib.import_module(module_name), owner_name)
            tracer.wrap_method(owner, attr, layer, **options)


#: Per-layer metric name -> (counter, layer); ``max_ms`` is the longest
#: single call in milliseconds, inclusive of its children.
TRACED_METRICS: Dict[str, tuple] = {
    "sim.events": ("items", "sim"),
    "sim.self_s": ("self_s", "sim"),
    "batch.submit.calls": ("calls", "batch.submit"),
    "batch.submit.s": ("self_s", "batch.submit"),
    "batch.cancel.calls": ("calls", "batch.cancel"),
    "batch.cancel.s": ("self_s", "batch.cancel"),
    "batch.estimate.calls": ("calls", "batch.estimate"),
    "batch.estimate.jobs": ("items", "batch.estimate"),
    "batch.estimate.s": ("self_s", "batch.estimate"),
    "planner.replan_all.calls": ("calls", "planner.replan_all"),
    "planner.replan_all.s": ("self_s", "planner.replan_all"),
    "planner.cancel.s": ("self_s", "planner.cancel"),
    "planner.submit.s": ("self_s", "planner.submit"),
    "planner.job_finished.s": ("self_s", "planner.job_finished"),
    "planner.advance.s": ("self_s", "planner.advance"),
    "plan.place.calls": ("calls", "plan.place"),
    "grid.map.calls": ("calls", "grid.map"),
    "grid.map.s": ("self_s", "grid.map"),
    "realloc.ticks": ("calls", "realloc.tick"),
    "realloc.moves": ("items", "realloc.tick"),
    "realloc.tick.s": ("self_s", "realloc.tick"),
    "realloc.tick_max_ms": ("max_ms", "realloc.tick"),
    "realloc.sync.s": ("self_s", "realloc.sync"),
    "campaign.sims": ("calls", "campaign.sim"),
    "campaign.sim.s": ("self_s", "campaign.sim"),
    "metrics.compare.s": ("self_s", "metrics.compare"),
    "workload.synth.calls": ("calls", "workload.synth"),
    "workload.synth.s": ("self_s", "workload.synth"),
    "store.put.calls": ("calls", "store.put"),
    "store.put.bytes": ("items", "store.put"),
    "store.put.s": ("self_s", "store.put"),
    "store.get.calls": ("calls", "store.get"),
    "store.get.hits": ("items", "store.get"),
    "store.get.s": ("self_s", "store.get"),
    "service.offer.s": ("self_s", "service.offer"),
}

#: Per-layer metrics a workload reports itself (0 where it has none).
WORKLOAD_LAYER_METRICS = ("tables.warm_s", "service.admit_passes", "loadgen.send_s")


def layer_metrics(
    snapshot: Mapping[str, Mapping[str, float]], extra: Mapping[str, float]
) -> Dict[str, float]:
    """Per-layer metrics of one traced unit; layers never called read 0."""
    metrics: Dict[str, float] = {}
    for name, (counter, layer) in TRACED_METRICS.items():
        if counter == "max_ms":
            metrics[name] = 1e3 * snapshot["max_s"].get(layer, 0.0)
        else:
            metrics[name] = snapshot[counter].get(layer, 0)
    for name in WORKLOAD_LAYER_METRICS:
        metrics[name] = extra.get(name, 0)
    return metrics
