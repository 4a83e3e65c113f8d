"""Declarative sweep campaigns.

A :class:`SweepSpec` is a *named parameter grid* over every knob an
:class:`~repro.experiments.config.ExperimentConfig` exposes: scenario,
platform flavour, batch policy, reallocation algorithm and heuristic, the
reallocation period and threshold, the meta-scheduler mapping policy, and
the trace fraction.  It expands **deterministically** (fixed nested-loop
order, documented on :meth:`SweepSpec.cells`) into the exact set of
experiment configurations of the campaign, and — via
:func:`~repro.experiments.campaign.plan_units` — into the executable unit
list with every shared baseline deduplicated.

The spec is the single source of truth consumed by

* the paper's own table sweeps (:class:`~repro.experiments.config.
  SweepConfig` delegates its expansion here),
* the named campaigns of the CLI (``repro campaign sweep <name>`` /
  ``repro campaign worker --sweep <name>``),
* the ablation benchmarks (which previously hand-rolled their config
  lists), and
* the sweep reports (best cell + per-axis marginals) in
  :mod:`repro.experiments.tables`, which reuse the per-cell axis
  coordinates the expansion emits.

Built-in sweeps are registered in :data:`SWEEP_REGISTRY`; look one up
with :func:`get_sweep`, which also rescales it to a different
``target_jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.core.heuristics import HEURISTIC_NAMES
from repro.experiments.config import (
    BATCH_POLICIES,
    DEFAULT_BENCH_TARGET_JOBS,
    MAPPING_POLICY_NAMES,
    ExperimentConfig,
    bench_scale,
)
from repro.workload.failures import OUTAGE_SCRIPT_NAMES
from repro.workload.scenarios import SCENARIO_NAMES

#: Reallocation algorithms a sweep may grid over (baselines are derived,
#: never requested, so ``None`` is not a valid axis value).
ALGORITHM_NAMES: Tuple[str, ...] = ("standard", "cancellation")

#: Axis names, in expansion (outer-to-inner loop) order.
AXIS_NAMES: Tuple[str, ...] = (
    "scenario",
    "platform",
    "outage",
    "batch_policy",
    "algorithm",
    "heuristic",
    "reallocation_period",
    "reallocation_threshold",
    "mapping_policy",
    "trace_fraction",
)


def _check_axis(name: str, values: Tuple[Any, ...], valid: Optional[Tuple[Any, ...]] = None) -> None:
    if not values:
        raise ValueError(f"sweep axis {name!r} must have at least one value")
    if len(set(values)) != len(values):
        raise ValueError(f"sweep axis {name!r} has duplicate values: {values}")
    if valid is not None:
        for value in values:
            if value not in valid:
                raise ValueError(
                    f"unknown {name} value {value!r}; expected one of {valid}"
                )


@dataclass(frozen=True, slots=True)
class SweepSpec:
    """A named, declarative parameter grid of experiment configurations.

    Parameters
    ----------
    name:
        Identifier used by the CLI and the sweep reports.
    description:
        One-line human description (shown by ``campaign sweep --list``).
    scenarios / platforms / batch_policies / algorithms / heuristics /
    reallocation_periods / reallocation_thresholds / mapping_policies:
        The grid axes.  ``platforms`` holds ``heterogeneous`` flags.
    outages:
        Outage-script axis of the ``dynamic`` scenario family: ``None``
        is the paper's static platform, a script name applies that
        outage script to every cell of the coordinate.
    trace_fractions:
        Fractions of the sweep's base trace volume, each in (0, 1]: the
        scale of a cell is ``bench_scale(scenario, target_jobs) *
        fraction``.  1.0 reproduces the historical sizing exactly.
    target_jobs:
        Approximate jobs per scenario at fraction 1.0 (drives the
        per-scenario scale factors, and therefore the config keys).
    seed:
        Workload generation seed shared by every cell.
    """

    name: str
    description: str = ""
    scenarios: Tuple[str, ...] = SCENARIO_NAMES
    platforms: Tuple[bool, ...] = (False,)
    batch_policies: Tuple[str, ...] = BATCH_POLICIES
    algorithms: Tuple[str, ...] = ("standard",)
    heuristics: Tuple[str, ...] = ("mct",)
    reallocation_periods: Tuple[float, ...] = (3600.0,)
    reallocation_thresholds: Tuple[float, ...] = (60.0,)
    mapping_policies: Tuple[str, ...] = ("mct",)
    outages: Tuple[Optional[str], ...] = (None,)
    trace_fractions: Tuple[float, ...] = (1.0,)
    target_jobs: int = DEFAULT_BENCH_TARGET_JOBS
    seed: int = 20100326

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a sweep needs a non-empty name")
        _check_axis("scenario", self.scenarios, SCENARIO_NAMES)
        _check_axis("platform", self.platforms, (False, True))
        _check_axis("batch_policy", self.batch_policies, BATCH_POLICIES)
        _check_axis("algorithm", self.algorithms, ALGORITHM_NAMES)
        _check_axis("heuristic", self.heuristics, HEURISTIC_NAMES)
        _check_axis("reallocation_period", self.reallocation_periods)
        _check_axis("reallocation_threshold", self.reallocation_thresholds)
        _check_axis("mapping_policy", self.mapping_policies, MAPPING_POLICY_NAMES)
        _check_axis("outage", self.outages, (None,) + OUTAGE_SCRIPT_NAMES)
        _check_axis("trace_fraction", self.trace_fractions)
        for fraction in self.trace_fractions:
            if not 0.0 < fraction <= 1.0:
                raise ValueError(f"trace fractions must be in (0, 1], got {fraction}")
        for period in self.reallocation_periods:
            if period <= 0:
                raise ValueError(f"reallocation periods must be positive, got {period}")
        for threshold in self.reallocation_thresholds:
            if threshold < 0:
                raise ValueError(f"reallocation thresholds must be >= 0, got {threshold}")
        if self.target_jobs <= 0:
            raise ValueError(f"target_jobs must be positive, got {self.target_jobs}")

    # ------------------------------------------------------------------ #
    # Expansion                                                          #
    # ------------------------------------------------------------------ #
    def axes(self) -> Dict[str, Tuple[Any, ...]]:
        """Axis name -> values, in expansion order."""
        return {
            "scenario": self.scenarios,
            "platform": self.platforms,
            "batch_policy": self.batch_policies,
            "algorithm": self.algorithms,
            "heuristic": self.heuristics,
            "reallocation_period": self.reallocation_periods,
            "reallocation_threshold": self.reallocation_thresholds,
            "mapping_policy": self.mapping_policies,
            # ``None`` renders as "static" so coordinates (and the sweep
            # report's marginals) read naturally.
            "outage": tuple(outage or "static" for outage in self.outages),
            "trace_fraction": self.trace_fractions,
        }

    def varying_axes(self) -> Dict[str, Tuple[Any, ...]]:
        """The axes actually gridded over (more than one value)."""
        return {name: values for name, values in self.axes().items() if len(values) > 1}

    def cells(self) -> List[Tuple[ExperimentConfig, Dict[str, Any]]]:
        """Every cell of the grid, with its axis coordinates.

        Expansion is a fixed nested loop — scenario, platform, outage
        script, batch policy, algorithm, heuristic, period, threshold,
        mapping policy, trace fraction, outer to inner — so the cell order
        (and with it claim order, store layout and report order) is
        deterministic.
        """
        result: List[Tuple[ExperimentConfig, Dict[str, Any]]] = []
        for scenario in self.scenarios:
            base_scale = bench_scale(scenario, self.target_jobs)
            for heterogeneous in self.platforms:
                for outage in self.outages:
                    for batch_policy in self.batch_policies:
                        for algorithm in self.algorithms:
                            for heuristic in self.heuristics:
                                for period in self.reallocation_periods:
                                    for threshold in self.reallocation_thresholds:
                                        for mapping in self.mapping_policies:
                                            for fraction in self.trace_fractions:
                                                config = ExperimentConfig(
                                                    scenario=scenario,
                                                    heterogeneous=heterogeneous,
                                                    batch_policy=batch_policy,
                                                    algorithm=algorithm,
                                                    heuristic=heuristic,
                                                    scale=base_scale * fraction,
                                                    seed=self.seed,
                                                    reallocation_period=period,
                                                    reallocation_threshold=threshold,
                                                    mapping_policy=mapping,
                                                    outage_script=outage,
                                                )
                                                coords = {
                                                    "scenario": scenario,
                                                    "platform": "heterogeneous"
                                                    if heterogeneous
                                                    else "homogeneous",
                                                    "outage": outage or "static",
                                                    "batch_policy": batch_policy,
                                                    "algorithm": algorithm,
                                                    "heuristic": heuristic,
                                                    "reallocation_period": period,
                                                    "reallocation_threshold": threshold,
                                                    "mapping_policy": mapping,
                                                    "trace_fraction": fraction,
                                                }
                                                result.append((config, coords))
        return result

    def configs(self) -> List[ExperimentConfig]:
        """The reallocation configurations of the grid, in cell order."""
        return [config for config, _ in self.cells()]

    def units(self) -> List[ExperimentConfig]:
        """Executable units: configs plus deduplicated baselines."""
        from repro.experiments.campaign import plan_units  # circular at import time

        return plan_units(self.configs())


def paper_sweep(
    algorithm: str,
    heterogeneous: bool,
    target_jobs: int = DEFAULT_BENCH_TARGET_JOBS,
) -> SweepSpec:
    """One of the paper's four table sweeps as a declarative grid.

    Covers all seven scenarios, both batch policies and all six heuristics
    for one reallocation algorithm on one platform flavour — the 84 cells
    feeding four of the paper's tables.
    """
    flavour = "heterogeneous" if heterogeneous else "homogeneous"
    return SweepSpec(
        name=f"paper-{algorithm}-{flavour}",
        description=f"Paper tables: Algorithm {'2' if algorithm == 'cancellation' else '1'} "
        f"on the {flavour} platforms (84 cells)",
        scenarios=SCENARIO_NAMES,
        platforms=(heterogeneous,),
        batch_policies=BATCH_POLICIES,
        algorithms=(algorithm,),
        heuristics=HEURISTIC_NAMES,
        target_jobs=target_jobs,
    )


def _builtin_sweeps() -> Dict[str, SweepSpec]:
    sweeps = [
        paper_sweep("standard", False),
        paper_sweep("standard", True),
        paper_sweep("cancellation", False),
        paper_sweep("cancellation", True),
        SweepSpec(
            name="paper",
            description="All 336 reallocation cells of the paper's 17 tables",
            scenarios=SCENARIO_NAMES,
            platforms=(False, True),
            batch_policies=BATCH_POLICIES,
            algorithms=ALGORITHM_NAMES,
            heuristics=HEURISTIC_NAMES,
        ),
        SweepSpec(
            name="period-grid",
            description="Reallocation period beyond the paper's fixed hour "
            "(15 min to 4 h)",
            scenarios=("feb", "may"),
            batch_policies=BATCH_POLICIES,
            algorithms=("standard",),
            heuristics=("mct", "minmin"),
            reallocation_periods=(900.0, 1800.0, 3600.0, 7200.0, 14_400.0),
        ),
        SweepSpec(
            name="threshold-grid",
            description="Minimum ECT improvement required to move a job "
            "(0 s to 10 min)",
            scenarios=("jun",),
            batch_policies=BATCH_POLICIES,
            algorithms=("standard",),
            heuristics=("mct",),
            reallocation_thresholds=(0.0, 30.0, 60.0, 300.0, 600.0),
        ),
        SweepSpec(
            name="mapping-grid",
            description="Meta-scheduler mapping policies beyond MCT, with "
            "both reallocation algorithms",
            scenarios=("feb",),
            batch_policies=("fcfs",),
            algorithms=ALGORITHM_NAMES,
            heuristics=("minmin",),
            mapping_policies=MAPPING_POLICY_NAMES,
        ),
        SweepSpec(
            name="outage-grid",
            description="Dynamic platforms: every paper scenario under each "
            "outage script (maintenance, degraded, join-leave, flaky)",
            scenarios=SCENARIO_NAMES,
            batch_policies=BATCH_POLICIES,
            algorithms=("standard",),
            heuristics=("mct",),
            outages=OUTAGE_SCRIPT_NAMES,
        ),
        SweepSpec(
            name="trace-fraction-grid",
            description="Trace volume sensitivity: quarter, half and full "
            "benchmark volume",
            scenarios=("jan",),
            batch_policies=BATCH_POLICIES,
            algorithms=("standard",),
            heuristics=("mct",),
            trace_fractions=(0.25, 0.5, 1.0),
        ),
    ]
    return {sweep.name: sweep for sweep in sweeps}


#: Built-in named sweeps, keyed by name.
SWEEP_REGISTRY: Dict[str, SweepSpec] = _builtin_sweeps()

#: Sorted names of the built-in sweeps (CLI choices).
SWEEP_NAMES: Tuple[str, ...] = tuple(sorted(SWEEP_REGISTRY))


def get_sweep(name: str, target_jobs: Optional[int] = None) -> SweepSpec:
    """Look up a built-in sweep, optionally rescaled to ``target_jobs``."""
    try:
        spec = SWEEP_REGISTRY[name]
    except KeyError as exc:
        valid = ", ".join(SWEEP_NAMES)
        raise ValueError(f"unknown sweep {name!r}; expected one of {valid}") from exc
    if target_jobs is not None and target_jobs != spec.target_jobs:
        spec = replace(spec, target_jobs=target_jobs)
    return spec
