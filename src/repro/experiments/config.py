"""Experiment configurations.

An :class:`ExperimentConfig` pins down everything that defines one of the
paper's 364 simulations: the scenario (workload), the platform flavour
(homogeneous or heterogeneous), the local batch policy, whether and how
reallocation runs, and the sizing knobs (scale and seed) specific to this
reproduction.

The paper replays the full traces (up to 133 135 jobs); this reproduction
runs on synthetic traces whose size is controlled by ``scale``.  The
benchmark suite sizes every scenario to roughly
:data:`DEFAULT_BENCH_TARGET_JOBS` jobs via :func:`bench_scale`, so a full
table sweep finishes in minutes on a laptop while preserving the offered
load of each scenario.
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Tuple

if TYPE_CHECKING:  # runtime import would be circular (sweeps -> config)
    from repro.experiments.sweeps import SweepSpec

from repro.core.heuristics import HEURISTIC_NAMES
from repro.grid.reallocation import check_timing
from repro.workload.failures import OUTAGE_SCRIPT_NAMES
from repro.workload.scenarios import SCENARIO_NAMES, get_scenario

#: Approximate number of jobs per scenario used by the benchmark harness.
DEFAULT_BENCH_TARGET_JOBS = 300

#: Batch policies compared by the paper (rows of every table).
BATCH_POLICIES: Tuple[str, ...] = ("fcfs", "cbf")

#: Online mapping policies of the meta-scheduler.  Mirrors
#: :class:`repro.grid.metascheduler.MappingPolicy` (importing the enum
#: here would be circular); a test cross-checks the two stay in sync.
MAPPING_POLICY_NAMES: Tuple[str, ...] = (
    "mct",
    "random",
    "round_robin",
    "less_jobs_in_queue",
    "less_work_left",
)


def bench_scale(scenario_name: str, target_jobs: int = DEFAULT_BENCH_TARGET_JOBS) -> float:
    """Scale factor giving roughly ``target_jobs`` jobs for a scenario.

    The paper's scenarios differ by more than an order of magnitude in job
    count (9 182 to 133 135 jobs); scaling each to the same target keeps
    every benchmark comparable in cost.
    """
    if target_jobs <= 0:
        raise ValueError(f"target_jobs must be positive, got {target_jobs}")
    total = get_scenario(scenario_name).total_jobs
    return min(1.0, target_jobs / total)


def full_trace_target_jobs() -> int:
    """Job target that replays every scenario at its full paper volume.

    Equal to the largest scenario's job count (133 135 jobs in the
    paper's data), so :func:`bench_scale` resolves to 1.0 everywhere.
    Used by the ``campaign run --preset full-trace`` sweep.
    """
    return max(get_scenario(name).total_jobs for name in SCENARIO_NAMES)


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Full description of one simulation run.

    Parameters
    ----------
    scenario:
        Workload scenario name (``jan`` .. ``jun``, ``pwa-g5k``).
    heterogeneous:
        Platform flavour (cluster speed factors of Section 3.2).
    batch_policy:
        Local scheduling policy of every cluster (``fcfs`` or ``cbf``).
    algorithm:
        ``None`` for the baseline (no reallocation), ``"standard"`` for
        Algorithm 1, ``"cancellation"`` for Algorithm 2.
    heuristic:
        Job-selection heuristic of the reallocation agent (ignored for the
        baseline).
    scale:
        Trace scale factor (1.0 = the paper's full volume).
    seed:
        Workload generation seed.
    reallocation_period / reallocation_threshold:
        Timing parameters of the reallocation agent (paper defaults).
    mapping_policy:
        Online mapping policy of the meta-scheduler.
    outage_script:
        ``None`` for the paper's static platforms; otherwise the name of
        a registered outage script (:data:`repro.workload.failures
        .OUTAGE_SCRIPT_NAMES`) that makes the platform *dynamic* — the
        ``dynamic`` scenario family is every scenario crossed with such a
        script.  The script's windows are placed relative to the
        scenario's scaled trace duration, and its stochastic variants
        draw from the run's ``seed``.
    """

    scenario: str
    heterogeneous: bool = False
    batch_policy: str = "fcfs"
    algorithm: Optional[str] = None
    heuristic: str = "mct"
    scale: float = 0.02
    seed: int = 20100326
    reallocation_period: float = 3600.0
    reallocation_threshold: float = 60.0
    mapping_policy: str = "mct"
    outage_script: Optional[str] = None

    def __post_init__(self) -> None:
        # One canonical form (and store key) per equal configuration:
        # ``3600 == 3600.0`` and ``-0.0 == 0.0`` but serialise differently.
        if not (type(self.heterogeneous) is bool and type(self.seed) is int
                and type(self.scale) is type(self.reallocation_period) is float
                and type(self.reallocation_threshold) is float and self.reallocation_threshold):
            object.__setattr__(self, "heterogeneous", bool(self.heterogeneous))
            object.__setattr__(self, "seed", operator.index(self.seed))
            for name in ("scale", "reallocation_period", "reallocation_threshold"):
                object.__setattr__(self, name, float(getattr(self, name)) + 0.0)
        if self.scenario not in SCENARIO_NAMES:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; expected one of {SCENARIO_NAMES}"
            )
        if self.batch_policy not in BATCH_POLICIES:
            raise ValueError(
                f"unknown batch policy {self.batch_policy!r}; expected one of {BATCH_POLICIES}"
            )
        if self.algorithm is not None and self.algorithm not in ("standard", "cancellation"):
            raise ValueError(
                f"algorithm must be None, 'standard' or 'cancellation', got {self.algorithm!r}"
            )
        if self.algorithm is not None and self.heuristic not in HEURISTIC_NAMES:
            raise ValueError(
                f"unknown heuristic {self.heuristic!r}; expected one of {HEURISTIC_NAMES}"
            )
        check_timing(self.reallocation_period, self.reallocation_threshold)
        if self.scale <= 0 or self.scale > 1.0:
            raise ValueError(f"scale must be in (0, 1], got {self.scale}")
        if self.mapping_policy not in MAPPING_POLICY_NAMES:
            raise ValueError(
                f"unknown mapping policy {self.mapping_policy!r}; "
                f"expected one of {MAPPING_POLICY_NAMES}"
            )
        if self.outage_script is not None and self.outage_script not in OUTAGE_SCRIPT_NAMES:
            raise ValueError(
                f"unknown outage script {self.outage_script!r}; "
                f"expected None or one of {OUTAGE_SCRIPT_NAMES}"
            )

    @property
    def is_baseline(self) -> bool:
        """True for the reference experiments without reallocation."""
        return self.algorithm is None

    @property
    def is_dynamic(self) -> bool:
        """True when the run executes on a dynamic (outage-scripted) platform."""
        return self.outage_script is not None

    def baseline(self) -> "ExperimentConfig":
        """The reference configuration this experiment is compared against.

        The reallocation-only knobs (heuristic, period, threshold) are
        normalized to their defaults: a baseline run never consults them,
        and normalizing gives every cell of a period/threshold parameter
        grid the *same* baseline — one simulation and one store document
        instead of one per parameter value.
        """
        return replace(
            self,
            algorithm=None,
            heuristic="mct",
            reallocation_period=3600.0,
            reallocation_threshold=60.0,
        )

    def workload_key(self) -> Tuple[str, bool, float, int]:
        """Key identifying the generated trace (shared by baseline and realloc)."""
        return (self.scenario, self.heterogeneous, self.scale, self.seed)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON representation.

        The dictionary is the canonical form hashed by
        :func:`repro.store.config_key` and shipped across the campaign
        engine's process boundary, so it contains every field that
        influences the simulation outcome.  ``outage_script`` is omitted
        while ``None`` so every static configuration keeps the exact
        canonical form (and store key) it had before dynamic platforms
        existed — warm stores stay warm.
        """
        data = asdict(self)
        if data["outage_script"] is None:
            del data["outage_script"]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentConfig":
        """Inverse of :meth:`to_dict` (re-validates via ``__post_init__``).

        Keys the configuration does not have are ignored — notably the
        ``profile_engine`` that older versions recorded for an explicit
        engine request, whatever its value: the engines are
        float-identical and the engine now follows the batch policy.
        """
        return cls(
            scenario=data["scenario"],
            heterogeneous=bool(data["heterogeneous"]),
            batch_policy=data["batch_policy"],
            algorithm=data["algorithm"],
            heuristic=data["heuristic"],
            scale=float(data["scale"]),
            seed=int(data["seed"]),
            reallocation_period=float(data["reallocation_period"]),
            reallocation_threshold=float(data["reallocation_threshold"]),
            mapping_policy=data["mapping_policy"],
            outage_script=data.get("outage_script"),
        )

    def label(self) -> str:
        """Short human-readable identifier."""
        flavour = "heter" if self.heterogeneous else "homog"
        if self.outage_script is not None:
            flavour = f"{flavour}+{self.outage_script}"
        if self.is_baseline:
            return f"{self.scenario}/{flavour}/{self.batch_policy}/baseline"
        return (
            f"{self.scenario}/{flavour}/{self.batch_policy}/"
            f"{self.algorithm}/{self.heuristic}"
        )


@dataclass(frozen=True, slots=True)
class SweepConfig:
    """Parameters of a full table sweep (one of the paper's four groups).

    A sweep covers all seven scenarios, both batch policies and all six
    heuristics for one reallocation algorithm on one platform flavour —
    i.e. one quarter of the paper's experiments, feeding four tables.
    """

    algorithm: str
    heterogeneous: bool
    scenarios: Tuple[str, ...] = SCENARIO_NAMES
    batch_policies: Tuple[str, ...] = BATCH_POLICIES
    heuristics: Tuple[str, ...] = HEURISTIC_NAMES
    target_jobs: int = DEFAULT_BENCH_TARGET_JOBS
    seed: int = 20100326
    reallocation_period: float = 3600.0
    reallocation_threshold: float = 60.0
    mapping_policy: str = "mct"

    def __post_init__(self) -> None:
        if self.algorithm not in ("standard", "cancellation"):
            raise ValueError(
                f"algorithm must be 'standard' or 'cancellation', got {self.algorithm!r}"
            )

    def to_spec(self) -> "SweepSpec":
        """This sweep as a declarative :class:`~repro.experiments.sweeps.SweepSpec`.

        The spec's fixed expansion order (scenario, then batch policy,
        then heuristic, with every other axis a singleton) reproduces the
        historical ``configs()`` order exactly.
        """
        from repro.experiments.sweeps import SweepSpec  # circular at import time

        flavour = "heterogeneous" if self.heterogeneous else "homogeneous"
        return SweepSpec(
            name=f"paper-{self.algorithm}-{flavour}",
            scenarios=self.scenarios,
            platforms=(self.heterogeneous,),
            batch_policies=self.batch_policies,
            algorithms=(self.algorithm,),
            heuristics=self.heuristics,
            reallocation_periods=(self.reallocation_period,),
            reallocation_thresholds=(self.reallocation_threshold,),
            mapping_policies=(self.mapping_policy,),
            target_jobs=self.target_jobs,
            seed=self.seed,
        )

    def configs(self) -> list[ExperimentConfig]:
        """Every reallocation configuration of the sweep."""
        return self.to_spec().configs()
