"""End-to-end grid simulation.

:class:`GridSimulation` wires the full stack of the paper's experimental
setup on top of the simulation kernel:

* one :class:`~repro.batch.server.BatchServer` per cluster of the platform,
  all using the same local scheduling policy (FCFS or CBF, as in the
  paper);
* the :class:`~repro.grid.metascheduler.MetaScheduler` agent mapping each
  incoming job with MCT;
* a :class:`~repro.grid.client.TraceClient` replaying the workload;
* optionally a :class:`~repro.grid.reallocation.ReallocationAgent` firing
  every hour.

Running the simulation returns a :class:`~repro.core.results.RunResult`
that the metrics layer compares against the baseline (no reallocation) run
of the same trace.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.batch.job import Job
from repro.batch.policies import BatchPolicy
from repro.batch.server import BatchServer
from repro.core.heuristics import Heuristic
from repro.core.results import RunResult
from repro.grid.client import TraceClient
from repro.grid.metascheduler import MappingPolicy, MetaScheduler
from repro.grid.reallocation import (
    DEFAULT_PERIOD,
    DEFAULT_THRESHOLD,
    ReallocationAgent,
    ReallocationAlgorithm,
)
from repro.platform.spec import PlatformSpec
from repro.sim.kernel import SimulationKernel
from repro.sim.trace import EventTrace


class GridSimulation:
    """One complete simulated experiment.

    Parameters
    ----------
    platform:
        Platform description (clusters, sizes, speed factors).
    jobs:
        The workload trace.  Jobs are *not* copied: their dynamic state is
        reset before the simulation starts, and their final state is
        snapshotted into the returned :class:`RunResult`.
    batch_policy:
        Local scheduling policy used by every cluster (FCFS or CBF).
    mapping_policy:
        Online mapping policy of the meta-scheduler (MCT in the paper).
    reallocation:
        ``None`` for the baseline run, otherwise the reallocation algorithm
        to use.
    heuristic:
        Job-selection heuristic of the reallocation agent.
    reallocation_period / reallocation_threshold:
        Trigger period and minimum-improvement threshold of the agent.
    mapping_seed:
        Seed of the Random mapping policy.
    record_events:
        When true, an :class:`EventTrace` is attached to the kernel and
        exposed as :attr:`event_trace`.
    """

    def __init__(
        self,
        platform: PlatformSpec,
        jobs: Sequence[Job],
        batch_policy: "BatchPolicy | str" = BatchPolicy.FCFS,
        mapping_policy: "MappingPolicy | str" = MappingPolicy.MCT,
        reallocation: "ReallocationAlgorithm | str | None" = None,
        heuristic: "str | Heuristic" = "mct",
        reallocation_period: float = DEFAULT_PERIOD,
        reallocation_threshold: float = DEFAULT_THRESHOLD,
        mapping_seed: int = 0,
        record_events: bool = False,
    ) -> None:
        self.platform = platform
        self.jobs: List[Job] = list(jobs)
        self.batch_policy = (
            BatchPolicy(batch_policy.lower()) if isinstance(batch_policy, str) else batch_policy
        )
        self.mapping_policy = (
            MappingPolicy(mapping_policy.lower())
            if isinstance(mapping_policy, str)
            else mapping_policy
        )
        if isinstance(reallocation, str):
            reallocation = ReallocationAlgorithm(reallocation.lower())
        self.reallocation = reallocation
        self.heuristic = heuristic
        self.reallocation_period = reallocation_period
        self.reallocation_threshold = reallocation_threshold
        self.mapping_seed = mapping_seed

        self.event_trace: Optional[EventTrace] = EventTrace() if record_events else None
        self.kernel = SimulationKernel(trace=self.event_trace)
        self.servers: List[BatchServer] = [
            BatchServer(
                self.kernel,
                spec.name,
                spec.procs,
                spec.speed,
                policy=self.batch_policy,
                on_completion=self._on_completion,
                timeline=spec.timeline,
            )
            for spec in platform
        ]
        self.metascheduler = MetaScheduler(
            self.servers,
            policy=self.mapping_policy,
            rng=np.random.default_rng(mapping_seed),
        )
        self.client = TraceClient(self.kernel, self.metascheduler, self.jobs)
        self.reallocation_agent: Optional[ReallocationAgent] = None
        if reallocation is not None:
            self.reallocation_agent = ReallocationAgent(
                self.kernel,
                self.servers,
                heuristic=heuristic,
                algorithm=reallocation,
                period=reallocation_period,
                threshold=reallocation_threshold,
                has_pending_work=self._has_pending_work,
            )
        self._completed = 0
        self._ran = False

    # ------------------------------------------------------------------ #
    # Callbacks                                                          #
    # ------------------------------------------------------------------ #
    def _on_completion(self, job: Job) -> None:
        self._completed += 1

    def _has_pending_work(self) -> bool:
        # Every job ends either completed or rejected, each counted once.
        return self._completed < len(self.jobs) - self.metascheduler.rejected_count

    # ------------------------------------------------------------------ #
    # Execution                                                          #
    # ------------------------------------------------------------------ #
    def run(self, until: Optional[float] = None) -> RunResult:
        """Run the experiment to completion and return its result.

        A simulation object is single-use: call :meth:`run` once.
        """
        if self._ran:
            raise RuntimeError("GridSimulation.run() may only be called once per instance")
        self._ran = True
        for job in self.jobs:
            job.reset_dynamic_state()
        self.client.start()
        if self.reallocation_agent is not None and self.jobs:
            self.reallocation_agent.start(self.client.first_submit_time or 0.0)
        self.kernel.run(until=until)
        return self._build_result()

    def _build_result(self) -> RunResult:
        label = self._label()
        total_moves = (
            self.reallocation_agent.total_reallocations if self.reallocation_agent else 0
        )
        tick_count = self.reallocation_agent.tick_count if self.reallocation_agent else 0
        metadata: Dict[str, object] = {
            "platform": self.platform.name,
            "batch_policy": str(self.batch_policy),
            "mapping_policy": str(self.mapping_policy),
            "reallocation": str(self.reallocation) if self.reallocation else "none",
            "heuristic": self.heuristic if isinstance(self.heuristic, str) else self.heuristic.name,
            "reallocation_period": self.reallocation_period,
            "reallocation_threshold": self.reallocation_threshold,
            "n_jobs": len(self.jobs),
            "rejected": self.metascheduler.rejected_count,
        }
        if self.platform.is_dynamic:
            metadata["dynamic_platform"] = True
            metadata["capacity_changes"] = sum(s.capacity_changes for s in self.servers)
        return RunResult.from_jobs(
            label,
            self.jobs,
            total_reallocations=total_moves,
            reallocation_events=tick_count,
            jobs_killed_by_outage=sum(s.outage_killed_count for s in self.servers),
            jobs_requeued=sum(s.requeued_count for s in self.servers),
            work_lost=sum(s.work_lost for s in self.servers),
            metadata=metadata,
        )

    def _label(self) -> str:
        if self.reallocation is None:
            return f"{self.platform.name}/{self.batch_policy}/no-reallocation"
        heuristic_name = (
            self.heuristic if isinstance(self.heuristic, str) else self.heuristic.name
        )
        return (
            f"{self.platform.name}/{self.batch_policy}/"
            f"{self.reallocation}/{heuristic_name}"
        )
