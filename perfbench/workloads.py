"""The four benchmark workloads.

Each workload is driven in three steps, and only the middle one is timed
as the unit's wall time:

* ``setup(seed)`` builds the inputs from the seed plus the platform and
  the program objects one unit consumes (timed separately: ``setup_s``);
* ``run(state)`` is the work a user waits for;
* ``outcome(state, raw)`` digests and checks what the unit produced.

The inputs never depend on anything but the seed and the workload's
fixed size, so the same seed gives the same inputs and outputs.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import io
import json
import math
import re
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Paper scenario and platform flavour of the cells.
CELL_SCENARIO = "jan"
#: Largest shift of a cell job's submission time drawn from the seed.
CELL_JITTER_S = 10.0
#: Service burst: scheduling policy and reallocation heartbeat (virtual s).
SERVICE_POLICY = "cbf"
SERVICE_REALLOCATION_INTERVAL = 0.05
#: Seed of the fixed base burst, its largest request, and the largest
#: relative runtime change the workload seed draws.
BURST_BASE_SEED = 20100326
BURST_MAX_PROCS = 64
BURST_RUNTIME_JITTER = 0.01


def digest(document: Any) -> str:
    """SHA-256 of a JSON-serialisable document in canonical form."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def jobs_digest(jobs: Sequence[Any]) -> str:
    """Digest of the static fields of a job list (what a trace *is*)."""
    return digest(
        [
            [job.job_id, job.submit_time, job.procs, job.runtime, job.walltime, job.origin_site]
            for job in jobs
        ]
    )


@dataclass
class Outcome:
    """What one unit produced, and whether it is right."""

    #: digest of the unit's output (identical for every unit of one seed)
    output: str
    #: counts recorded next to the digest in the references
    summary: Dict[str, Any]
    #: broken invariants; an empty list means the unit is correct
    problems: List[str] = field(default_factory=list)
    #: latency of each request the unit served, in seconds
    latencies_s: List[float] = field(default_factory=list)
    #: jobs the unit handled (numerator of ``jobs_per_s``)
    jobs: int = 0
    #: per-layer metrics only the workload can measure
    extra: Dict[str, float] = field(default_factory=dict)


class Workload:
    """Interface of a benchmark workload (see the module docstring)."""

    name = ""

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def run(self, state: Any) -> Any:
        raise NotImplementedError

    def outcome(self, state: Any, raw: Any, wall_s: float) -> Outcome:
        raise NotImplementedError

    def inputs_digest(self, state: Any) -> str:
        """Digest of the generated inputs (computed once per run, untimed)."""
        raise NotImplementedError

    def engines(self, state: Any) -> Dict[str, Any]:
        """Profile engine and kernel queue the program actually used."""
        raise NotImplementedError

    def teardown(self, state: Any) -> None:
        """Release what ``setup`` acquired (called even when a unit fails)."""


def _engines_of(kernel: Any, servers: Sequence[Any]) -> Dict[str, Any]:
    return {
        "kernel_queue": kernel.queue_kind,
        "profile_engine": sorted({server.cluster.profile_engine for server in servers}),
    }


# ---------------------------------------------------------------------- #
# Paper cells                                                            #
# ---------------------------------------------------------------------- #
@dataclass
class CellState:
    jobs: List[Any]
    simulation: Any


class CellWorkload(Workload):
    """One ``GridSimulation`` of a paper scenario.

    The trace is the scenario's own (the paper's) at ``scale`` on the
    heterogeneous platform; the seed jitters every submission by up to
    :data:`CELL_JITTER_S` seconds.  Fresh traces per seed would change a
    cell's cost up to fivefold, which would drown any change of the
    program in input noise; the jitter gives every seed distinct inputs
    and outputs of equal cost.
    """

    def __init__(
        self,
        name: str,
        batch_policy: str,
        algorithm: Optional[str],
        scale: float,
    ) -> None:
        self.name = name
        self.batch_policy = batch_policy
        self.algorithm = algorithm
        self.scale = scale

    def trace(self, seed: int) -> Tuple[Any, List[Any]]:
        from repro.batch.job import Job
        from repro.platform.catalog import platform_for_scenario
        from repro.workload.scenarios import get_scenario

        platform = platform_for_scenario(CELL_SCENARIO, heterogeneous=True)
        base = get_scenario(CELL_SCENARIO).generate(platform, scale=self.scale)
        offsets = np.random.default_rng(seed).uniform(0.0, CELL_JITTER_S, len(base))
        jobs = [
            Job(
                job_id=job.job_id,
                submit_time=job.submit_time + float(offset),
                procs=job.procs,
                runtime=job.runtime,
                walltime=job.walltime,
                origin_site=job.origin_site,
            )
            for job, offset in zip(base, offsets)
        ]
        return platform, jobs

    def setup(self, seed: int) -> CellState:
        from repro.grid.simulation import GridSimulation

        platform, jobs = self.trace(seed)
        simulation = GridSimulation(
            platform,
            jobs,
            batch_policy=self.batch_policy,
            reallocation=self.algorithm,
            heuristic="mct",
        )
        return CellState(jobs, simulation)

    def run(self, state: CellState) -> Any:
        return state.simulation.run()

    def inputs_digest(self, state: CellState) -> str:
        return jobs_digest(state.jobs)

    def engines(self, state: CellState) -> Dict[str, Any]:
        return _engines_of(state.simulation.kernel, state.simulation.servers)

    def outcome(self, state: CellState, result: Any, wall_s: float) -> Outcome:
        from repro.batch.job import JobState

        summary = {
            "jobs": len(state.jobs),
            "moves": result.total_reallocations,
            "ticks": result.reallocation_events,
        }
        problems: List[str] = []
        if len(result) != len(state.jobs):
            problems.append(f"result holds {len(result)} of {len(state.jobs)} jobs")
        unfinished = sum(job.state is not JobState.COMPLETED for job in state.jobs)
        if unfinished:
            problems.append(f"{unfinished} jobs did not complete")
        early = sum(
            job.start_time is None
            or job.start_time < job.submit_time
            or job.completion_time < job.start_time
            for job in state.jobs
        )
        if early:
            problems.append(f"{early} jobs start before submission or end before start")
        moved = sum(job.reallocation_count for job in state.jobs)
        if moved != result.total_reallocations:
            problems.append(f"jobs record {moved} moves, the agent {result.total_reallocations}")
        if self.algorithm is None and (result.total_reallocations or result.reallocation_events):
            problems.append("a run without reallocation reallocated")
        if self.algorithm is not None and not result.reallocation_events:
            problems.append("the reallocation agent never ticked")
        return Outcome(
            output=digest([result.to_dict(), summary]),
            summary=summary,
            problems=problems,
            latencies_s=[wall_s],
            jobs=len(state.jobs),
        )


# ---------------------------------------------------------------------- #
# Cold table regeneration                                                #
# ---------------------------------------------------------------------- #
_CAMPAIGN_LINE = re.compile(
    r"campaign: (\d+) simulated, (\d+) store hits, (\d+) stored"
)


@dataclass
class TablesState:
    units: List[Any]
    workdir: Path
    argv: List[str]


class TablesWorkload(Workload):
    """``repro tables`` into an empty store, then again on the warm store.

    The command line takes no seed: the paper's tables are defined at one
    workload seed, so this workload's inputs are the same for every
    ``--seed`` (its outputs are checked all the same).
    """

    def __init__(self, name: str, target_jobs: int, tables: Sequence[int] = (),
                 workroot: Optional[Path] = None) -> None:
        self.name = name
        self.target_jobs = target_jobs
        self.tables = tuple(tables)
        self.workroot = workroot or Path.cwd() / ".perfbench-work"
        self._inputs: Optional[Tuple[str, int]] = None

    def units(self) -> List[Any]:
        """The simulations a cold pass runs (what the CLI plans)."""
        from repro.__main__ import TABLE_SPECS
        from repro.experiments.campaign import plan_units
        from repro.experiments.config import SweepConfig

        groups: Dict[Tuple[str, bool], None] = {}
        for number in self.tables or range(2, 18):
            _metric, algorithm, heterogeneous = TABLE_SPECS[number]
            groups.setdefault((algorithm, heterogeneous), None)
        configs = []
        for algorithm, heterogeneous in groups:
            configs.extend(
                SweepConfig(algorithm=algorithm, heterogeneous=heterogeneous,
                            target_jobs=self.target_jobs).configs()
            )
        return plan_units(configs)

    def _trace_inputs(self, units: Sequence[Any]) -> Tuple[str, int]:
        """(digest of every distinct trace, jobs simulated by a cold pass)."""
        if self._inputs is None:
            from repro.experiments.campaign import clear_trace_cache, fresh_workload

            traces: Dict[Any, str] = {}
            jobs = 0
            for config in units:
                trace = fresh_workload(config)
                jobs += len(trace)
                traces.setdefault(config.workload_key(), jobs_digest(trace))
            clear_trace_cache()
            self._inputs = (digest(sorted(traces.values())), jobs)
        return self._inputs

    def setup(self, seed: int) -> TablesState:
        from repro.experiments.campaign import clear_trace_cache

        units = self.units()
        clear_trace_cache()
        self.workroot.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="tables-", dir=self.workroot))
        argv = ["tables", "--store", str(workdir / "store"),
                "--target-jobs", str(self.target_jobs)]
        if self.tables:
            argv += ["--table", *map(str, self.tables)]
        return TablesState(units, workdir, argv)

    @staticmethod
    def _cli(argv: List[str]) -> Tuple[int, str, str]:
        from repro.__main__ import main

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    def run(self, state: TablesState) -> Dict[str, Any]:
        cold = self._cli(state.argv)
        started = time.perf_counter()
        warm = self._cli(state.argv)
        return {"cold": cold, "warm": warm, "warm_s": time.perf_counter() - started}

    def inputs_digest(self, state: TablesState) -> str:
        return self._trace_inputs(state.units)[0]

    def engines(self, state: TablesState) -> Dict[str, Any]:
        from repro.experiments.campaign import execute_config
        from repro.grid.simulation import GridSimulation

        seen: List[Any] = []
        original = GridSimulation.run

        def capture(simulation: Any, *args: Any, **kwargs: Any) -> Any:
            seen.append(simulation)
            return original(simulation, *args, **kwargs)

        probes: Dict[str, Any] = {}
        for config in state.units:
            if config.is_baseline and config.batch_policy not in probes:
                probes[config.batch_policy] = config
        GridSimulation.run = capture
        try:
            for config in probes.values():
                execute_config(config)
        finally:
            GridSimulation.run = original
        return {
            str(simulation.batch_policy): _engines_of(simulation.kernel, simulation.servers)
            for simulation in seen
        }

    def outcome(self, state: TablesState, raw: Dict[str, Any], wall_s: float) -> Outcome:
        cold_code, cold_out, cold_err = raw["cold"]
        warm_code, warm_out, warm_err = raw["warm"]
        expected = len(state.units)
        problems: List[str] = []
        counts = []
        for label, code, err in (("cold", cold_code, cold_err), ("warm", warm_code, warm_err)):
            match = _CAMPAIGN_LINE.search(err)
            if code != 0 or match is None:
                problems.append(f"{label} pass exited {code}: {err.strip()[-200:]}")
                counts.append(None)
            else:
                counts.append(tuple(int(value) for value in match.groups()))
        if counts[0] is not None and counts[0][0] != expected:
            problems.append(f"cold pass simulated {counts[0][0]} of {expected} units")
        if counts[1] is not None and counts[1][0] != 0:
            problems.append(f"warm pass simulated {counts[1][0]} units")
        if warm_out != cold_out:
            problems.append("warm tables differ from the cold ones")
        summary = {
            "units": expected,
            "cold": list(counts[0]) if counts[0] else None,
            "warm": list(counts[1]) if counts[1] else None,
        }
        return Outcome(
            output=digest([cold_out, summary]),
            summary=summary,
            problems=problems,
            latencies_s=[wall_s],
            jobs=self._trace_inputs(state.units)[1],
            extra={"tables.warm_s": raw["warm_s"]},
        )

    def teardown(self, state: TablesState) -> None:
        shutil.rmtree(state.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.workroot.rmdir()


# ---------------------------------------------------------------------- #
# Live-reallocation service burst                                        #
# ---------------------------------------------------------------------- #
def burst_specs(seed: int, count: int) -> List[Tuple[int, float, float]]:
    """Synthetic job specs ``(procs, runtime, walltime)`` of a burst.

    The base burst is fixed: 40 % serial jobs, the rest log-uniform over
    ``[2, BURST_MAX_PROCS]`` processors, runtimes uniform over one minute
    to one hour and walltimes twice the base runtime.  The seed scales
    each runtime by up to :data:`BURST_RUNTIME_JITTER` either way.
    Schedulers plan on walltimes, and no job completes within the drain,
    so every seed maps the burst identically and costs the same.  Any
    change of the mapping moves the cost: redrawing the burst or its
    walltimes moves the reallocation ticks and the cost of a unit by tens
    of per cent, and swapping as few as six pairs of adjacent offers
    moves the tuned count by 15 % and the cost of a unit by as much.
    """
    base = np.random.default_rng(BURST_BASE_SEED)
    serial = base.random(count) < 0.4
    exponents = base.uniform(1.0, math.log2(BURST_MAX_PROCS), count)
    procs = np.clip(np.rint(2.0 ** exponents), 2, BURST_MAX_PROCS)
    procs[serial] = 1
    runtimes = base.uniform(60.0, 3600.0, count)
    walltimes = 2.0 * runtimes
    runtimes *= 1.0 + np.random.default_rng(seed).uniform(
        -BURST_RUNTIME_JITTER, BURST_RUNTIME_JITTER, count)
    return list(zip(procs.astype(int).tolist(), runtimes.tolist(), walltimes.tolist()))


@dataclass
class ServiceState:
    specs: List[Tuple[int, float, float]]
    service: Any


class ServiceWorkload(Workload):
    """An open-loop burst into an in-process ``MetaSchedulerService``.

    Every job of the burst is due at the same instant ``t0``; the
    generator offers them back to back and the unit ends once the
    admission queue is drained.  A job's latency runs from ``t0`` to its
    admission, so it includes how late the generator offered it.
    """

    def __init__(self, name: str, jobs: int) -> None:
        self.name = name
        self.jobs = jobs

    def setup(self, seed: int) -> ServiceState:
        from repro.platform.catalog import grid5000_platform
        from repro.service.service import MetaSchedulerService, ServiceConfig

        specs = burst_specs(seed, self.jobs)
        config = ServiceConfig(
            max_queue=self.jobs,
            high_water=self.jobs,
            reallocation_interval=SERVICE_REALLOCATION_INTERVAL,
            reallocation_algorithm="standard",
        )
        service = MetaSchedulerService(
            grid5000_platform(False), batch_policy=SERVICE_POLICY, config=config
        )
        return ServiceState(specs, service)

    def run(self, state: ServiceState) -> Dict[str, Any]:
        return asyncio.run(self._burst(state))

    @staticmethod
    async def _burst(state: ServiceState) -> Dict[str, Any]:
        from repro.service.service import SubmitRejected

        service = state.service
        service.start()
        tickets: List[Any] = []
        lags: List[float] = []
        rejected = 0
        clock = time.perf_counter
        t0 = clock()
        for procs, runtime, walltime in state.specs:
            lags.append(clock() - t0)
            try:
                tickets.append(service.offer(procs, runtime, walltime))
            except SubmitRejected:
                rejected += 1
        send_s = clock() - t0
        while service.queue_depth:
            await asyncio.sleep(0)
        await service.shutdown()
        return {"tickets": tickets, "lags": lags, "rejected": rejected, "send_s": send_s}

    def inputs_digest(self, state: ServiceState) -> str:
        return digest(state.specs)

    def engines(self, state: ServiceState) -> Dict[str, Any]:
        return _engines_of(state.service.kernel, state.service.servers)

    def outcome(self, state: ServiceState, raw: Dict[str, Any], wall_s: float) -> Outcome:
        stats = state.service.stats()
        tickets = raw["tickets"]
        reallocation = stats.get("reallocation") or {}
        summary = {
            "jobs": self.jobs,
            "accepted": stats["accepted"],
            "admitted": stats["admitted"],
            "ticks": reallocation.get("ticks"),
            "tuned": reallocation.get("tuned"),
        }
        mapping = [[ticket.job_id, ticket.job.cluster] for ticket in tickets]
        problems: List[str] = []
        if raw["rejected"]:
            problems.append(f"{raw['rejected']} offers refused")
        if not stats["accepted"] == stats["admitted"] == self.jobs:
            problems.append(
                f"accepted {stats['accepted']}, admitted {stats['admitted']} of {self.jobs}"
            )
        unmapped = sum(cluster is None for _job_id, cluster in mapping)
        if unmapped:
            problems.append(f"{unmapped} admitted jobs hold no cluster")
        latencies = [
            lag + ticket.admit_latency_s
            for lag, ticket in zip(raw["lags"], tickets)
            if ticket.admit_latency_s is not None
        ]
        if len(latencies) != len(tickets):
            problems.append(f"{len(tickets) - len(latencies)} tickets never admitted")
        return Outcome(
            output=digest([mapping, summary]),
            summary=summary,
            problems=problems,
            latencies_s=latencies,
            jobs=stats["admitted"],
            extra={
                "service.admit_passes": stats["admission_passes"],
                "loadgen.send_s": raw["send_s"],
            },
        )


# ---------------------------------------------------------------------- #
# Registry                                                               #
# ---------------------------------------------------------------------- #
def make_workloads(tiny: bool = False, workroot: Optional[Path] = None) -> Dict[str, Workload]:
    """The four workloads by name; ``tiny`` shrinks them for the benchmark's own tests."""
    full = not tiny
    workloads: List[Workload] = [
        CellWorkload("cell-cbf-cancel", "cbf", "cancellation", scale=0.2 if full else 0.02),
        CellWorkload("cell-fcfs-baseline", "fcfs", None, scale=0.3 if full else 0.02),
        TablesWorkload("tables-cold", target_jobs=20,
                       tables=() if full else (2,), workroot=workroot),
        ServiceWorkload("service-burst", jobs=3000 if full else 600),
    ]
    return {workload.name: workload for workload in workloads}
