"""Open-loop load generation against the service (``repro bombard``).

The generator is *open-loop*: arrivals are injected at a target rate
derived from the wall clock, never throttled by how fast the service
answers — exactly the regime an online metascheduler faces, and the one
that makes backpressure observable.  Two job sources exist:

* **synthetic** — seeded rng draws of processor counts and runtimes;
* **SWF replay** — sizes/runtimes/walltimes streamed from a Standard
  Workload Format log (``.gz`` transparently), with the log's arrival
  times replaced by the open-loop schedule (the log is recycled when the
  requested job count exceeds it).

Submissions go either through the in-process
:class:`~repro.service.client.ServiceClient` (zero serialization — the
path the throughput benchmark measures) or over HTTP via
:class:`~repro.service.http.HTTPServiceClient` in batches on a set of
keep-alive connections.  Either way the run ends by *draining*: waiting
until the service has admitted every accepted submission, so the report's
throughput is end-to-end (through mapping), not just enqueue speed.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.service.client import ServiceClient
from repro.service.http import HTTPServiceClient
from repro.service.service import SubmitRejected, _percentile
from repro.workload.swf import iter_swf_file

#: One job spec of the generator: (procs, runtime, walltime).
JobSpec = Tuple[int, float, float]

#: Histogram bucket edges for latency reporting, in seconds.
LATENCY_BUCKETS = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0, 10.0)


def synthetic_specs(
    seed: int = 0,
    max_procs: int = 64,
    runtime_range: Tuple[float, float] = (60.0, 3600.0),
    serial_fraction: float = 0.4,
    walltime_factor: float = 2.0,
) -> Iterator[JobSpec]:
    """Endless stream of synthetic job specs (seeded, deterministic)."""
    rng = np.random.default_rng(seed)
    low, high = runtime_range
    while True:
        if rng.random() < serial_fraction:
            procs = 1
        else:
            # Log-uniform over [2, max_procs]: small requests dominate, as
            # in every published workload analysis.
            procs = int(round(2.0 ** rng.uniform(1.0, math.log2(max(2, max_procs)))))
            procs = max(2, min(max_procs, procs))
        runtime = float(rng.uniform(low, high))
        yield procs, runtime, runtime * walltime_factor


def swf_specs(path: str, max_procs: Optional[int] = None) -> Iterator[JobSpec]:
    """Endless stream of job specs replayed from an SWF log (recycled)."""

    def one_pass() -> Iterator[JobSpec]:
        for job in iter_swf_file(path):
            procs = job.procs if max_procs is None else min(job.procs, max_procs)
            yield procs, job.runtime, job.walltime

    while True:
        empty = True
        for spec in one_pass():
            empty = False
            yield spec
        if empty:
            raise ValueError(f"SWF log {path!r} holds no usable jobs")


def latency_summary(samples: Sequence[float]) -> Dict[str, object]:
    """Percentiles plus a fixed-bucket histogram of latency samples."""
    if not samples:
        return {"samples": 0}
    ordered = sorted(samples)
    histogram: Dict[str, int] = {}
    index = 0
    for edge in LATENCY_BUCKETS:
        count = 0
        while index < len(ordered) and ordered[index] <= edge:
            count += 1
            index += 1
        if count:
            histogram[f"<={edge:g}s"] = count
    if index < len(ordered):
        histogram[f">{LATENCY_BUCKETS[-1]:g}s"] = len(ordered) - index
    return {
        "samples": len(ordered),
        "p50": _percentile(ordered, 0.50),
        "p90": _percentile(ordered, 0.90),
        "p99": _percentile(ordered, 0.99),
        "max": ordered[-1],
        "mean": sum(ordered) / len(ordered),
        "histogram": histogram,
    }


@dataclass
class BombardReport:
    """Outcome of one bombardment run."""

    jobs: int  #: submissions attempted
    accepted: int  #: submissions the service accepted into its queue
    rejected: int  #: refused at the door (backpressure / full / closing)
    target_rate: float  #: requested open-loop arrival rate (jobs/s)
    offered_rate: float  #: achieved injection rate over the send window
    sustained_rate: float  #: accepted jobs / time-to-full-admission
    send_wall_s: float  #: wall-clock of the injection window
    drain_wall_s: float  #: wall-clock from first send to empty admission queue
    drained: bool  #: admission queue observed empty before the timeout
    latency: Dict[str, object] = field(default_factory=dict)
    stats: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "jobs": self.jobs,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "target_rate": self.target_rate,
            "offered_rate": self.offered_rate,
            "sustained_rate": self.sustained_rate,
            "send_wall_s": self.send_wall_s,
            "drain_wall_s": self.drain_wall_s,
            "drained": self.drained,
            "latency": self.latency,
            "stats": self.stats,
        }

    def render(self) -> str:
        lines = [
            f"bombard: {self.accepted}/{self.jobs} accepted "
            f"({self.rejected} refused at the door)",
            f"  offered  {self.offered_rate:,.0f} jobs/s "
            f"(target {self.target_rate:,.0f})",
            f"  sustained {self.sustained_rate:,.0f} jobs/s through admission "
            f"({'drained' if self.drained else 'NOT drained'} "
            f"in {self.drain_wall_s:.2f}s)",
        ]
        latency = self.latency
        if latency.get("samples"):
            lines.append(
                f"  latency  p50 {latency['p50'] * 1e3:.2f}ms  "
                f"p99 {latency['p99'] * 1e3:.2f}ms  "
                f"max {latency['max'] * 1e3:.2f}ms  "
                f"({latency['samples']} samples)"
            )
            histogram = latency.get("histogram") or {}
            for bucket, count in histogram.items():
                lines.append(f"    {bucket:>10} {count}")
        reallocation = self.stats.get("reallocation")
        if reallocation:
            lines.append(
                f"  realloc  {reallocation['ticks']} ticks "
                f"({reallocation['algorithm']}/{reallocation['heuristic']} "
                f"every {reallocation['interval']}s): "
                f"{reallocation['tuned']} tuned, "
                f"{reallocation['cancelled']} cancelled, "
                f"{reallocation['migrated']} migrated"
            )
        return "\n".join(lines)


async def bombard(
    client: "ServiceClient | HTTPServiceClient",
    jobs: int,
    rate: float,
    specs: Optional[Iterator[JobSpec]] = None,
    batch: int = 128,
    connections: int = 1,
    drain_timeout: float = 60.0,
    tick: float = 0.005,
) -> BombardReport:
    """Bombard a service with ``jobs`` submissions at ``rate`` jobs/s.

    ``specs`` defaults to the synthetic source.  Over HTTP, ``connections``
    keep-alive connections are opened and due arrivals are flushed as
    batch submits (``batch`` jobs per request); in process, due arrivals
    are offered directly.  Open loop: if the service (or the wire) cannot
    keep up, arrivals accumulate and are injected as fast as possible —
    the *offered* rate reports what was actually achieved.
    """
    if jobs <= 0:
        raise ValueError(f"jobs must be positive, got {jobs}")
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    source = specs if specs is not None else synthetic_specs()
    pending = list(itertools.islice(source, jobs))
    if len(pending) < jobs:
        raise ValueError(f"job source produced only {len(pending)} of {jobs} specs")

    in_process = isinstance(client, ServiceClient)
    http_clients: List[HTTPServiceClient] = []
    if not in_process:
        http_clients = [client]  # type: ignore[list-item]
        for _ in range(max(0, connections - 1)):
            extra = HTTPServiceClient(client.host, client.port)  # type: ignore[union-attr]
            await extra.connect()
            http_clients.append(extra)

    accepted = 0
    rejected = 0
    latencies: List[float] = []
    started = time.perf_counter()
    sent = 0
    try:
        while sent < jobs:
            elapsed = time.perf_counter() - started
            due = min(jobs, int(rate * elapsed) + 1) - sent
            if due <= 0:
                await asyncio.sleep(tick)
                continue
            chunk = pending[sent:sent + due]
            sent += len(chunk)
            if in_process:
                # In-process admit latency comes from the service's own
                # per-ticket stamps (collected below from stats()).
                for procs, runtime, walltime in chunk:
                    try:
                        client.offer(procs, runtime, walltime)  # type: ignore[union-attr]
                        accepted += 1
                    except SubmitRejected:
                        rejected += 1
                await asyncio.sleep(0)
            else:
                for offset in range(0, len(chunk), batch * len(http_clients)):
                    window = chunk[offset:offset + batch * len(http_clients)]
                    requests = []
                    for lane, connection in enumerate(http_clients):
                        part = window[lane * batch:(lane + 1) * batch]
                        if part:
                            requests.append(_http_submit(connection, part))
                    stamp = time.perf_counter()
                    for acc, rej in await asyncio.gather(*requests):
                        accepted += acc
                        rejected += rej
                    latencies.append(time.perf_counter() - stamp)
        send_wall_s = time.perf_counter() - started

        # Drain: wait until the admission queue is empty (every accepted
        # submission mapped) or the timeout expires.
        drained = False
        send_end = time.perf_counter()
        while True:
            depth = await _queue_depth(client)
            if depth == 0:
                drained = True
                break
            if time.perf_counter() - send_end > drain_timeout:
                break
            await asyncio.sleep(0 if in_process else tick)
        drain_wall_s = time.perf_counter() - started
        stats = await _stats(client)
    finally:
        for connection in http_clients[1:]:
            await connection.close()

    if in_process:
        latency = dict(stats.get("admit_latency_s") or {"samples": 0})
    else:
        latency = latency_summary(latencies)
    admit_window = drain_wall_s if drained else send_wall_s
    return BombardReport(
        jobs=jobs,
        accepted=accepted,
        rejected=rejected,
        target_rate=rate,
        offered_rate=sent / send_wall_s if send_wall_s > 0 else math.inf,
        sustained_rate=accepted / admit_window if admit_window > 0 else math.inf,
        send_wall_s=send_wall_s,
        drain_wall_s=drain_wall_s,
        drained=drained,
        latency=latency,
        stats=stats,
    )


async def _http_submit(
    connection: HTTPServiceClient, chunk: Sequence[JobSpec]
) -> Tuple[int, int]:
    """Submit one batch over one connection → (accepted, rejected)."""
    specs = [
        {"procs": procs, "runtime": runtime, "walltime": walltime}
        for procs, runtime, walltime in chunk
    ]
    _status, document = await connection.submit_batch(specs)
    accepted = int(document.get("accepted", 0))
    return accepted, len(specs) - accepted


async def _queue_depth(client: "ServiceClient | HTTPServiceClient") -> int:
    if isinstance(client, ServiceClient):
        return client.service.queue_depth
    _status, document = await client.stats()
    return int(document.get("queue_depth", 0))


async def _stats(client: "ServiceClient | HTTPServiceClient") -> Dict[str, object]:
    if isinstance(client, ServiceClient):
        return client.stats()
    _status, document = await client.stats()
    return document
