"""Run a cluster, server or simulation on a chosen availability-profile engine.

Production picks the engine from the batch policy (FCFS runs the list
:class:`~repro.batch.profile.AvailabilityProfile`, every other policy the
columnar :class:`~repro.batch.arrayprofile.ArrayProfile`; see
:class:`~repro.batch.cluster.ClusterState`).  The list-vs-array
differential suites run both engines under either policy, so these
helpers swap the live profile of a *fresh* cluster, server or simulation
for an empty profile of the requested engine — the engines are
float-identical, so the swap must never change a result.
"""

from __future__ import annotations

import math

from repro.batch.arrayprofile import ArrayProfile
from repro.batch.cluster import ClusterState
from repro.batch.profile import AvailabilityProfile
from repro.batch.server import BatchServer
from repro.grid.simulation import GridSimulation
from repro.sim.kernel import SimulationKernel

#: Profile class of each engine name.
ENGINES = {"array": ArrayProfile, "list": AvailabilityProfile}


def make_profile(engine: str, total_procs: int, start_time: float = 0.0):
    """An empty profile of ``engine`` (``"array"`` or ``"list"``)."""
    return ENGINES[engine](total_procs, start_time)


def use_engine(cluster: ClusterState, engine: str, now: float = 0.0) -> ClusterState:
    """Move ``cluster`` (with no running job) onto an empty ``engine`` profile.

    The new profile is built the way :class:`ClusterState` builds its own,
    and a capacity already changed at ``now`` (the initial capacity of a
    dynamic platform) is applied to it as the cluster applied it.
    """
    if cluster.running_count:
        raise ValueError("swap the profile engine before any job runs")
    profile = make_profile(engine, cluster.total_procs)
    if cluster.capacity != cluster.total_procs:
        profile.set_capacity(cluster.capacity, now)
    cluster._profile = profile
    return cluster


def use_server_engine(server: BatchServer, engine: str) -> BatchServer:
    """Move a fresh ``server`` (nothing queued or running) onto ``engine``."""
    if server.queue_length:
        raise ValueError("swap the profile engine before any job is queued")
    now = server.kernel.now
    use_engine(server.cluster, engine, now)
    server._planner.plan.reset(server.cluster.availability(now), now)
    return server


def cluster_on(engine: str, name: str, total_procs: int, speed: float = 1.0) -> ClusterState:
    """A :class:`ClusterState` whose live profile runs on ``engine``."""
    return use_engine(ClusterState(name, total_procs, speed), engine)


def server_on(engine: str, kernel: SimulationKernel, *args, **kwargs) -> BatchServer:
    """A :class:`BatchServer` (same arguments) whose cluster runs on ``engine``."""
    return use_server_engine(BatchServer(kernel, *args, **kwargs), engine)


def simulation_on(engine: str, simulation: GridSimulation) -> GridSimulation:
    """Move every server of a fresh ``simulation`` onto ``engine``."""
    for server in simulation.servers:
        use_server_engine(server, engine)
    return simulation


def reserve(profile, procs: int, duration: float, earliest: float) -> float:
    """Subtract a reservation at the earliest slot; returns its start.

    An unplaceable request (more processors than the profile owns)
    returns ``math.inf`` and leaves the profile untouched.
    """
    start = profile.earliest_slot(procs, duration, earliest)
    if math.isfinite(start) and duration > 0:
        profile.subtract(start, start + duration, procs)
    return start
