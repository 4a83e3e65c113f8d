"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.batch.job import Job
from repro.batch.server import BatchServer
from repro.platform.spec import ClusterSpec, PlatformSpec
from repro.sim.kernel import SimulationKernel

from oracles.queues import QUEUES


@pytest.fixture(params=sorted(QUEUES))
def kernel(request) -> SimulationKernel:
    """A fresh simulation kernel starting at t=0.

    Parametrised over the production calendar queue and the heap oracle,
    so every kernel-facing test exercises both alike.
    """
    return QUEUES[request.param]()


@pytest.fixture
def small_platform() -> PlatformSpec:
    """Two small homogeneous clusters (4 and 8 processors)."""
    return PlatformSpec(
        "test-platform",
        (ClusterSpec("alpha", 4, 1.0), ClusterSpec("beta", 8, 1.0)),
    )


@pytest.fixture
def heterogeneous_platform() -> PlatformSpec:
    """Two clusters with different speeds (beta is twice as fast)."""
    return PlatformSpec(
        "test-platform-heter",
        (ClusterSpec("alpha", 4, 1.0), ClusterSpec("beta", 8, 2.0)),
    )


def make_job(
    job_id: int,
    submit_time: float = 0.0,
    procs: int = 1,
    runtime: float = 100.0,
    walltime: float | None = None,
    origin_site: str | None = None,
) -> Job:
    """Convenience job factory (walltime defaults to twice the runtime)."""
    return Job(
        job_id=job_id,
        submit_time=submit_time,
        procs=procs,
        runtime=runtime,
        walltime=walltime if walltime is not None else 2.0 * runtime,
        origin_site=origin_site,
    )


def make_server(
    kernel: SimulationKernel,
    name: str = "alpha",
    procs: int = 4,
    speed: float = 1.0,
    policy: str = "fcfs",
) -> BatchServer:
    """Convenience batch-server factory."""
    return BatchServer(kernel, name, procs, speed, policy=policy)


@pytest.fixture
def job_factory():
    """Expose :func:`make_job` as a fixture."""
    return make_job


@pytest.fixture
def server_factory():
    """Expose :func:`make_server` as a fixture."""
    return make_server
