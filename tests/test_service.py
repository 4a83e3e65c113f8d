"""Tests for the long-running metascheduler service shell."""

from __future__ import annotations

import asyncio

import pytest

from repro.platform.spec import ClusterSpec, PlatformSpec
from repro.platform.timeline import AvailabilityTimeline
from repro.service import (
    BackpressurePolicy,
    MetaSchedulerService,
    ServiceClient,
    ServiceConfig,
    SubmitRejected,
    TicketState,
    VirtualClock,
    RealTimeClock,
    make_clock,
)
from repro.sim.kernel import SimulationKernel


def two_clusters() -> PlatformSpec:
    return PlatformSpec(
        "svc-test",
        (ClusterSpec("alpha", 4, 1.0), ClusterSpec("beta", 8, 1.0)),
    )


def down_clusters() -> PlatformSpec:
    """Both clusters in an outage covering the start of time."""
    return PlatformSpec(
        "svc-down",
        (
            ClusterSpec("alpha", 4, 1.0,
                        AvailabilityTimeline().with_outage(0.0, 1000.0)),
            ClusterSpec("beta", 8, 1.0,
                        AvailabilityTimeline().with_outage(0.0, 1000.0)),
        ),
    )


def make_service(platform=None, **config) -> MetaSchedulerService:
    return MetaSchedulerService(
        platform if platform is not None else two_clusters(),
        config=ServiceConfig(**config) if config else None,
    )


class TestLifecycle:
    def test_offer_admit_complete(self):
        async def run():
            service = make_service()
            async with service:
                client = ServiceClient(service)
                ticket = client.offer(procs=2, runtime=50.0)
                assert ticket.state is TicketState.QUEUED
                assert service.queue_depth == 1
                await client.drain()
                assert ticket.admitted
                assert ticket.state is TicketState.RUNNING
                assert ticket.admit_latency_s >= 0.0
            service.run_until_idle()
            assert ticket.state is TicketState.COMPLETED
            assert service.completed == 1
            assert service.in_flight == 0
            return service

        service = asyncio.run(run())
        assert service.accepted == service.admitted == 1

    def test_status_document(self):
        async def run():
            service = make_service()
            async with service:
                client = ServiceClient(service)
                ticket = client.offer(procs=1, runtime=10.0, walltime=20.0)
                document = client.status(ticket.job_id)
                assert document["state"] == "queued"
                assert document["cluster"] is None
                await client.drain()
                document = client.status(ticket.job_id)
                assert document["state"] == "running"
                assert document["cluster"] in ("alpha", "beta")
                assert document["admit_latency_s"] >= 0.0
                with pytest.raises(KeyError):
                    client.status(999)

        asyncio.run(run())

    def test_clean_shutdown_with_jobs_in_flight(self):
        async def run():
            service = make_service()
            async with service:
                client = ServiceClient(service)
                for _ in range(50):
                    client.offer(procs=1, runtime=1000.0)
            # __aexit__ drained the admission queue before stopping.
            assert service.queue_depth == 0
            assert service.admitted == 50
            assert service.in_flight > 0
            # The kernel still holds the in-flight completions; a
            # supervisor can finish them after the loop stopped.
            service.run_until_idle()
            assert service.in_flight == 0
            assert service.completed == 50

        asyncio.run(run())

    def test_shutdown_without_drain_cancels_queue(self):
        async def run():
            service = make_service()
            service.start()
            client = ServiceClient(service)
            tickets = [client.offer(procs=1, runtime=10.0) for _ in range(5)]
            report = await service.shutdown(drain=False)
            assert report["queued_cancelled"] == 5
            assert all(t.state is TicketState.CANCELLED for t in tickets)
            assert service.queue_depth == 0

        asyncio.run(run())

    def test_offer_after_shutdown_rejected(self):
        async def run():
            service = make_service()
            async with service:
                pass
            with pytest.raises(SubmitRejected) as exc_info:
                service.offer(procs=1, runtime=10.0)
            assert exc_info.value.reason == "closing"
            assert service.rejected_closing == 1

        asyncio.run(run())


class TestAdmissionFailure:
    """An admission pass that raises stops the loop without stranding anyone."""

    def test_failed_pass_retires_tickets_refuses_offers_and_reraises(self):
        async def run():
            service = make_service(admission_batch=2)
            client = ServiceClient(service)
            tickets = [client.offer(procs=1, runtime=10.0) for _ in range(5)]
            submit_many = service.scheduler.submit_many
            passes = []

            def flaky(jobs):
                passes.append(len(jobs))
                if len(passes) == 2:
                    # Map the first job of the second pass, then fail.
                    submit_many(jobs[:1])
                    raise RuntimeError("mapping blew up")
                return submit_many(jobs)

            service.scheduler.submit_many = flaky
            task = service.start()
            # Callers polling for an empty admission queue are released.
            await asyncio.wait_for(client.drain(), timeout=5.0)
            await asyncio.wait_for(asyncio.shield(task), timeout=5.0)
            assert task.exception() is None  # nothing left unretrieved
            assert passes == [2, 2]
            # First pass admitted; the second mapped one job before failing;
            # its other ticket and the one still queued behind it failed.
            assert [t.state for t in tickets] == [
                TicketState.RUNNING,
                TicketState.RUNNING,
                TicketState.RUNNING,
                TicketState.FAILED,
                TicketState.FAILED,
            ]
            assert service.queue_depth == 0
            assert service.admitted == 3
            assert service.failed == 2
            assert service.stats()["failed"] == 2
            assert service.health()["status"] == "failed"
            with pytest.raises(SubmitRejected) as exc_info:
                client.offer(procs=1, runtime=10.0)
            assert exc_info.value.reason == "failed"
            with pytest.raises(RuntimeError, match="mapping blew up"):
                await service.shutdown()
            # The jobs that did reach a cluster still run to completion.
            service.run_until_idle()
            assert service.completed == 3
            assert service.in_flight == 0

        asyncio.run(run())


class TestCancel:
    def test_cancel_queued_job(self):
        async def run():
            service = make_service()
            async with service:
                client = ServiceClient(service)
                ticket = client.offer(procs=1, runtime=10.0)
                document = client.cancel(ticket.job_id)
                assert document["state"] == "cancelled"
                assert service.queue_depth == 0
                await client.drain()
                assert service.admitted == 0

        asyncio.run(run())

    def test_cancel_waiting_job(self):
        async def run():
            # One 4-proc cluster: the second job cannot start while the
            # first occupies it, so it stays WAITING and is cancellable.
            platform = PlatformSpec("one", (ClusterSpec("alpha", 4, 1.0),))
            service = make_service(platform)
            async with service:
                client = ServiceClient(service)
                client.offer(procs=4, runtime=1000.0)
                blocked = client.offer(procs=4, runtime=10.0)
                await client.drain()
                assert blocked.state is TicketState.WAITING
                client.cancel(blocked.job_id)
                assert blocked.state is TicketState.CANCELLED

        asyncio.run(run())

    def test_cancel_running_job_is_an_error(self):
        async def run():
            service = make_service()
            async with service:
                client = ServiceClient(service)
                ticket = client.offer(procs=1, runtime=100.0)
                await client.drain()
                assert ticket.state is TicketState.RUNNING
                with pytest.raises(ValueError, match="running"):
                    client.cancel(ticket.job_id)
            service.run_until_idle()
            with pytest.raises(ValueError, match="completed"):
                service.cancel(ticket.job_id)

        asyncio.run(run())

    def test_cancel_unknown_job(self):
        async def run():
            service = make_service()
            async with service:
                with pytest.raises(KeyError):
                    service.cancel(12345)

        asyncio.run(run())


class TestAllClustersDown:
    def test_submissions_queue_instead_of_rejecting(self):
        async def run():
            service = make_service(down_clusters())
            async with service:
                client = ServiceClient(service)
                ticket = client.offer(procs=2, runtime=50.0)
                await client.drain()
                # Mapped onto a down cluster's queue, not rejected: the
                # failure-aware MCT pool falls back to the nominal set.
                assert ticket.state is TicketState.WAITING
                assert service.rejected_unmappable == 0
                assert ticket.job.cluster in ("alpha", "beta")
            # Recovery at t=1000 starts the stranded job.
            service.run_until_idle()
            assert ticket.state is TicketState.COMPLETED

        asyncio.run(run())

    def test_oversized_job_still_rejected(self):
        async def run():
            service = make_service(down_clusters())
            async with service:
                client = ServiceClient(service)
                ticket = client.offer(procs=100, runtime=50.0)
                await client.drain()
                assert ticket.state is TicketState.REJECTED
                assert service.rejected_unmappable == 1

        asyncio.run(run())


class TestBackpressure:
    def test_reject_then_drain_then_accept(self):
        async def run():
            service = make_service(
                max_queue=100, high_water=10, admission_batch=50)
            async with service:
                client = ServiceClient(service)
                accepted = 0
                with pytest.raises(SubmitRejected) as exc_info:
                    for _ in range(50):
                        client.offer(procs=1, runtime=10.0)
                        accepted += 1
                assert exc_info.value.reason == "backpressure"
                assert accepted == 10  # engaged exactly at the high-water mark
                assert service.backpressure_engaged
                assert service.backpressure_engagements == 1
                await client.drain()
                # Hysteresis released the gate at/below the low-water mark.
                assert not service.backpressure_engaged
                ticket = client.offer(procs=1, runtime=10.0)  # accepted again
                await client.drain()
                assert ticket.admitted

        asyncio.run(run())

    def test_hard_queue_bound(self):
        async def run():
            service = make_service(max_queue=5, high_water=5)
            # Loop not started: nothing drains the queue.
            for _ in range(5):
                service.offer(procs=1, runtime=10.0)
            with pytest.raises(SubmitRejected) as exc_info:
                service.offer(procs=1, runtime=10.0)
            # The hard bound coincides with the high-water mark here; the
            # door reports whichever gate tripped first.
            assert exc_info.value.reason in ("queue-full", "backpressure")

        asyncio.run(run())

    def test_await_policy_parks_submitter_until_drain(self):
        async def run():
            service = make_service(
                max_queue=100, high_water=5, backpressure="await",
                admission_batch=50)
            async with service:
                client = ServiceClient(service)
                # The offer *after* the queue reaches the high-water mark
                # engages the gate (and still enqueues under ``await``).
                for _ in range(6):
                    client.offer(procs=1, runtime=10.0)
                assert service.backpressure_engaged
                # The awaited submit parks until the queue drains below
                # the low-water mark, then succeeds — no rejection.
                ticket = await client.submit(procs=1, runtime=10.0)
                assert ticket is not None
                assert service.rejected_backpressure == 0

        asyncio.run(run())


class TestClocks:
    def test_virtual_clock_drives_kernel(self):
        kernel = SimulationKernel()
        clock = make_clock("virtual", kernel)
        assert isinstance(clock, VirtualClock)
        assert clock.now() == 0.0

        async def run():
            await clock.tick(5.0)
            await clock.tick(2.5)

        asyncio.run(run())
        assert kernel.now == 7.5
        assert clock.now() == 7.5

    def test_real_clock_follows_wall_time(self):
        kernel = SimulationKernel()
        wall = [100.0]
        clock = RealTimeClock(kernel, rate=2.0, time_source=lambda: wall[0])
        assert clock.now() == 0.0
        wall[0] = 103.0
        assert clock.now() == 6.0  # 3 wall seconds at 2x

        async def run():
            await clock.tick(0.0)

        asyncio.run(run())
        assert kernel.now == 6.0  # the kernel chased the wall clock

    def test_unknown_clock_mode(self):
        with pytest.raises(ValueError):
            make_clock("sundial", SimulationKernel())

    def test_service_clock_modes(self):
        assert make_service().clock.mode == "virtual"
        real = MetaSchedulerService(two_clusters(), clock="real")
        assert real.clock.mode == "real"


class TestRetention:
    def test_retired_tickets_forget_mappings(self):
        async def run():
            service = make_service(completed_retention=5)
            async with service:
                client = ServiceClient(service)
                for _ in range(20):
                    client.offer(procs=1, runtime=10.0)
                await client.drain()
            service.run_until_idle()
            # Only the newest 5 completed tickets remain queryable, and
            # the metascheduler's mapping dict shrank with them.
            assert len(service._registry) == 5
            assert len(service.scheduler.initial_mapping) == 5

        asyncio.run(run())


class TestStatsAndHealth:
    def test_health_document(self):
        async def run():
            service = make_service()
            async with service:
                client = ServiceClient(service)
                health = client.health()
                assert health["status"] == "ok"
                assert health["clock"] == "virtual"
                assert set(health["clusters"]) == {"alpha", "beta"}
                client.offer(procs=1, runtime=10.0)
                assert client.health()["queue_depth"] == 1

        asyncio.run(run())

    def test_stats_counters_and_latency(self):
        async def run():
            service = make_service()
            async with service:
                client = ServiceClient(service)
                for _ in range(10):
                    client.offer(procs=1, runtime=10.0)
                await client.quiesce()
                service.run_until_idle()
                stats = client.stats()
                assert stats["accepted"] == 10
                assert stats["admitted"] == 10
                assert stats["queue_depth"] == 0
                assert stats["admit_latency_s"]["samples"] == 10
                assert stats["admit_latency_s"]["p99"] >= stats["admit_latency_s"]["p50"] >= 0

        asyncio.run(run())


class TestConfigValidation:
    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            ServiceConfig(heartbeat=-1.0)
        with pytest.raises(ValueError):
            ServiceConfig(admission_batch=0)
        with pytest.raises(ValueError):
            ServiceConfig(max_queue=0)
        with pytest.raises(ValueError):
            ServiceConfig(high_water=0)
        with pytest.raises(ValueError):
            ServiceConfig(max_queue=10, high_water=11)
        with pytest.raises(ValueError):
            ServiceConfig(high_water=10, low_water=11)

    def test_policy_coercion(self):
        config = ServiceConfig(backpressure="await")
        assert config.backpressure is BackpressurePolicy.AWAIT
        assert ServiceConfig(high_water=10).low_water == 5


class TestReallocationHeartbeat:
    def _realloc_service(self, **overrides) -> MetaSchedulerService:
        config = dict(
            heartbeat=0.05,
            reallocation_interval=0.2,
            reallocation_algorithm="cancellation",
            reallocation_heuristic="mct",
        )
        config.update(overrides)
        return make_service(**config)

    def test_disabled_by_default(self):
        service = make_service()
        assert "reallocation" not in service.stats()

    def test_heartbeat_fires_and_counts(self):
        async def run():
            service = self._realloc_service()
            async with service:
                client = ServiceClient(service)
                for _ in range(40):
                    client.offer(procs=2, runtime=500.0)
                await client.drain()
                for _ in range(400):
                    if service.reallocation_ticks >= 2:
                        break
                    await asyncio.sleep(0)
            document = service.stats()["reallocation"]
            assert document["ticks"] >= 2
            assert document["cancelled"] > 0
            assert document["algorithm"] == "cancellation"
            assert document["interval"] == pytest.approx(0.2)
            return service

        service = asyncio.run(run())
        # Reallocation cancels are backed out of the cancellation
        # accounting: nothing was *user*-cancelled, everything completes.
        assert service.stats()["cancelled"] == 0
        service.run_until_idle()
        assert service.in_flight == 0
        assert service.completed == service.accepted

    def test_idle_ticks_are_skipped(self):
        async def run():
            service = self._realloc_service()
            async with service:
                client = ServiceClient(service)
                client.offer(procs=2, runtime=0.01)
                await client.quiesce()
                # Plenty of loop passes with empty queues: the interval
                # re-arms but the engine never wakes.
                for _ in range(50):
                    await asyncio.sleep(0)
            return service

        service = asyncio.run(run())
        assert service.reallocation_ticks == 0

    def test_config_validation(self):
        # Interval and threshold: tests/test_reallocation.py::TestTimingValidation.
        with pytest.raises(ValueError):
            ServiceConfig(reallocation_algorithm="nope")
        with pytest.raises(ValueError, match="bogus"):
            ServiceConfig(reallocation_heuristic="bogus")


class TestReallocationRaces:
    """Client actions landing on the heartbeat where a reallocation tick fires."""

    HEARTBEAT = 5.0
    INTERVAL = 15.0  # armed at t=0, so the first tick is due at t=15

    def _service(self, algorithm: str) -> MetaSchedulerService:
        return make_service(
            heartbeat=self.HEARTBEAT,
            reallocation_interval=self.INTERVAL,
            reallocation_algorithm=algorithm,
            reallocation_threshold=0.0,
        )

    @staticmethod
    def _offer_world(client):
        """``hog`` frees alpha at t=10, long before its walltime, so the
        t=15 tick finds ``target`` (mapped behind ``busy`` on beta) better
        placed on alpha; ``wide`` only fits beta and keeps the tick from
        being skipped as idle."""
        client.offer(procs=4, runtime=10.0, walltime=1000.0)  # hog
        client.offer(procs=8, runtime=500.0, walltime=500.0)  # busy
        target = client.offer(procs=4, runtime=100.0, walltime=100.0)
        wide = client.offer(procs=8, runtime=50.0, walltime=50.0)
        return target, wide

    async def _run(self, algorithm: str, cancel: bool):
        service = self._service(algorithm)
        client = ServiceClient(service)
        target, wide = self._offer_world(client)
        service.start()
        while service.clock.now() < self.INTERVAL:
            await asyncio.sleep(0)
        # The kernel just reached the tick's heartbeat; the admission loop
        # has not resumed yet, so the tick is still to fire.
        assert service.reallocation_ticks == 0
        assert target.state is TicketState.WAITING
        assert target.job.cluster == wide.job.cluster == "beta"
        if cancel:
            client.cancel(target.job_id)
        while service.reallocation_ticks == 0:
            await asyncio.sleep(0)
        # The tick fired on that heartbeat: it re-armed from t=15.
        assert service.reallocation_ticks == 1
        assert service._next_reallocation == 2 * self.INTERVAL
        stats = service.stats()
        await service.shutdown()
        return service, target, stats

    @pytest.mark.parametrize("algorithm", ["standard", "cancellation"])
    def test_tick_moves_the_job_when_not_cancelled(self, algorithm):
        service, target, stats = asyncio.run(self._run(algorithm, cancel=False))
        assert target.job.cluster == "alpha"
        assert target.job.reallocation_count == 1
        assert target.job.start_time == self.INTERVAL
        assert stats["reallocation"]["migrated"] == 1
        assert stats["cancelled"] == 0

    @pytest.mark.parametrize("algorithm", ["standard", "cancellation"])
    def test_cancel_on_the_tick_heartbeat(self, algorithm):
        service, target, stats = asyncio.run(self._run(algorithm, cancel=True))
        job = target.job
        # The tick neither moved nor started the cancelled job.
        assert target.state is TicketState.CANCELLED
        assert job.cluster is None
        assert job.reallocation_count == 0
        assert job.start_time is None
        assert all(job not in server.waiting_jobs() for server in service.servers)
        assert stats["reallocation"]["migrated"] == 0
        # Counts stay consistent: one user cancel, every other job in flight.
        assert stats["cancelled"] == 1
        assert stats["accepted"] == stats["admitted"] == 4
        assert stats["in_flight"] == 2  # busy and wide; hog already completed
        service.run_until_idle()
        final = service.stats()
        assert final["cancelled"] == 1
        assert final["in_flight"] == 0
        assert final["completed"] == 3
        assert final["completed"] + final["cancelled"] == final["accepted"]

    @pytest.mark.parametrize("algorithm", ["standard", "cancellation"])
    def test_shutdown_without_drain_with_a_tick_due(self, algorithm):
        async def run():
            service = self._service(algorithm)
            client = ServiceClient(service)
            self._offer_world(client)
            service.start()
            while service.clock.now() < self.INTERVAL:
                await asyncio.sleep(0)
            # A tick is due and the admission queue holds work the
            # shutdown has to cancel.
            assert service.reallocation_ticks == 0
            queued = [client.offer(procs=1, runtime=10.0) for _ in range(3)]
            report = await service.shutdown(drain=False)
            ticks = service.reallocation_ticks
            assert report["queued_cancelled"] == 3
            assert all(t.state is TicketState.CANCELLED for t in queued)
            # The loop exited and left no task behind.
            assert service._task is None
            assert [t for t in asyncio.all_tasks() if t is not asyncio.current_task()] == []
            for _ in range(20):
                await asyncio.sleep(0)
            assert service.reallocation_ticks == ticks
            return service, ticks

        service, ticks = asyncio.run(run())
        # Finishing the in-flight jobs fires no tick either.
        service.run_until_idle()
        assert service.reallocation_ticks == ticks
        stats = service.stats()
        assert stats["in_flight"] == 0
        assert stats["queue_depth"] == 0
        assert stats["completed"] + stats["cancelled"] == stats["accepted"] == 7
