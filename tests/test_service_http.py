"""Tests for the service's HTTP listener and client."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.platform.spec import ClusterSpec, PlatformSpec
from repro.service import (
    HTTPServiceClient,
    MetaSchedulerService,
    ServiceConfig,
    ServiceHTTP,
    bombard,
    synthetic_specs,
)
from repro.service.http import MAX_REQUEST_BYTES


def platform() -> PlatformSpec:
    return PlatformSpec(
        "http-test",
        (ClusterSpec("alpha", 4, 1.0), ClusterSpec("beta", 8, 1.0)),
    )


def run_with_http(test, started=True, **config):
    """Run ``await test(service, client)`` against a served loopback stack.

    With ``started=False`` the admission loop is never launched, so
    accepted submissions stay ``queued`` — the only way to observe the
    pre-admission states over HTTP, since the loop runs between any two
    round-trips of a live service.
    """

    async def main():
        service = MetaSchedulerService(
            platform(),
            config=ServiceConfig(**config) if config else None,
        )
        if started:
            service.start()
        try:
            async with ServiceHTTP(service, "127.0.0.1", 0) as http:
                async with HTTPServiceClient(http.host, http.port) as client:
                    return await test(service, client)
        finally:
            if started:
                await service.shutdown()

    return asyncio.run(main())


class TestRoutes:
    def test_submit_status_cancel_roundtrip(self):
        async def test(service, client):
            status, document = await client.submit(procs=2, runtime=50.0)
            assert status == 202
            job_id = document["job_id"]
            assert document["accepted"] == 1

            status, document = await client.status(job_id)
            assert status == 200
            assert document["state"] == "queued"

            status, document = await client.cancel(job_id)
            assert status == 200
            assert document["state"] == "cancelled"

        run_with_http(test, started=False)

    def test_batch_submit(self):
        async def test(service, client):
            specs = [{"procs": 1, "runtime": 10.0} for _ in range(5)]
            status, document = await client.submit_batch(specs)
            assert status == 202
            assert document["accepted"] == 5
            assert len(document["job_ids"]) == 5
            assert "job_id" not in document  # batch form has no scalar id

        run_with_http(test)

    def test_health_and_stats(self):
        async def test(service, client):
            status, health = await client.health()
            assert status == 200
            assert health["status"] == "ok"
            assert set(health["clusters"]) == {"alpha", "beta"}
            status, stats = await client.stats()
            assert status == 200
            assert stats["accepted"] == 0

        run_with_http(test)

    def test_unknown_job_is_404(self):
        async def test(service, client):
            status, document = await client.status(999)
            assert status == 404
            status, document = await client.cancel(999)
            assert status == 404

        run_with_http(test)

    def test_cancel_running_job_is_409(self):
        async def test(service, client):
            status, document = await client.submit(procs=1, runtime=100.0)
            job_id = document["job_id"]
            # Let the admission loop map and start the job.
            while (await client.status(job_id))[1]["state"] != "running":
                await asyncio.sleep(0)
            status, document = await client.cancel(job_id)
            assert status == 409
            assert "running" in document["error"]

        run_with_http(test)

    def test_bad_requests(self):
        async def test(service, client):
            status, document = await client.request(
                "POST", "/submit", {"procs": "many", "runtime": 5.0})
            assert status == 400
            status, document = await client.request("POST", "/submit", {"jobs": []})
            assert status == 400
            status, document = await client.request("GET", "/nope")
            assert status == 404
            status, document = await client.request("POST", "/health")
            assert status == 405

        run_with_http(test)

    def test_backpressure_maps_to_429(self):
        async def test(service, client):
            accepted = 0
            while True:
                status, document = await client.submit(procs=1, runtime=10.0)
                if status != 202:
                    break
                accepted += 1
            assert status == 429
            assert document["reason"] == "backpressure"
            assert accepted == 10  # the offer past the high-water mark trips

        # No admission loop: the queue cannot drain between submits.
        run_with_http(test, started=False, high_water=10, max_queue=100)

    def test_batch_partial_acceptance(self):
        async def test(service, client):
            # One batch request offers synchronously, so the gate engages
            # mid-batch and the tail of the batch is refused.
            specs = [{"procs": 1, "runtime": 10.0} for _ in range(20)]
            status, document = await client.submit_batch(specs)
            assert status == 202
            assert 0 < document["accepted"] < 20
            assert document["reason"] == "backpressure"
            assert document["rejected"] == 20 - document["accepted"]

        run_with_http(test, started=False, high_water=10, max_queue=100)


class TestMalformedRequests:
    """A malformed request closes its connection and nothing else."""

    @staticmethod
    def send_raw(data: bytes, close_after_send: bool = False):
        async def test(service, client):
            loop = asyncio.get_running_loop()
            errors = []
            loop.set_exception_handler(lambda _loop, context: errors.append(context))
            reader, writer = await asyncio.open_connection(client.host, client.port)
            writer.write(data)
            await writer.drain()
            if close_after_send:
                writer.close()
                await writer.wait_closed()
            else:
                # The server hangs up without answering.
                assert await asyncio.wait_for(reader.read(), 5.0) == b""
                writer.close()
            for _ in range(10):  # let the connection handler run to its end
                await asyncio.sleep(0.01)
            status, health = await client.health()
            return errors, status, health

        errors, status, health = run_with_http(test)
        assert errors == []
        assert status == 200 and health["status"] == "ok"

    def test_negative_content_length(self):
        self.send_raw(b"POST /submit HTTP/1.1\r\nContent-Length: -5\r\n\r\n")

    def test_body_truncated_by_the_client_closing(self):
        self.send_raw(
            b"POST /submit HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"procs\": 1",
            close_after_send=True,
        )

    def test_body_over_the_size_limit(self):
        self.send_raw(
            f"POST /submit HTTP/1.1\r\nContent-Length: {MAX_REQUEST_BYTES + 1}\r\n\r\n"
            .encode("ascii") + b"x" * 1024
        )


class TestKeepAlive:
    def test_many_requests_one_connection(self):
        async def test(service, client):
            for _ in range(20):
                status, _health = await client.health()
                assert status == 200
            assert service is not None

        run_with_http(test)


class TestBombardHTTP:
    def test_bombard_over_http_drains(self):
        async def test(service, client):
            report = await bombard(
                client,
                jobs=300,
                rate=100_000.0,
                specs=synthetic_specs(seed=7),
                batch=64,
                connections=2,
                drain_timeout=60.0,
            )
            assert report.accepted == 300
            assert report.drained
            assert report.sustained_rate > 0
            assert report.latency["samples"] > 0
            return report

        run_with_http(test)
