"""Serving determinism under seeded fault schedules.

A 64-request burst of unique queries against a live server must
produce byte-identical response bodies to the fault-free burst, under
every schedule the server survives:

* ``serving.handler`` faults are absorbed by whole-batch re-dispatch
  inside the micro-batcher (clients never see them);
* ``serving.connection`` drops happen *after* the response is computed
  and result-cached, so a retrying client replays into a cache hit and
  receives the exact same bytes;
* ``batcher.flush`` deferrals cost one coalescing window of latency
  and nothing else.

Throughout, ``/healthz`` keeps answering — chaos never reaches the
accept loop.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from satiot.serving import ServingConfig, ServingServer
from tests.chaos.conftest import armed

pytestmark = pytest.mark.chaos

BURST = 64
#: Unique coordinates per request: every response body is distinct, so
#: byte-identity is checked per query, not collapsed by the cache.
BODIES = [{"lat": round(-30.0 + i * 0.9, 3),
           "lon": round(10.0 + i * 1.7, 3), "horizon_s": 3600}
          for i in range(BURST)]

_reference = {}


def config(**overrides) -> ServingConfig:
    defaults = dict(port=0, coarse_step_s=120.0, window_s=0.01,
                    write_timeout_s=5.0)
    defaults.update(overrides)
    return ServingConfig(**defaults)


# ----------------------------------------------------------------------
# A retrying client: connection drops, 429s and 500s are retried —
# the determinism contract is about the bytes a *persistent* client
# ends up with.
# ----------------------------------------------------------------------
async def fetch(port: int, body: dict, attempts: int = 10) -> bytes:
    encoded = json.dumps(body).encode()
    raw = (f"POST /v1/passes HTTP/1.1\r\nHost: t\r\n"
           f"Content-Length: {len(encoded)}\r\n"
           f"Connection: close\r\n\r\n").encode() + encoded
    failures = []
    for attempt in range(attempts):
        data = b""
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            try:
                writer.write(raw)
                await writer.drain()
                data = await reader.read()
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
        except (ConnectionError, OSError) as error:
            failures.append(f"connect: {error}")
        if data:
            head, _, payload = data.partition(b"\r\n\r\n")
            status_line = head.split(b"\r\n", 1)[0]
            status = int(status_line.split()[1])
            if status == 200:
                return payload
            failures.append(f"status {status}")
        else:
            failures.append("dropped")
        await asyncio.sleep(0.01 * (attempt + 1))
    raise AssertionError(
        f"request never succeeded after {attempts} attempts: "
        f"{failures}")


async def healthz_ok(port: int) -> bool:
    # /healthz is a GET; done by hand (fetch() is POST /v1/passes).
    raw = b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    for attempt in range(10):
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            try:
                writer.write(raw)
                await writer.drain()
                data = await reader.read()
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
        except (ConnectionError, OSError):
            data = b""
        if data.startswith(b"HTTP/1.1 200"):
            return True
        await asyncio.sleep(0.01 * (attempt + 1))
    return False


async def run_burst(server: ServingServer):
    port = server.bound_port
    payloads = await asyncio.gather(*(fetch(port, body)
                                      for body in BODIES))
    alive = await healthz_ok(port)
    return dict(enumerate(payloads)), alive


def burst_against(cfg: ServingConfig):
    async def scenario():
        server = ServingServer(cfg)
        await server.start()
        try:
            payloads, alive = await run_burst(server)
        finally:
            await server.close()
        return payloads, alive, server.metrics
    return asyncio.run(scenario())


def clean_reference():
    if "burst" not in _reference:
        payloads, alive, _ = burst_against(config())
        assert alive and len(payloads) == BURST
        _reference["burst"] = payloads
    return _reference["burst"]


def assert_identical(payloads):
    reference = clean_reference()
    assert len(payloads) == len(reference)
    for i, expected in reference.items():
        assert payloads[i] == expected, \
            f"request {i} body diverged under faults"


# ----------------------------------------------------------------------
class TestServingSchedules:
    """>= 3 distinct seeded schedules, all byte-identical to clean."""

    def test_handler_faults_absorbed_by_batch_retry(self):
        clean_reference()
        with armed("seed=201;serving.handler=n1") as plane:
            payloads, alive, metrics = burst_against(config())
            fired = plane.summary()["sites"]
        assert alive
        assert_identical(payloads)
        assert fired["serving.handler"]["fired"] >= 1
        retries = sum(em.handler_retries
                      for em in metrics.endpoints.values())
        assert retries >= 1
        # The retry absorbed the fault server-side: no 500 ever left.
        assert all(em.server_errors == 0
                   for em in metrics.endpoints.values())

    def test_connection_drops_are_retried_into_cache_hits(self):
        clean_reference()
        with armed("seed=202;serving.connection=p0.15"):
            payloads, alive, metrics = burst_against(config())
        assert alive
        assert_identical(payloads)
        assert metrics.dropped_connections >= 1
        hits = sum(em.cache_hits for em in metrics.endpoints.values())
        assert hits >= 1  # retried queries landed in the result cache

    def test_flush_deferrals_cost_latency_only(self):
        clean_reference()
        with armed("seed=203;batcher.flush=n2") as plane:
            payloads, alive, metrics = burst_against(config())
            fired = plane.summary()["sites"]
        assert alive
        assert_identical(payloads)
        assert fired["batcher.flush"]["fired"] >= 1
        assert all(em.server_errors == 0
                   for em in metrics.endpoints.values())

    def test_handler_fault_storm_exhausts_into_contained_500s(self):
        """Beyond the retry budget, clients see 500s — and a later,
        fault-free request succeeds: the loop never died."""
        cfg = config()
        with armed("seed=204;serving.handler=n100"):
            async def scenario():
                server = ServingServer(cfg)
                await server.start()
                port = server.bound_port
                try:
                    with pytest.raises(AssertionError,
                                       match="status 500"):
                        await fetch(port, BODIES[0], attempts=2)
                    alive = await healthz_ok(port)
                finally:
                    await server.close()
                return alive, server.metrics
            alive, metrics = asyncio.run(scenario())
        assert alive
        assert sum(em.server_errors
                   for em in metrics.endpoints.values()) >= 1
