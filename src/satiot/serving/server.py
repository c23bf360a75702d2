"""Asyncio HTTP server wiring batcher + cache + metrics + service.

Request lifecycle::

    read → route → validate (event loop, cheap)
         → result-cache probe (quantized key)
         → micro-batcher submit  ── full? → 429 + Retry-After
         → [batch flushed → worker thread → NumPy/SGP4]
         → encode once, populate cache, respond, record metrics

``/healthz`` and ``/metrics`` never enter the batcher, so the service
stays observable under overload — the event loop only ever blocks on
I/O, all orbital work runs in the batcher's worker thread.

Failure containment: connection-level errors (client reset, truncated
request, mid-request disconnect) are swallowed per connection; handler
exceptions are retried batch-wide by the batcher and only become one
500 per affected request once the retry budget is exhausted; a client
that will not drain its socket within ``write_timeout_s`` has its
transport aborted (counted in ``_server.write_timeouts``).  Nothing a
client does can take the accept loop down.  The
``serving.connection`` fault site drops a connection *after* the
response is computed (and result-cached) but before it is written —
a retrying client gets the byte-identical payload from the cache.
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from .batcher import MicroBatcher, QueueFullError
from .cache import ResultCache
from ..faults import fault_fires, get_default_plane
from .http import (HTTPError, HTTPRequest, encode_json, json_response,
                   read_request, text_response)
from ..runtime.telemetry import render_fixed_table
from ..twin.clock import SimClock
from .metrics import ServingMetrics
from .service import (CompareRequest, ConstellationService,
                      LinkBudgetRequest, PassesRequest, PresenceRequest,
                      DEFAULT_CONSTELLATION)

__all__ = ["ServingConfig", "ServingServer"]


@dataclass
class ServingConfig:
    """Operational knobs of one server instance."""

    host: str = "127.0.0.1"
    port: int = 8340
    constellations: Tuple[str, ...] = (DEFAULT_CONSTELLATION,)
    #: coalescing window armed by the first request of a batch
    window_s: float = 0.002
    #: flush immediately once this many requests are pending
    max_batch: int = 256
    #: queue bound; submissions beyond it are rejected with 429
    max_pending: int = 1024
    #: Retry-After hint (seconds) sent with 429 responses
    retry_after_s: float = 0.5
    #: master switch — False degrades to per-request serial handling
    batching: bool = True
    cache_ttl_s: float = 60.0
    cache_entries: int = 4096
    #: coordinate quantization (decimal places) for result-cache keys
    cache_decimals: int = 2
    #: pass-finder sampling step (s)
    coarse_step_s: float = 30.0
    #: abort the connection when a client will not drain its socket
    #: within this many seconds (slow-client protection)
    write_timeout_s: float = 30.0
    #: digital-twin mode: arm a SimClock so queries may say start=now
    realtime: bool = False
    #: simulation seconds per real second (realtime mode)
    rate: float = 1.0
    #: unix timestamp mapped to sim offset 0; None anchors at server
    #: construction.  The fleet supervisor pins one anchor for every
    #: worker so now-queries resolve identically fleet-wide.
    clock_anchor: Optional[float] = None
    #: now-query quantization (s): queries inside one quantum resolve
    #: to the same offset → byte-identical answers, cache-friendly
    clock_quantum_s: float = 60.0
    #: providers /v1/compare may select (None = all registered)
    providers: Optional[Tuple[str, ...]] = None
    extra: Dict[str, object] = field(default_factory=dict)


_ENDPOINTS = {
    "/v1/passes": ("passes", PassesRequest),
    "/v1/presence": ("presence", PresenceRequest),
    "/v1/link_budget": ("link_budget", LinkBudgetRequest),
    "/v1/compare": ("compare", CompareRequest),
}


class ServingServer:
    """One constellation query service bound to a host/port.

    ``worker_id`` is set when this server is one process of a
    :class:`~satiot.serving.supervisor.ServingFleet`: it tags the
    ``/healthz`` and ``/metrics`` payloads, and arms the
    ``serving.worker_kill`` fault site — a fleet worker may be
    SIGKILL'ed mid-accept (the supervisor restarts it; a standalone
    server never consults the site because there is nothing to restart
    it).
    """

    def __init__(self, config: Optional[ServingConfig] = None,
                 service: Optional[ConstellationService] = None,
                 worker_id: Optional[int] = None) -> None:
        self.config = config or ServingConfig()
        self.worker_id = worker_id
        self.service = service or ConstellationService(
            constellations=self.config.constellations,
            coarse_step_s=self.config.coarse_step_s,
            providers=self.config.providers)
        self.clock: Optional[SimClock] = None
        if self.config.realtime:
            self.clock = SimClock(rate=self.config.rate,
                                  anchor=self.config.clock_anchor,
                                  quantum_s=self.config.clock_quantum_s)
        self.metrics = ServingMetrics()
        self.cache = ResultCache(max_entries=self.config.cache_entries,
                                 ttl_s=self.config.cache_ttl_s)
        # One worker thread shared by every endpoint: orbital work is
        # serialized (NumPy already saturates a core per batch) and the
        # event loop never blocks on compute.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="satiot-serving")
        max_batch = self.config.max_batch if self.config.batching else 1
        handlers = {
            "passes": self.service.passes_batch,
            "presence": self.service.presence_batch,
            "link_budget": self.service.link_budget_batch,
            "compare": self.service.compare_batch,
        }
        self._batchers: Dict[str, MicroBatcher] = {
            name: MicroBatcher(
                handler,
                max_batch=max_batch,
                window_s=self.config.window_s,
                max_pending=self.config.max_pending,
                retry_after_s=self.config.retry_after_s,
                metrics=self.metrics.endpoint(name),
                executor=self._executor)
            for name, handler in handlers.items()
        }
        self._server: Optional[asyncio.AbstractServer] = None
        self._started_at = time.monotonic()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, sock: Optional[socket.socket] = None,
                    ) -> asyncio.AbstractServer:
        """Start accepting; ``sock`` may be a pre-bound listening socket
        (the fleet's ``SO_REUSEPORT`` path binds one per worker)."""
        if sock is not None:
            self._server = await asyncio.start_server(
                self._handle_connection, sock=sock)
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, self.config.host,
                self.config.port)
        return self._server

    async def handle_accepted_socket(self, sock: socket.socket) -> None:
        """Serve one connection handed over as a connected socket.

        This is the fallback (no ``SO_REUSEPORT``) fleet path: the
        supervisor accepts, round-robins the accepted socket to a
        worker over a unix socketpair, and the worker drives it through
        the exact same per-connection handler as kernel-routed
        connections — identical payloads by construction.
        """
        try:
            reader, writer = await asyncio.open_connection(sock=sock)
        except OSError:
            sock.close()
            return
        await self._handle_connection(reader, writer)

    @property
    def bound_port(self) -> int:
        """The actual port (useful when configured with port 0)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        server = self._server or await self.start()
        async with server:
            await server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for batcher in self._batchers.values():
            await batcher.close()
        self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        if self.worker_id is not None and \
                fault_fires("serving.worker_kill"):
            # Fault plane: die exactly as a crashed worker would — no
            # cleanup, no goodbye.  The supervisor restarts the worker;
            # the client's retry lands on a live sibling whose
            # deterministic compute yields byte-identical payloads.
            os.kill(os.getpid(), signal.SIGKILL)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HTTPError as exc:
                    await self._write(writer, self._error_response(
                        exc, keep_alive=False))
                    break
                if request is None:
                    break
                payload = await self._dispatch(request)
                if fault_fires("serving.connection"):
                    # Fault plane: drop the client before the write.
                    # The response was computed (and result-cached)
                    # above, so a retrying client gets byte-identical
                    # payload — the fault costs a round trip, never
                    # output.
                    self._drop_connection(writer)
                    break
                if not await self._write(writer, payload):
                    break
                if not request.keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError,
                TimeoutError, OSError):
            pass  # client went away mid-request; never fatal
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _write(self, writer: asyncio.StreamWriter,
                     payload: bytes) -> bool:
        """Write + drain with the slow-client timeout.

        Returns False (after aborting the transport) when the client
        would not drain within ``write_timeout_s`` — the caller must
        stop serving the connection.
        """
        writer.write(payload)
        try:
            await asyncio.wait_for(writer.drain(),
                                   self.config.write_timeout_s)
        except asyncio.TimeoutError:
            self.metrics.write_timeouts += 1
            transport = writer.transport
            if transport is not None:
                transport.abort()
            return False
        return True

    def _drop_connection(self, writer: asyncio.StreamWriter) -> None:
        self.metrics.dropped_connections += 1
        transport = writer.transport
        if transport is not None:
            transport.abort()

    @staticmethod
    def _error_response(error: HTTPError,
                        keep_alive: bool = True) -> bytes:
        return json_response(error.status, {"error": error.message},
                             extra_headers=error.headers,
                             keep_alive=keep_alive)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _dispatch(self, request: HTTPRequest) -> bytes:
        start = time.perf_counter()
        path = request.path.rstrip("/") or "/"
        if path == "/healthz":
            return self._healthz()
        if path == "/metrics":
            return self._metrics_response(request)
        if path in _ENDPOINTS:
            endpoint, request_type = _ENDPOINTS[path]
            status, payload = await self._query(request, endpoint,
                                                request_type)
            self.metrics.endpoint(endpoint).observe_request(
                status, time.perf_counter() - start)
            headers = {}
            if status == 429:
                headers["Retry-After"] = \
                    f"{self.config.retry_after_s:.3f}"
            return json_response(status, payload,
                                 extra_headers=headers,
                                 keep_alive=request.keep_alive)
        return json_response(404, {"error": f"no such path {path!r}"},
                             keep_alive=request.keep_alive)

    def _healthz(self) -> bytes:
        payload = {
            "status": "ok",
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "constellations": self.service.constellation_names,
            "pending": {name: batcher.pending
                        for name, batcher in self._batchers.items()},
        }
        if self.clock is not None:
            payload["realtime"] = {
                "sim_offset_s": round(self.clock.now_offset_s(), 3),
                "rate": self.clock.rate,
            }
        if self.worker_id is not None:
            payload["worker"] = self.worker_id
        return json_response(200, payload)

    def _metrics_response(self, request: HTTPRequest) -> bytes:
        ephemeris = self.service.ephemeris
        grid_bytes = ephemeris.grid_resident_bytes()
        wants_text = request.query.get("format") == "text" or \
            "text/plain" in request.headers.get("accept", "")
        if wants_text:
            stats = ephemeris.stats
            ephemeris_table = render_fixed_table(
                ["grid MiB", "grid h/m", "pass h/m", "disk h/w"],
                [[f"{grid_bytes / 2**20:.2f}",
                  f"{stats.grid_hits}/{stats.grid_misses}",
                  f"{stats.pass_hits}/{stats.pass_misses}",
                  f"{stats.disk_hits}/{stats.disk_writes}"]],
                title="Ephemeris cache")
            return text_response(
                200, self.metrics.render() + "\n" + ephemeris_table
                + "\n")
        payload = self.metrics.to_dict()
        payload["_cache"] = {
            "entries": len(self.cache),
            "hits": self.cache.hits,
            "misses": self.cache.misses,
            "hit_rate": round(self.cache.hit_rate, 4),
            "ttl_s": self.cache.ttl_s,
        }
        payload["_ephemeris"] = {
            "grid_bytes": grid_bytes,
            # Split by residency: private bytes are paid per worker,
            # mmap bytes are one machine-wide copy shared by every
            # worker that maps the same segment.
            "grid_private_bytes": ephemeris.stats.grid_private_bytes,
            "grid_mmap_bytes": ephemeris.stats.grid_mmap_bytes,
            "grid_hits": ephemeris.stats.grid_hits,
            "grid_misses": ephemeris.stats.grid_misses,
            "grid_extensions": ephemeris.stats.grid_extensions,
            "pass_hits": ephemeris.stats.pass_hits,
            "pass_misses": ephemeris.stats.pass_misses,
        }
        if self.worker_id is not None:
            payload["_server"]["worker_id"] = self.worker_id
        plane = get_default_plane()
        if plane is not None and plane.rules:
            payload["_faults"] = plane.summary()
        return json_response(200, payload)

    # ------------------------------------------------------------------
    # Query endpoints
    # ------------------------------------------------------------------
    async def _query(self, request: HTTPRequest, endpoint: str,
                     request_type) -> Tuple[int, Union[dict, bytes]]:
        """Status and payload of one query; a 200 carries its encoded
        body, which the result cache keeps for later hits."""
        if request.method not in ("GET", "POST"):
            return 405, {"error": f"method {request.method} not allowed"}
        try:
            # Validate against the *loaded* constellation set (which may
            # include catalog-built ones) — or, for compare, the loaded
            # provider set — so an unknown name is a clean 400 instead
            # of a handler fault deep in the batcher.
            known = self.service.provider_names \
                if endpoint == "compare" \
                else self.service.constellation_names
            query = request_type.from_params(
                request.params(), known=known, clock=self.clock,
                epochs=self.service.epochs)
        except HTTPError as exc:
            return exc.status, {"error": exc.message}
        except ValueError as exc:
            return 400, {"error": str(exc)}

        em = self.metrics.endpoint(endpoint)
        key = query.cache_key(self.config.cache_decimals)
        cached = self.cache.get(key)
        em.observe_cache(cached is not None)
        if cached is not None:
            return 200, cached

        try:
            future = self._batchers[endpoint].submit(query)
        except QueueFullError as exc:
            return 429, {"error": "request queue full",
                         "retry_after_s": exc.retry_after_s}
        try:
            payload = await future
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # handler fault → contained 500
            return 500, {"error": f"internal error: {exc}"}
        body = encode_json(payload)
        self.cache.put(key, body)
        return 200, body
