"""Multi-worker serving fleet: SO_REUSEPORT processes, supervised.

One asyncio process tops out near a couple hundred pass queries per
second — a single core's worth of NumPy.  This module scales
``satiot serve`` horizontally the way LEO-edge services are actually
deployed: N independent worker *processes*, each running the existing
event loop + micro-batcher + its own shared-nothing TTL/LRU result
cache, all answering on **one** TCP port.

Topology
--------
::

                     ┌─ worker 0 ─ asyncio loop ─ MicroBatcher ─ cache
    clients ──► :port├─ worker 1 ─ asyncio loop ─ MicroBatcher ─ cache
                     └─ worker N ─ asyncio loop ─ MicroBatcher ─ cache
                        ▲    ▲                        │
            supervisor ─┘    └── mmap'd ephemeris ────┘
            (restart, metrics)   segments (one resident copy)

* **Routing.** With ``SO_REUSEPORT`` (Linux/BSD) every worker binds its
  own listening socket to the same port and the kernel distributes
  incoming connections by 4-tuple hash — no user-space hop at all.
  Where the option is unavailable (or forced off with
  ``SATIOT_SERVE_REUSEPORT=0``), the supervisor binds a single
  listening socket, accepts, and round-robins each pre-accepted
  connection to a worker over a unix socketpair (``SCM_RIGHTS`` fd
  passing).  Both paths feed the exact same per-connection handler, so
  payloads are byte-identical — proven by the fallback test suite.

* **Caches are shared-nothing by design.**  Each worker owns a private
  result cache keyed on the parsed request, whose site is already
  rounded to ``cache_decimals``.  Every worker computes a key's answer
  from the key alone, bit-deterministically, so the *value* under a
  key is identical whichever worker computes it and whatever it was
  asked before.  Routing therefore affects hit rates, never bytes.
  The expensive state — the ``(N, T, 3)`` constellation ephemeris —
  is **not** duplicated: all workers share one disk tier and open grid
  segments via ``np.load(mmap_mode="r")``, so the fleet holds one
  resident copy of the fleet ephemeris machine-wide (see
  :mod:`satiot.runtime.ephemeris_cache`).

* **Supervision.**  A monitor thread reaps crashed workers and
  restarts them (capped by ``max_restarts``); the seeded
  ``serving.worker_kill`` fault site SIGKILLs a worker mid-accept to
  exercise exactly this path.  The chaos contract holds: a retrying
  client lands on a live sibling and receives byte-identical payloads,
  under any worker count.

* **Observability.**  Each worker answers ``metrics`` requests over
  its control socketpair with its :meth:`ServingServer.snapshot`, the
  record its own ``/metrics`` renders;
  :meth:`ServingFleet.fleet_metrics` folds them with
  :func:`~satiot.serving.metrics.merge_snapshots` into one fleet view:
  merged per-endpoint counters/histograms/pooled-quantiles plus a
  ``_workers`` section (per-worker RSS, restarts, result cache,
  ephemeris counters and residency split, armed faults).

Requires ``fork`` (POSIX).  On platforms without it the fleet refuses
to start and ``satiot serve`` stays single-process.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import shutil
import signal
import socket
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..constellations.catalog import Constellation
from ..runtime.ephemeris_cache import EphemerisCache
from .metrics import merge_snapshots
from .server import ServingConfig, ServingServer, build_service

__all__ = ["FleetConfig", "ServingFleet", "REUSEPORT_ENV",
           "WORKERS_ENV", "default_workers", "fork_available",
           "reuseport_available"]

#: Default worker count for ``satiot serve`` (CLI ``--workers`` wins).
WORKERS_ENV = "SATIOT_SERVE_WORKERS"
#: Set to 0/false/off to force the pre-accepted round-robin fallback
#: even where ``SO_REUSEPORT`` is available.
REUSEPORT_ENV = "SATIOT_SERVE_REUSEPORT"

_ACCEPT_POLL_S = 0.2
_MONITOR_POLL_S = 0.02


def default_workers() -> int:
    """Worker count from ``SATIOT_SERVE_WORKERS`` (default 1)."""
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{WORKERS_ENV} must be a positive integer, got {raw!r}")
    if value < 1:
        raise ValueError(
            f"{WORKERS_ENV} must be a positive integer, got {raw!r}")
    return value


def fork_available() -> bool:
    """Fleet workers are forked; spawn can't inherit live sockets."""
    return "fork" in multiprocessing.get_all_start_methods()


def reuseport_available() -> bool:
    """True when the kernel accepts ``SO_REUSEPORT`` (env can veto)."""
    if os.environ.get(REUSEPORT_ENV, "1").strip().lower() in (
            "0", "false", "off", "no"):
        return False
    if not hasattr(socket, "SO_REUSEPORT"):
        return False
    try:
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    except OSError:
        return False
    return True


@dataclass
class FleetConfig:
    """Operational knobs of the supervisor (not of one server)."""

    workers: int = 2
    #: None = auto-detect; True/False forces the routing mode.
    reuseport: Optional[bool] = None
    #: Pause before restarting a crashed worker.
    restart_backoff_s: float = 0.05
    #: Total restart budget across the fleet's lifetime; beyond it a
    #: crashing worker slot is abandoned (the rest keep serving).
    max_restarts: int = 64
    #: Shared ephemeris disk tier.  None → a private temp directory,
    #: made by :meth:`ServingFleet.start` and removed by ``stop``.
    ephemeris_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("fleet needs at least one worker")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")


@dataclass
class _WorkerSlot:
    """Supervisor-side state of one worker index."""

    process: Optional[multiprocessing.process.BaseProcess] = None
    control: Optional[socket.socket] = None
    conn: Optional[socket.socket] = None
    restarts: int = 0
    abandoned: bool = False
    last_metrics: Optional[dict] = None
    #: Unparsed bytes read off the control socket (stale replies from
    #: re-sent, timed-out requests are drained through here).
    recv_buffer: bytes = b""

    def close_channels(self) -> None:
        for sock in (self.control, self.conn):
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
        self.control = None
        self.conn = None
        self.recv_buffer = b""


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _worker_main(worker_id: int, config: ServingConfig,
                 extra: Sequence[Constellation], ephemeris_dir: str,
                 host: str, port: int, reuseport: bool,
                 control: socket.socket,
                 conn: Optional[socket.socket]) -> None:
    """Entry point of one forked worker process."""
    # Forked children inherit the parent's singletons; rebuild both the
    # fault plane (fresh per-site consult counters, per the documented
    # worker contract) and the process-default ephemeris cache from the
    # environment.
    from ..faults import reset_default_plane
    from ..runtime.ephemeris_cache import reset_default_cache
    reset_default_plane()
    reset_default_cache()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        asyncio.run(_worker_async(worker_id, config, extra,
                                  ephemeris_dir, host, port, reuseport,
                                  control, conn))
    except KeyboardInterrupt:  # pragma: no cover - signal race
        pass


async def _worker_async(worker_id: int, config: ServingConfig,
                        extra: Sequence[Constellation],
                        ephemeris_dir: str,
                        host: str, port: int, reuseport: bool,
                        control: socket.socket,
                        conn: Optional[socket.socket]) -> None:
    loop = asyncio.get_running_loop()
    # Over the *shared* mmap'd disk tier: one resident grid per machine.
    service = build_service(config, extra,
                            EphemerisCache(disk_dir=ephemeris_dir))
    server = ServingServer(config, service=service, worker_id=worker_id)
    started = time.monotonic()

    if reuseport:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
        await server.start(sock=sock)
    else:
        # Pre-accepted mode: no listening socket; connections arrive as
        # SCM_RIGHTS fds on the conn socketpair, one datagram each.
        conn.setblocking(False)

        def on_connection() -> None:
            while True:
                try:
                    _, fds, _, _ = socket.recv_fds(conn, 16, 8)
                except (BlockingIOError, InterruptedError):
                    return
                except OSError:
                    loop.remove_reader(conn.fileno())
                    return
                if not fds:
                    return
                for fd in fds:
                    client = socket.socket(fileno=fd)
                    loop.create_task(
                        server.handle_accepted_socket(client))

        loop.add_reader(conn.fileno(), on_connection)

    stop = asyncio.Event()
    control.setblocking(False)
    buffer = bytearray()

    def snapshot() -> dict:
        import resource
        return {
            "worker": worker_id,
            "pid": os.getpid(),
            "uptime_s": round(time.monotonic() - started, 3),
            "rss_max_kib": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss,
            "metrics": server.snapshot(),
        }

    async def reply(payload: dict) -> None:
        data = json.dumps(payload).encode("utf-8") + b"\n"
        try:
            await loop.sock_sendall(control, data)
        except OSError:
            stop.set()

    def on_control() -> None:
        try:
            chunk = control.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            stop.set()
            return
        if not chunk:  # supervisor went away: shut down
            loop.remove_reader(control.fileno())
            stop.set()
            return
        buffer.extend(chunk)
        while True:
            newline = buffer.find(b"\n")
            if newline < 0:
                break
            line = bytes(buffer[:newline])
            del buffer[:newline + 1]
            try:
                command = json.loads(line)
            except ValueError:
                continue
            cmd = command.get("cmd")
            if cmd in ("metrics", "ping"):
                payload = snapshot() if cmd == "metrics" else \
                    {"worker": worker_id, "pid": os.getpid()}
                payload["cmd"] = cmd
                # Echo the request id: the supervisor may have re-sent
                # a timed-out request, and matches replies by id.
                payload["id"] = command.get("id")
                loop.create_task(reply(payload))
            elif cmd == "stop":
                stop.set()

    # Registered only after the server is accepting: a "ping" reply is
    # the supervisor's readiness signal.
    loop.add_reader(control.fileno(), on_control)

    await stop.wait()
    try:
        loop.remove_reader(control.fileno())
    except (OSError, ValueError):  # pragma: no cover - teardown race
        pass
    await server.close()
    # Let in-flight connection handlers finish before asyncio.run tears
    # the loop down — cancelling them mid-close is noisy, not unsafe.
    pending = [task for task in asyncio.all_tasks()
               if task is not asyncio.current_task()]
    if pending:
        await asyncio.wait(pending, timeout=1.0)


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------
class ServingFleet:
    """Spawns, routes to, observes and restarts N serving workers.

    ``extra`` are pre-built constellations (catalog selections) served
    alongside ``config.constellations``; forked workers inherit them,
    so neither a start nor a restart reads the catalog again.
    """

    def __init__(self, config: Optional[ServingConfig] = None,
                 fleet: Optional[FleetConfig] = None,
                 extra: Sequence[Constellation] = ()) -> None:
        self.config = config or ServingConfig()
        self.fleet = fleet or FleetConfig()
        self.extra = tuple(extra)
        # Built once here and dropped: a service the workers could not
        # build (no constellations, a duplicate name) fails before any
        # fork instead of crash-looping every worker.
        build_service(self.config, self.extra)
        if not fork_available():
            raise RuntimeError(
                "serving fleet requires the 'fork' start method "
                "(POSIX); run single-process on this platform")
        self.reuseport = self.fleet.reuseport \
            if self.fleet.reuseport is not None else reuseport_available()
        if self.fleet.reuseport and not reuseport_available():
            raise RuntimeError("SO_REUSEPORT forced on but unavailable")
        if self.config.realtime and self.config.clock_anchor is None:
            # Pin one anchor before forking: every worker (including
            # ones respawned minutes later) maps wall time to the same
            # sim offset, so now-queries are fleet-globally identical.
            self.config.clock_anchor = time.time()
        self._ctx = multiprocessing.get_context("fork")
        self._slots: List[_WorkerSlot] = [
            _WorkerSlot() for _ in range(self.fleet.workers)]
        self._port: Optional[int] = None
        self._reserve: Optional[socket.socket] = None
        self._listen: Optional[socket.socket] = None
        self._closing = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        self._acceptor: Optional[threading.Thread] = None
        self._control_lock = threading.Lock()
        self._rr = 0
        self._seq = 0
        # None until start() makes a private one (stop() removes it).
        self.ephemeris_dir: Optional[str] = self.fleet.ephemeris_dir
        self._owns_ephemeris_dir = False
        self._started = False

    # ------------------------------------------------------------------
    @property
    def mode(self) -> str:
        return "reuseport" if self.reuseport else "fallback"

    @property
    def workers(self) -> int:
        return self.fleet.workers

    @property
    def bound_port(self) -> int:
        if self._port is None:
            raise RuntimeError("fleet is not started")
        return self._port

    @property
    def total_restarts(self) -> int:
        return sum(slot.restarts for slot in self._slots)

    def worker_pids(self) -> List[Optional[int]]:
        return [slot.process.pid
                if slot.process is not None and slot.process.is_alive()
                else None
                for slot in self._slots]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> int:
        """Bind the port, fork the workers, start supervision.

        Returns the bound port (useful with ``port=0``).  A start that
        fails (a port in use) stops the fleet before it raises, so no
        socket, worker or temp directory outlives it.
        """
        if self._started:
            raise RuntimeError("fleet already started")
        self._started = True
        try:
            return self._start()
        except BaseException:
            self.stop()
            raise

    def _start(self) -> int:
        if self.ephemeris_dir is None:
            self.ephemeris_dir = tempfile.mkdtemp(
                prefix="satiot-fleet-ephemeris-")
            self._owns_ephemeris_dir = True
        host, port = self.config.host, self.config.port
        if self.reuseport:
            # Reserve the port with a bound (never listening) socket so
            # an ephemeral port=0 resolves once and every worker can
            # bind the same number; only listening members of the
            # reuseport group receive connections.
            self._reserve = socket.socket(socket.AF_INET,
                                          socket.SOCK_STREAM)
            self._reserve.setsockopt(socket.SOL_SOCKET,
                                     socket.SO_REUSEADDR, 1)
            self._reserve.setsockopt(socket.SOL_SOCKET,
                                     socket.SO_REUSEPORT, 1)
            self._reserve.bind((host, port))
            self._port = self._reserve.getsockname()[1]
        else:
            self._listen = socket.socket(socket.AF_INET,
                                         socket.SOCK_STREAM)
            self._listen.setsockopt(socket.SOL_SOCKET,
                                    socket.SO_REUSEADDR, 1)
            self._listen.bind((host, port))
            self._listen.listen(512)
            self._listen.settimeout(_ACCEPT_POLL_S)
            self._port = self._listen.getsockname()[1]
        for index in range(self.workers):
            self._spawn(index)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="satiot-fleet-monitor",
            daemon=True)
        self._monitor.start()
        if not self.reuseport:
            self._acceptor = threading.Thread(
                target=self._accept_loop, name="satiot-fleet-accept",
                daemon=True)
            self._acceptor.start()
        return self._port

    def wait_ready(self, timeout: float = 30.0) -> None:
        """Block until every (non-abandoned) worker answers a ping."""
        deadline = time.monotonic() + timeout
        for index in range(self.workers):
            remaining = deadline - time.monotonic()
            while remaining > 0:
                if self._request(index, "ping",
                                 timeout=min(remaining, 1.0)) \
                        is not None:
                    break
                remaining = deadline - time.monotonic()
            else:
                raise TimeoutError(
                    f"worker {index} not ready within {timeout:.1f}s")

    def stop(self) -> None:
        """Graceful shutdown: stop workers, reap, release sockets."""
        if self._closing.is_set():
            return
        self._closing.set()
        for sock in (self._listen, self._reserve):
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
        for slot in self._slots:
            if slot.control is not None:
                try:
                    slot.control.sendall(b'{"cmd": "stop"}\n')
                except OSError:
                    pass
        for slot in self._slots:
            proc = slot.process
            if proc is None:
                continue
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
            if proc.is_alive():  # pragma: no cover - last resort
                proc.kill()
                proc.join(timeout=1.0)
            slot.process = None
            slot.close_channels()
        if self._monitor is not None:
            self._monitor.join(timeout=2.0)
        if self._acceptor is not None:
            self._acceptor.join(timeout=2.0)
        if self._owns_ephemeris_dir:
            shutil.rmtree(self.ephemeris_dir, ignore_errors=True)

    def __enter__(self) -> "ServingFleet":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Worker management
    # ------------------------------------------------------------------
    def _spawn(self, index: int) -> None:
        slot = self._slots[index]
        slot.close_channels()
        control_parent, control_child = socket.socketpair(
            socket.AF_UNIX, socket.SOCK_STREAM)
        conn_parent = conn_child = None
        if not self.reuseport:
            conn_parent, conn_child = socket.socketpair(
                socket.AF_UNIX, socket.SOCK_DGRAM)
        process = self._ctx.Process(
            target=_worker_main,
            args=(index, self.config, self.extra, self.ephemeris_dir,
                  self.config.host, self._port, self.reuseport,
                  control_child, conn_child),
            name=f"satiot-serve-{index}", daemon=True)
        process.start()
        # The parent keeps only its ends; the child inherited its own.
        control_child.close()
        if conn_child is not None:
            conn_child.close()
        slot.process = process
        slot.control = control_parent
        slot.conn = conn_parent

    def _monitor_loop(self) -> None:
        while not self._closing.is_set():
            for index, slot in enumerate(self._slots):
                proc = slot.process
                if proc is None or proc.is_alive() or slot.abandoned:
                    continue
                proc.join()
                if self._closing.is_set():
                    break
                slot.restarts += 1
                if self.total_restarts > self.fleet.max_restarts:
                    slot.abandoned = True
                    slot.process = None
                    slot.close_channels()
                    continue
                if self.fleet.restart_backoff_s > 0:
                    self._closing.wait(self.fleet.restart_backoff_s)
                if not self._closing.is_set():
                    self._spawn(index)
            self._closing.wait(_MONITOR_POLL_S)

    def _accept_loop(self) -> None:
        """Fallback router: accept, then hand the fd to the next live
        worker (deterministic round-robin over worker slots)."""
        while not self._closing.is_set():
            try:
                client, _ = self._listen.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            routed = False
            for _ in range(self.workers):
                index = self._rr % self.workers
                self._rr += 1
                slot = self._slots[index]
                if slot.conn is None or slot.process is None or \
                        not slot.process.is_alive():
                    continue
                try:
                    socket.send_fds(slot.conn, [b"c"],
                                    [client.fileno()])
                    routed = True
                    break
                except OSError:
                    continue
            # Routed or not, the supervisor's copy of the fd closes;
            # an unrouted client sees a reset and retries.
            client.close()
            if not routed:
                time.sleep(_MONITOR_POLL_S)

    # ------------------------------------------------------------------
    # Control channel
    # ------------------------------------------------------------------
    def _request(self, index: int, cmd: str,
                 timeout: float = 5.0) -> Optional[dict]:
        slot = self._slots[index]
        with self._control_lock:
            sock = slot.control
            proc = slot.process
            if sock is None or proc is None or not proc.is_alive():
                return None
            self._seq += 1
            request_id = self._seq
            deadline = time.monotonic() + timeout
            try:
                sock.sendall(json.dumps(
                    {"cmd": cmd, "id": request_id}).encode("utf-8")
                    + b"\n")
                while True:
                    # Drain complete lines; stale replies to earlier
                    # timed-out requests are matched out by id.
                    while b"\n" in slot.recv_buffer:
                        line, _, slot.recv_buffer = \
                            slot.recv_buffer.partition(b"\n")
                        try:
                            reply = json.loads(line)
                        except ValueError:
                            continue
                        if reply.get("id") == request_id:
                            return reply
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    sock.settimeout(remaining)
                    chunk = sock.recv(65536)
                    if not chunk:
                        return None
                    slot.recv_buffer += chunk
            except (OSError, ValueError):
                return None

    def fleet_metrics(self, timeout: float = 5.0) -> dict:
        """One merged metrics payload for the whole fleet.

        Per-endpoint counters, batch-size histograms and pooled
        latency quantiles are merged across workers' snapshots
        (:meth:`ServingServer.snapshot`, folded by
        :func:`~satiot.serving.metrics.merge_snapshots`); the
        ``_workers`` section keeps each worker's RSS, restart count
        and its snapshot's ``cache``, ``ephemeris`` (the whole
        ``CacheStats``) and ``faults`` sections, and ``_fleet``
        summarizes the grid-sharing story: ``grid_mmap_bytes_max`` is
        the one shared resident copy, where per-worker *private* grids
        would instead multiply by N.
        """
        snapshots: List[dict] = []
        workers: Dict[str, dict] = {}
        mmap_bytes: List[int] = []
        private_bytes: List[int] = []
        for index, slot in enumerate(self._slots):
            reply = self._request(index, "metrics", timeout=timeout)
            if reply is None:
                workers[str(index)] = {
                    "alive": False,
                    "restarts": slot.restarts,
                    "abandoned": slot.abandoned,
                }
                continue
            slot.last_metrics = reply
            snap = reply.get("metrics", {})
            snapshots.append(snap)
            ephemeris = snap.get("ephemeris", {})
            mmap_bytes.append(int(ephemeris.get("grid_mmap_bytes", 0)))
            private_bytes.append(
                int(ephemeris.get("grid_private_bytes", 0)))
            worker = workers[str(index)] = {
                "alive": True,
                "pid": reply.get("pid"),
                "uptime_s": reply.get("uptime_s"),
                "rss_max_kib": reply.get("rss_max_kib"),
                "restarts": slot.restarts,
                "cache": snap.get("cache", {}),
                "ephemeris": ephemeris,
            }
            if "faults" in snap:
                worker["faults"] = snap["faults"]
        payload = merge_snapshots(snapshots)
        payload["_workers"] = workers
        payload["_fleet"] = {
            "workers": self.workers,
            "mode": self.mode,
            "port": self._port,
            "restarts": self.total_restarts,
            "grid_mmap_bytes_max": max(mmap_bytes, default=0),
            "grid_private_bytes_total": sum(private_bytes),
        }
        return payload
