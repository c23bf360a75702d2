"""Multi-worker serving fleet: routing modes, supervision, metrics.

The :class:`~satiot.serving.supervisor.ServingFleet` must behave like
one server with more capacity, whatever the routing mode:

* ``SO_REUSEPORT`` mode (kernel load balancing) and the pre-accepted
  round-robin **fallback** serve byte-identical payloads — to each
  other AND to a plain single-process :class:`ServingServer`;
* the fallback's round-robin provably spreads connections over every
  worker (reuseport's 4-tuple hash may not, with one test client);
* a SIGKILL'ed worker is respawned by the monitor and the fleet keeps
  answering;
* the supervisor's merged ``/metrics`` view sums worker counters and
  carries per-worker ``_workers`` / fleet-level ``_fleet`` sections;
* ``SATIOT_SERVE_WORKERS`` / ``SATIOT_SERVE_REUSEPORT`` env knobs
  resolve (and reject garbage) as documented.

These tests fork real processes; they keep fleets small (2 workers,
"pico" constellation, coarse sampling) to stay fast on tiny CI boxes.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import signal
import socket
import tempfile
import time

import pytest

from satiot.constellations.catalog import build_constellation
from satiot.serving import (FleetConfig, ServingConfig, ServingFleet,
                            ServingServer, default_workers,
                            fork_available, reuseport_available)
from satiot.serving.server import build_service
from satiot.serving.supervisor import REUSEPORT_ENV, WORKERS_ENV

from tests.serving.test_server import SAME_CELL, request, run, with_server

pytestmark = pytest.mark.skipif(
    not fork_available(),
    reason="fleet workers require the fork start method")

# Deterministic probe set: same coordinates → byte-identical bodies
# across modes.
PROBE_PATHS = tuple(
    f"/v1/passes?constellation=pico&lat={lat:.6f}&lon={lon:.6f}"
    f"&horizon_s=3600&min_elevation_deg=10"
    for lat, lon in ((22.3, 114.2), (-33.9, 18.4), (64.1, -21.9),
                     (1.35, 103.8)))


def fast_config(**overrides) -> ServingConfig:
    defaults = dict(port=0, constellations=("pico",),
                    coarse_step_s=120.0, window_s=0.01)
    defaults.update(overrides)
    return ServingConfig(**defaults)


def fetch(port: int, path: str, retries: int = 100,
          backoff_s: float = 0.05):
    """GET with retries: worker restarts leave short accept gaps."""
    last: Exception = None
    for _ in range(retries):
        try:
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=10.0) as sock:
                sock.sendall((f"GET {path} HTTP/1.1\r\nHost: t\r\n"
                              f"Connection: close\r\n\r\n").encode())
                data = b""
                while chunk := sock.recv(65536):
                    data += chunk
            head, sep, body = data.partition(b"\r\n\r\n")
            if not sep:
                raise OSError("truncated response")
            return int(head.split(b" ", 2)[1]), body
        except (OSError, IndexError, ValueError) as error:
            last = error
            time.sleep(backoff_s)
    raise AssertionError(f"fleet unreachable after {retries} tries: "
                         f"{last}")


def probe_bodies(port: int):
    bodies = []
    for path in PROBE_PATHS:
        status, body = fetch(port, path)
        assert status == 200, (status, body[:200])
        bodies.append(body)
    return bodies


def single_server_bodies():
    async def scenario(server):
        bodies = []
        for path in PROBE_PATHS:
            status, _, payload = await request(server.bound_port, path)
            assert status == 200
            bodies.append(payload)
        return bodies

    return run(with_server(fast_config(), scenario))


# ----------------------------------------------------------------------
class TestEnvKnobs:
    def test_default_workers_resolution(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert default_workers() == 1
        monkeypatch.setenv(WORKERS_ENV, "4")
        assert default_workers() == 4
        monkeypatch.setenv(WORKERS_ENV, "  2  ")
        assert default_workers() == 2

    @pytest.mark.parametrize("bad", ["zero", "0", "-3", "2.5"])
    def test_default_workers_rejects_garbage(self, monkeypatch, bad):
        monkeypatch.setenv(WORKERS_ENV, bad)
        with pytest.raises(ValueError, match=WORKERS_ENV):
            default_workers()

    def test_reuseport_env_veto(self, monkeypatch):
        monkeypatch.setenv(REUSEPORT_ENV, "0")
        assert reuseport_available() is False
        monkeypatch.setenv(REUSEPORT_ENV, "off")
        assert reuseport_available() is False

    def test_fleet_config_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(workers=0)
        with pytest.raises(ValueError):
            FleetConfig(max_restarts=-1)


# ----------------------------------------------------------------------
@pytest.mark.skipif(not reuseport_available(),
                    reason="kernel lacks SO_REUSEPORT")
class TestReuseportMode:
    def test_serves_identical_payloads_to_single_server(self):
        reference = single_server_bodies()
        with ServingFleet(fast_config(),
                          FleetConfig(workers=2,
                                      reuseport=True)) as fleet:
            fleet.wait_ready()
            assert fleet.mode == "reuseport"
            bodies = probe_bodies(fleet.bound_port)
        assert [json.loads(b) for b in bodies] == reference

    def test_healthz_reports_worker_identity(self):
        with ServingFleet(fast_config(),
                          FleetConfig(workers=2,
                                      reuseport=True)) as fleet:
            fleet.wait_ready()
            status, body = fetch(fleet.bound_port, "/healthz")
            assert status == 200
            payload = json.loads(body)
            assert payload["status"] == "ok"
            assert payload["worker"] in (0, 1)


# ----------------------------------------------------------------------
class TestFallbackMode:
    """Forced fallback must work even where SO_REUSEPORT exists."""

    def test_forced_fallback_round_robin_spreads_and_matches(self):
        reference = single_server_bodies()
        with ServingFleet(fast_config(),
                          FleetConfig(workers=2,
                                      reuseport=False)) as fleet:
            fleet.wait_ready()
            assert fleet.mode == "fallback"
            bodies = probe_bodies(fleet.bound_port)
            # Round-robin: consecutive connections land on alternating
            # workers — /healthz tags each reply with the worker id.
            seen = {json.loads(fetch(fleet.bound_port,
                                     "/healthz")[1])["worker"]
                    for _ in range(4)}
            assert seen == {0, 1}
        assert [json.loads(b) for b in bodies] == reference

    def test_fallback_matches_reuseport_fleet(self):
        if not reuseport_available():
            pytest.skip("kernel lacks SO_REUSEPORT")
        with ServingFleet(fast_config(),
                          FleetConfig(workers=2,
                                      reuseport=True)) as fleet:
            fleet.wait_ready()
            via_reuseport = probe_bodies(fleet.bound_port)
        with ServingFleet(fast_config(),
                          FleetConfig(workers=2,
                                      reuseport=False)) as fleet:
            fleet.wait_ready()
            via_fallback = probe_bodies(fleet.bound_port)
        assert via_fallback == via_reuseport


# ----------------------------------------------------------------------
class TestSameCell:
    def test_fleet_matches_lone_server_across_workers(self):
        """Queries of one cell get one body on any worker: the answer
        is a function of the parsed request, not of what the worker
        that serves it was asked before."""
        async def scenario(server):
            return [(await request(server.bound_port, path))[2]
                    for path in SAME_CELL]

        lone = run(with_server(fast_config(), scenario))
        # Round-robin routing: consecutive queries reach different
        # workers, so the first worker's cache cannot answer the second.
        with ServingFleet(fast_config(),
                          FleetConfig(workers=2,
                                      reuseport=False)) as fleet:
            fleet.wait_ready()
            bodies = [fetch(fleet.bound_port, path)[1]
                      for path in SAME_CELL]
        assert [json.loads(body) for body in bodies] == lone
        assert len(set(bodies)) == 1


# ----------------------------------------------------------------------
class TestSupervision:
    def test_sigkilled_worker_is_respawned(self):
        with ServingFleet(fast_config(),
                          FleetConfig(workers=2)) as fleet:
            fleet.wait_ready()
            victim = fleet.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                pids = fleet.worker_pids()
                if pids[0] is not None and pids[0] != victim:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("worker was not respawned")
            fleet.wait_ready()
            assert fleet.total_restarts >= 1
            status, _ = fetch(fleet.bound_port, PROBE_PATHS[0])
            assert status == 200

    def test_stop_is_idempotent_and_reaps_workers(self):
        fleet = ServingFleet(fast_config(), FleetConfig(workers=2))
        fleet.start()
        fleet.wait_ready()
        pids = fleet.worker_pids()
        fleet.stop()
        fleet.stop()
        for pid in pids:
            with pytest.raises(OSError):
                os.kill(pid, 0)


# ----------------------------------------------------------------------
class TestTempDir:
    """The private ephemeris directory exists from start() to stop()."""

    @pytest.fixture
    def tempdir(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        return tmp_path

    def test_unstarted_fleet_makes_no_directory(self, tempdir):
        ServingFleet(fast_config(), FleetConfig(workers=2))
        assert not list(tempdir.glob("satiot-fleet-ephemeris-*"))

    @pytest.mark.parametrize("reuseport", [True, False])
    def test_failed_start_leaves_nothing(self, tempdir, reuseport):
        if reuseport and not reuseport_available():
            pytest.skip("kernel lacks SO_REUSEPORT")
        before = set(multiprocessing.active_children())
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen(1)
            config = fast_config(port=busy.getsockname()[1])
            with pytest.raises(OSError):
                with ServingFleet(config, FleetConfig(
                        workers=2, reuseport=reuseport)):
                    pass
        assert not list(tempdir.glob("satiot-fleet-ephemeris-*"))
        assert set(multiprocessing.active_children()) <= before


# ----------------------------------------------------------------------
class TestFleetMetrics:
    def test_merged_view_sums_workers(self):
        with ServingFleet(fast_config(),
                          FleetConfig(workers=2,
                                      reuseport=False)) as fleet:
            fleet.wait_ready()
            for path in PROBE_PATHS:
                status, _ = fetch(fleet.bound_port, path)
                assert status == 200
            merged = fleet.fleet_metrics()

        workers = merged["_workers"]
        assert set(workers) == {"0", "1"}
        # The requests were round-robined over both workers (proven in
        # TestFallbackMode); the merged endpoint counter must equal the
        # total across the fleet, and each worker's raw snapshot is
        # retained for the sum.
        per_worker = [slot.last_metrics["metrics"]["endpoints"]
                       ["passes"]["counters"]["requests"]
                      for slot in fleet._slots]
        assert sum(per_worker) == len(PROBE_PATHS)
        assert all(count > 0 for count in per_worker)
        assert merged["passes"]["requests"] == len(PROBE_PATHS)
        assert "_server" in merged
        for worker in workers.values():
            assert worker["alive"]
            assert worker["pid"] > 0
            assert worker["rss_max_kib"] > 0
            assert worker["ephemeris"]["grid_bytes"] >= 0
            # Each worker's own /metrics record: the result cache and
            # the whole ephemeris CacheStats.
            assert worker["cache"]["entries"] >= 0
            assert worker["ephemeris"]["pass_hits"] >= 0
            assert "disk_corrupt" in worker["ephemeris"]

        info = merged["_fleet"]
        assert info["workers"] == 2
        assert info["mode"] == "fallback"
        assert info["port"] == fleet.bound_port


# ----------------------------------------------------------------------
class TestServiceRecipe:
    """Workers build their service the way a lone server does, from
    the supervisor's validated config and loaded constellations."""

    @pytest.mark.parametrize("constellations, extra, match", [
        (("bogus",), (), "unknown constellation"),
        ((), (), "no constellations"),
        (("pico",), ("pico",), "already loaded")])
    def test_bad_config_refused_before_forking(self, constellations,
                                               extra, match):
        before = set(multiprocessing.active_children())
        with pytest.raises(ValueError, match=match):
            with ServingFleet(
                    fast_config(constellations=constellations),
                    FleetConfig(workers=2, max_restarts=0),
                    extra=[build_constellation(n) for n in extra],
            ) as fleet:
                fleet.wait_ready(timeout=5.0)
        assert set(multiprocessing.active_children()) <= before

    def test_catalog_fleet_matches_lone_server(self, tmp_path):
        """Workers inherit the loaded catalog constellation (its file
        is gone before the fork) and answer byte-identically to a lone
        server built from the same recipe."""
        from satiot.catalog import constellation_from_catalog
        from satiot.catalog.ingest import write_catalog
        from satiot.catalog.synth import (MegaConstellationSpec,
                                          synthesize_mega_constellation)
        from satiot.constellations.shells import ShellSpec

        spec = MegaConstellationSpec(
            name="MINI",
            shells=(ShellSpec("S1", count=12, altitude_min_km=540.0,
                              altitude_max_km=560.0,
                              inclination_deg=53.0, planes=4),),
            norad_base=63000)
        path = tmp_path / "mini.3le"
        write_catalog(synthesize_mega_constellation(spec, seed=9), path)
        catalog = constellation_from_catalog(str(path), name="minicat")
        path.unlink()
        paths = [p.replace("constellation=pico", "constellation=minicat")
                 .replace("horizon_s=3600", "horizon_s=21600")
                 for p in PROBE_PATHS]
        config = fast_config()

        async def lone_server():
            server = ServingServer(config, build_service(config,
                                                         [catalog]))
            await server.start()
            try:
                return [await asyncio.to_thread(fetch, server.bound_port,
                                                path) for path in paths]
            finally:
                await server.close()

        reference = run(lone_server())
        with ServingFleet(config, FleetConfig(workers=2),
                          extra=[catalog]) as fleet:
            fleet.wait_ready()
            answers = [fetch(fleet.bound_port, path) for path in paths]
        assert answers == reference
        assert all(status == 200 for status, _ in answers)
        assert any(json.loads(body)["count"] for _, body in answers)
