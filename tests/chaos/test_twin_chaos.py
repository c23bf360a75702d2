"""Chaos: the digital twin stays byte-exact under storms.

Two layers of the twin serving mode are stormed here:

* **cache layer** — seeded ``cache.disk_write`` failures and
  ``twin.extend`` fast-path abandonments while an incremental grid
  chain grows.  The extension tier may lose its disk tier or its fast
  path at any step; the assembled grids must stay bit-identical to a
  clean cold propagation (degrade to recompute, never to drift);
* **fleet layer** — ``serving.worker_kill`` + ``cache.disk_write``
  while a realtime fleet answers ``start=now`` / ``start=next``
  queries.  Killed workers are respawned, re-attach to the shared
  ephemeris tier, rebuild the same :class:`SimClock` mapping from the
  pickled anchor, and the fleet's answers stay byte-identical to a
  clean single-process server on the same (quantized) clock.

The wide clock quantum pins ``start=now`` to one offset for the whole
test, so byte-identity is meaningful rather than racy.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from satiot.orbits.sgp4 import SGP4
from satiot.runtime.ephemeris_cache import EphemerisCache
from satiot.serving import FleetConfig, ServingFleet, fork_available

from tests.chaos.conftest import armed
from tests.conftest import make_test_tle
from tests.serving.test_fleet import fast_config, fetch
from tests.serving.test_server import request, run, with_server

pytestmark = pytest.mark.chaos

CACHE_STORM = "seed=5;cache.disk_write=p0.4;twin.extend=p0.5"
FLEET_STORM = "seed=11;serving.worker_kill=@3;cache.disk_write=p0.3"

#: start=now resolves to exactly 7200 s for every process in the test:
#: the anchor places "now" two hours past the epoch and the one-hour
#: quantum swallows the test's real elapsed time.
TWIN_CLOCK = dict(realtime=True, clock_quantum_s=3600.0)

REALTIME_PROBES = (
    "/v1/passes?constellation=pico&lat=22.3&lon=114.2"
    "&horizon_s=3600&min_elevation_deg=10&start=now",
    "/v1/passes?constellation=pico&lat=-33.9&lon=18.4"
    "&horizon_s=3600&min_elevation_deg=10&start=next",
    "/v1/presence?constellation=pico&lat=64.1&lon=-21.9"
    "&horizon_s=3600&start=now",
)


def make_fleet_props(n: int = 3):
    return [SGP4(make_test_tle(norad_id=53000 + i,
                               raan_deg=(31.0 + 101.0 * i) % 360.0))
            for i in range(n)]


# ----------------------------------------------------------------------
class TestCacheStorm:
    """Incremental extension under disk-write + fast-path faults."""

    def test_extension_chain_exact_under_storm(self, chaos_cache_dir):
        props = make_fleet_props()
        epoch = props[0].tle.epoch
        full = np.arange(240, dtype=float) * 30.0
        reference = EphemerisCache().constellation_grid(
            props, epoch, full)

        with armed(CACHE_STORM):
            cache = EphemerisCache(disk_dir=chaos_cache_dir)
            for t in (60, 120, 180):
                r, v = cache.constellation_grid(props, epoch, full[:t])
                assert r.shape == (len(props), t, 3)
            r, v = cache.constellation_grid(props, epoch, full)
        assert r.tobytes() == reference[0].tobytes()
        assert v.tobytes() == reference[1].tobytes()

    def test_abandoned_fast_path_recomputes_identically(self):
        """twin.extend=p1.0: the fast path is *always* abandoned, so
        zero extensions happen — and nothing changes in the bytes."""
        props = make_fleet_props(2)
        epoch = props[0].tle.epoch
        full = np.arange(100, dtype=float) * 60.0
        reference = EphemerisCache().constellation_grid(
            props, epoch, full)

        with armed("seed=3;twin.extend=p1.0"):
            cache = EphemerisCache()
            cache.constellation_grid(props, epoch, full[:50])
            r, v = cache.constellation_grid(props, epoch, full)
        assert cache.stats.grid_extensions == 0
        assert r.tobytes() == reference[0].tobytes()
        assert v.tobytes() == reference[1].tobytes()

    def test_storm_still_extends_sometimes(self, chaos_cache_dir):
        """The p0.5 storm must leave the fast path alive part of the
        time — otherwise the chaos coverage is an illusion."""
        props = make_fleet_props(2)
        epoch = props[0].tle.epoch
        full = np.arange(200, dtype=float) * 30.0
        with armed(CACHE_STORM):
            cache = EphemerisCache(disk_dir=chaos_cache_dir)
            for t in range(20, 201, 20):
                cache.constellation_grid(props, epoch, full[:t])
        assert cache.stats.grid_extensions > 0


# ----------------------------------------------------------------------
@pytest.mark.skipif(not fork_available(),
                    reason="fleet workers require the fork start method")
class TestRealtimeFleetStorm:
    """worker_kill + disk_write under an advancing (quantized) clock."""

    def twin_config(self, anchor: float):
        return fast_config(clock_anchor=anchor, **TWIN_CLOCK)

    def single_reference(self, anchor: float):
        async def scenario(server):
            bodies = []
            for path in REALTIME_PROBES:
                status, _, payload = await request(server.bound_port,
                                                   path)
                assert status == 200
                bodies.append(payload)
            return bodies

        return run(with_server(self.twin_config(anchor), scenario))

    def test_fleet_answers_survive_kill_storm_byte_identical(self):
        anchor = time.time() - 7200.0
        reference = self.single_reference(anchor)
        # start=now resolved inside the quantum: offset pinned at 7200.
        assert all(b.get("start_s") == 7200.0 for b in reference)

        with armed(FLEET_STORM):
            with ServingFleet(self.twin_config(anchor),
                              FleetConfig(workers=2,
                                          restart_backoff_s=0.01)
                              ) as fleet:
                fleet.wait_ready()
                bodies = []
                for round_index in range(3):
                    for pos, path in enumerate(REALTIME_PROBES):
                        status, body = fetch(fleet.bound_port, path,
                                             retries=300,
                                             backoff_s=0.05)
                        assert status == 200, (status, body[:200])
                        if round_index == 0:
                            bodies.append(json.loads(body))
                        else:
                            # Restarted workers must converge on the
                            # same bytes, not just the first round.
                            assert json.loads(body) == bodies[pos]
                restarts = fleet.total_restarts
        assert bodies == reference
        assert restarts > 0, "kill schedule never fired"

    def test_next_clamps_to_single_pass_under_storm(self):
        anchor = time.time() - 7200.0
        with armed(FLEET_STORM):
            with ServingFleet(self.twin_config(anchor),
                              FleetConfig(workers=2,
                                          restart_backoff_s=0.01)
                              ) as fleet:
                fleet.wait_ready()
                for _ in range(4):
                    status, body = fetch(fleet.bound_port,
                                         REALTIME_PROBES[1],
                                         retries=300, backoff_s=0.05)
                    assert status == 200
                    assert json.loads(body)["count"] <= 1
