"""Batched/unbatched determinism + constellation-grid exactness.

The fleet pass search refines the crossings of every pair it is given
in lockstep, and the receiver builds the beacon trains of all its
passes in one geometry gather.  A pair's windows must not depend on which other pairs
share its search: every consumer — campaign scheduler, serving flush —
must produce **byte-identical** output whether its pairs are searched
together ("batching on") or in smaller searches ("off": one pair per
:meth:`EphemerisCache.find_passes` call, or one request per serving
batch).  These tests pin that contract for pass search and beacon reception,
plus the bit-identity of the cached constellation grid to
per-satellite propagation.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from satiot.constellations.catalog import build_constellation
from satiot.core.campaign import (PassiveCampaign, PassiveCampaignConfig,
                                  _campaign_inputs, _deploy_stations)
from satiot.core.sites import SITES
from satiot.groundstation.receiver import BeaconReceiver, PassReception
from satiot.groundstation.scheduler import Scheduler
from satiot.runtime.ephemeris_cache import EphemerisCache
from satiot.serving.service import (ConstellationService, PassesRequest,
                                    PresenceRequest)
from satiot.sim.rng import RngStreams
from satiot.sim.weather import WeatherProcess

from .test_columnar_determinism import assert_columns_bit_identical

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


CFG = dict(sites=("HK",), constellations=("tianqi",), days=0.5, seed=7)


def _run_campaign(batch: bool):
    """One campaign on a fresh cache.  Unbatched, the cache is first
    filled one (satellite, site) search at a time, so the campaign's
    fleet search only reads those per-pair windows back."""
    cache = EphemerisCache()
    config = PassiveCampaignConfig(**CFG)
    _, satellites, epoch = _campaign_inputs(config)
    if not batch:
        for code in CFG["sites"]:
            for sat in satellites:
                cache.find_passes(
                    sat.propagator, SITES[code].location, epoch,
                    config.duration_s, coarse_step_s=config.coarse_step_s,
                    min_elevation_deg=config.min_elevation_deg)
    misses = cache.stats.pass_misses
    result = PassiveCampaign(config, workers=1,
                             ephemeris_cache=cache).run()
    searched = cache.stats.pass_misses - misses
    assert searched == (len(satellites) if batch else 0)
    return result


class TestCampaignBatchingDeterminism:
    def test_campaign_columns_identical_on_off(self):
        batched = _run_campaign(True)
        unbatched = _run_campaign(False)
        assert batched.total_traces == unbatched.total_traces > 0
        assert_columns_bit_identical(batched.dataset, unbatched.dataset)

    def test_schedules_identical_on_off(self):
        batched = _run_campaign(True)
        unbatched = _run_campaign(False)
        for code in CFG["sites"]:
            sched_a = batched.site_results[code].schedule
            sched_b = unbatched.site_results[code].schedule
            assert len(sched_a.assigned) == len(sched_b.assigned) > 0
            for a, b in zip(sched_a.assigned, sched_b.assigned):
                assert a.satellite.norad_id == b.satellite.norad_id
                assert a.window.rise_s == b.window.rise_s
                assert a.window.set_s == b.window.set_s
                assert a.window.max_elevation_deg == \
                    b.window.max_elevation_deg


class TestReceiveChainDeterminism:
    """One geometry gather for every pass of a site gives the same
    receptions as listening one pass at a time."""

    def test_receive_passes_equal_pass_by_pass(self):
        config = PassiveCampaignConfig(sites=("HK",), days=0.5, seed=11)
        _, satellites, epoch = _campaign_inputs(config)
        site = SITES["HK"]
        stations = _deploy_stations(site)
        schedule = Scheduler(stations).build_schedule(
            satellites, epoch, config.duration_s,
            coarse_step_s=config.coarse_step_s)
        assigned = schedule.assigned
        assert len({sp.station.station_id for sp in assigned}) > 1
        weather = WeatherProcess(site.weather, config.duration_s,
                                 RngStreams(config.seed).get("weather"))
        receiver = BeaconReceiver(
            link_overrides={"implementation_loss_db": 2.0})
        pass_ids = [f"HK-{i}" for i in range(len(assigned))]

        def rngs():
            streams = RngStreams(config.seed)
            return [streams.get(f"rx/{i}") for i in range(len(assigned))]

        batched = receiver.receive_passes(assigned, epoch, pass_ids,
                                          rngs(), weather=weather)
        single = [receiver.receive_pass(sp, epoch, pass_id, rng,
                                        weather=weather)
                  for sp, pass_id, rng in zip(assigned, pass_ids, rngs())]
        assert len(batched) == len(single) == len(assigned) > 20
        assert sum(len(r.traces) for r in batched) > 0
        for a, b in zip(batched, single):
            for field in dataclasses.fields(PassReception):
                if field.name != "traces":
                    assert getattr(a, field.name) == \
                        getattr(b, field.name), field.name
            assert_columns_bit_identical(a.traces, b.traces)

    def test_pass_ids_and_generators_must_match_passes(self):
        with pytest.raises(ValueError, match="one generator per pass"):
            BeaconReceiver().receive_passes([], None, ["HK-0"], [])


def _observer_params():
    return [{"lat": 22.3, "lon": 114.2},
            {"lat": -33.9, "lon": 151.2},
            {"lat": 51.5, "lon": -0.1},
            {"lat": 64.1, "lon": -21.9}]


def _serve(handler: str, requests, batch: bool):
    """Answer requests as one micro-batch (a fleet flush over every
    observer) or one request per batch (a one-observer search each)."""
    service = ConstellationService(coarse_step_s=60.0,
                                   refine="bisect")
    answer = getattr(service, handler)
    if batch:
        return answer(requests)
    return [answer([request])[0] for request in requests]


class TestServingBatchingDeterminism:
    def test_passes_payloads_identical_on_off(self):
        requests = [PassesRequest.from_params(
            {**p, "horizon_s": 6 * 3600.0}) for p in _observer_params()]
        on = _serve("passes_batch", requests, batch=True)
        off = _serve("passes_batch", requests, batch=False)
        assert on == off
        assert any(p["count"] > 0 for p in on)

    def test_presence_payloads_identical_on_off(self):
        requests = [PresenceRequest.from_params(
            {**p, "horizon_s": 6 * 3600.0}) for p in _observer_params()]
        on = _serve("presence_batch", requests, batch=True)
        off = _serve("presence_batch", requests, batch=False)
        assert on == off


class TestConstellationGridKeyCompat:
    """Fleet grids are exact and shared by the fleet pass search."""

    @pytest.fixture()
    def fleet(self):
        constellation = build_constellation("tianqi", seed=3)
        props = [sat.propagator for sat in constellation]
        epoch = props[0].tle.epoch
        offsets = np.arange(0.0, 3600.0 + 1e-9, 60.0)
        return props, epoch, offsets

    def test_grid_resident_bytes_dedupes_views(self, fleet):
        props, epoch, offsets = fleet
        cache = EphemerisCache()
        r, v = cache.constellation_grid(props, epoch, offsets)
        resident = cache.grid_resident_bytes()
        # One (N, T, 3) stack pair: the grid tier holds no row copies.
        assert resident == r.nbytes + v.nbytes
        assert cache.stats.grid_bytes == resident

    def test_fleet_grid_bit_identical_to_scalar(self, fleet):
        props, epoch, offsets = fleet
        cache = EphemerisCache()
        r, v = cache.constellation_grid(props, epoch, offsets)
        for i, prop in enumerate(props):
            tsince = float(epoch - prop.tle.epoch) + offsets
            r_ref, v_ref = prop.propagate(tsince)
            assert np.array_equal(r[i], r_ref)
            assert np.array_equal(v[i], v_ref)

    def test_fleet_passes_match_scalar_cache_path(self, fleet,
                                                  monkeypatch):
        from satiot.orbits.frames import GeodeticPoint
        props, epoch, offsets = fleet
        observers = [GeodeticPoint(22.3, 114.2, 0.0),
                     GeodeticPoint(-33.9, 151.2, 0.0)]
        fleet_cache = EphemerisCache()
        per = fleet_cache.find_passes_fleet(
            props[:6], observers, epoch, 6 * 3600.0,
            coarse_step_s=60.0, min_elevation_deg=10.0)
        scalar_cache = EphemerisCache()
        for n, prop in enumerate(props[:6]):
            for m, obs in enumerate(observers):
                ref = scalar_cache.find_passes(
                    prop, obs, epoch, 6 * 3600.0, coarse_step_s=60.0,
                    min_elevation_deg=10.0)
                assert list(per[n][m]) == list(ref)

