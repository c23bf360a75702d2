"""Batched/unbatched determinism + constellation-grid key compatibility.

The fleet pass search refines the crossings of every pair it is given
in lockstep.  A pair's windows must not depend on which other pairs
share its search: every consumer — campaign scheduler, serving flush —
must produce **byte-identical** output whether its pairs are searched
together ("batching on") or one pair per search ("off", the
per-satellite :meth:`EphemerisCache.find_passes` path).  These tests
pin that contract, plus the cache-key compatibility that lets fleet
fills satisfy single-satellite lookups.
"""

from __future__ import annotations

import numpy as np
import pytest

from satiot.constellations.catalog import build_constellation
from satiot.core.campaign import (PassiveCampaign, PassiveCampaignConfig,
                                  _campaign_inputs)
from satiot.core.sites import SITES
from satiot.runtime.ephemeris_cache import EphemerisCache
from satiot.serving.service import (ConstellationService, PassesRequest,
                                    PresenceRequest)

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


def _observer_params():
    return [{"lat": 22.3, "lon": 114.2},
            {"lat": -33.9, "lon": 151.2},
            {"lat": 51.5, "lon": -0.1},
            {"lat": 64.1, "lon": -21.9}]


def _serve(handler: str, requests, batch: bool):
    """Answer requests as one micro-batch (a fleet flush over every
    observer) or one request per batch (the lone-observer path)."""
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
    """Fleet fills and single-satellite lookups share one key space."""

    @pytest.fixture()
    def fleet(self):
        constellation = build_constellation("tianqi", seed=3)
        props = [sat.propagator for sat in constellation]
        epoch = props[0].tle.epoch
        offsets = np.arange(0.0, 3600.0 + 1e-9, 60.0)
        return props, epoch, offsets

    def test_fleet_fill_satisfies_single_sat_lookup(self, fleet):
        props, epoch, offsets = fleet
        cache = EphemerisCache()
        r, v = cache.constellation_grid(props, epoch, offsets)
        assert r.shape == (len(props), offsets.size, 3)
        misses = cache.stats.grid_misses
        for i, prop in enumerate(props):
            ri, vi = cache.propagation_grid(prop, epoch, offsets)
            assert np.array_equal(ri, r[i])
            assert np.array_equal(vi, v[i])
            # Row entries are views of the fleet stack, not copies.
            assert ri.base is not None
        assert cache.stats.grid_misses == misses  # all hits

    def test_single_sat_fills_adopted_into_stack(self, fleet):
        props, epoch, offsets = fleet
        cache = EphemerisCache()
        pre = [cache.propagation_grid(p, epoch, offsets)
               for p in props[:3]]
        misses = cache.stats.grid_misses
        r, v = cache.constellation_grid(props, epoch, offsets)
        # Only the satellites not already cached were propagated.
        assert cache.stats.grid_misses == misses + len(props) - 3
        for i, (ri, vi) in enumerate(pre):
            assert np.array_equal(r[i], ri)
            assert np.array_equal(v[i], vi)

    def test_grid_resident_bytes_dedupes_views(self, fleet):
        props, epoch, offsets = fleet
        cache = EphemerisCache()
        r, v = cache.constellation_grid(props, epoch, offsets)
        resident = cache.grid_resident_bytes()
        # One (N, T, 3) stack pair, counted once despite N row views
        # plus the stack entry itself living in the LRU.
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

