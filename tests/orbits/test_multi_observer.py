"""Bit-identity of the multi-observer batch path vs. serial calls.

Batching requests of many observers into one pass search is sound ONLY
if batched evaluation over N observers is bit-identical (``==``, not
``allclose``) to N independent serial calls.
These tests pin that contract, property-style via hypothesis over
observer locations and deterministically over the refine modes, masks
and edge-case observers (poles, antimeridian, altitude).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satiot.constellations.catalog import build_constellation
from satiot.orbits import GeodeticPoint, find_passes_fleet
from satiot.orbits.passes import PassPredictor, observer_geometry
from satiot.orbits.topocentric import (batch_elevations,
                                       batch_look_angles, ecef_states,
                                       elevation_from_ecef, look_angles)
from satiot.runtime.ephemeris_cache import EphemerisCache

SEED = 7


@pytest.fixture(scope="module")
def satellites():
    return list(build_constellation("tianqi", seed=SEED))[:3]


@pytest.fixture(scope="module")
def states(satellites):
    """Shared TEME grid of one satellite over 4 h at 60 s."""
    sat = satellites[0]
    epoch = sat.tle.epoch
    offsets = PassPredictor.coarse_offsets(4 * 3600.0, 60.0)
    r, v = sat.propagator.propagate(offsets.astype(float))
    return epoch, offsets, np.asarray(r, float), np.asarray(v, float)


EDGE_OBSERVERS = [
    GeodeticPoint(89.9, 0.0, 0.0),      # near north pole
    GeodeticPoint(-89.9, 180.0, 0.0),   # near south pole, antimeridian
    GeodeticPoint(0.0, -180.0, 0.0),    # equator, date line
    GeodeticPoint(22.3, 114.2, 5.0),    # 5 km altitude
    GeodeticPoint(-33.9, 151.2, 0.05),
]

observer_strategy = st.builds(
    GeodeticPoint,
    st.floats(min_value=-89.99, max_value=89.99),
    st.floats(min_value=-180.0, max_value=180.0),
    st.floats(min_value=0.0, max_value=8.0),
)


class TestLookAngleBitIdentity:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(observer_strategy, min_size=1, max_size=5))
    def test_batch_look_angles_rows_equal_serial(self, states,
                                                 observers):
        epoch, offsets, r, v = states
        jd = epoch.offset_jd(offsets)
        batched = batch_look_angles(observers, r, v, jd)
        for m, observer in enumerate(observers):
            serial = look_angles(observer, r, v, jd)
            assert np.array_equal(batched.azimuth_deg[m],
                                  serial.azimuth_deg)
            assert np.array_equal(batched.elevation_deg[m],
                                  serial.elevation_deg)
            assert np.array_equal(batched.range_km[m],
                                  serial.range_km)
            assert np.array_equal(batched.range_rate_km_s[m],
                                  serial.range_rate_km_s)

    def test_batch_elevations_rows_equal_serial(self, states):
        epoch, offsets, r, v = states
        r_ecef, _ = ecef_states(r, v, epoch.offset_jd(offsets))
        matrix = batch_elevations(EDGE_OBSERVERS, r_ecef)
        assert matrix.shape == (len(EDGE_OBSERVERS), offsets.size)
        for m, observer in enumerate(EDGE_OBSERVERS):
            assert np.array_equal(
                matrix[m], elevation_from_ecef(observer, r_ecef))

    def test_precomputed_geometry_is_bit_identical(self, states):
        epoch, offsets, r, v = states
        r_ecef, _ = ecef_states(r, v, epoch.offset_jd(offsets))
        observer = EDGE_OBSERVERS[3]
        [(site, rot)] = observer_geometry([observer])
        assert np.array_equal(
            elevation_from_ecef(observer, r_ecef, site=site, rot=rot),
            elevation_from_ecef(observer, r_ecef))

    def test_scalar_state_matches_batched_element(self, states):
        epoch, offsets, r, v = states
        jd = epoch.offset_jd(offsets)
        observer = EDGE_OBSERVERS[0]
        full = look_angles(observer, r, v, jd)
        k = offsets.size // 2
        single = look_angles(observer, r[k], v[k], float(jd[k]))
        assert single.elevation_deg == full.elevation_deg[k]
        assert single.azimuth_deg == full.azimuth_deg[k]
        assert single.range_km == full.range_km[k]
        assert single.range_rate_km_s == full.range_rate_km_s[k]


class TestPassBitIdentity:
    @pytest.mark.parametrize("refine", ["bisect", "interp"])
    @pytest.mark.parametrize("mask_deg", [0.0, 10.0])
    def test_one_sat_equals_serial(self, satellites, refine, mask_deg):
        epoch = satellites[0].tle.epoch
        duration = 12 * 3600.0
        observers = EDGE_OBSERVERS
        for sat in satellites:
            rows = find_passes_fleet([sat.propagator], observers, epoch,
                                     duration, coarse_step_s=60.0,
                                     min_elevation_deg=mask_deg,
                                     refine=refine)[0]
            for observer, windows in zip(observers, rows):
                predictor = PassPredictor(sat.propagator, observer,
                                          mask_deg)
                serial = predictor.find_passes(epoch, duration,
                                               coarse_step_s=60.0,
                                               refine=refine)
                assert windows == serial

    @settings(max_examples=10, deadline=None)
    @given(st.lists(observer_strategy, min_size=2, max_size=4))
    def test_one_sat_random_observers(self, satellites, observers):
        sat = satellites[0]
        epoch = sat.tle.epoch
        rows = find_passes_fleet([sat.propagator], observers, epoch,
                                 6 * 3600.0, coarse_step_s=60.0,
                                 min_elevation_deg=5.0,
                                 refine="interp")[0]
        for observer, windows in zip(observers, rows):
            predictor = PassPredictor(sat.propagator, observer, 5.0)
            assert windows == predictor.find_passes(
                epoch, 6 * 3600.0, coarse_step_s=60.0, refine="interp")

    def test_cache_keys_shared_between_serial_and_batch(self,
                                                        satellites):
        """Later one-pair searches reuse a batched search's grid and
        give its windows."""
        sat = satellites[0]
        epoch = sat.tle.epoch
        cache = EphemerisCache()
        observers = EDGE_OBSERVERS[:3]
        rows = cache.find_passes_fleet([sat.propagator], observers,
                                       epoch, 6 * 3600.0,
                                       coarse_step_s=60.0,
                                       min_elevation_deg=10.0,
                                       refine="interp")[0]
        hits, misses = cache.stats.grid_hits, cache.stats.grid_misses
        for observer, windows in zip(observers, rows):
            serial = cache.find_passes(sat.propagator, observer, epoch,
                                       6 * 3600.0, coarse_step_s=60.0,
                                       min_elevation_deg=10.0,
                                       refine="interp")
            assert serial == windows
        assert cache.stats.grid_hits == hits + len(observers)
        assert cache.stats.grid_misses == misses
