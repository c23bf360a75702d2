"""Tests for contact-window prediction."""

import numpy as np
import pytest

from satiot.orbits.frames import GeodeticPoint
from satiot.orbits.passes import (ContactWindow, PassPredictor,
                                  find_passes_fleet)
from satiot.orbits.sgp4 import SGP4
from satiot.runtime.ephemeris_cache import EphemerisCache

from tests.conftest import make_test_tle


@pytest.fixture(scope="module")
def predictor():
    sat = SGP4(make_test_tle())
    return PassPredictor(sat, GeodeticPoint(22.30, 114.17), 0.0)


@pytest.fixture(scope="module")
def day_windows(predictor):
    return predictor.find_passes(predictor.propagator.tle.epoch, 86400.0)


class TestContactWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            ContactWindow(rise_s=100.0, set_s=50.0, culmination_s=75.0,
                          max_elevation_deg=10.0)

    def test_duration_and_midpoint(self):
        w = ContactWindow(rise_s=100.0, set_s=700.0, culmination_s=400.0,
                          max_elevation_deg=45.0)
        assert w.duration_s == 600.0
        assert w.midpoint_s == 400.0

    def test_contains_and_position(self):
        w = ContactWindow(rise_s=0.0, set_s=100.0, culmination_s=50.0,
                          max_elevation_deg=45.0)
        assert w.contains(50.0) and not w.contains(101.0)
        assert w.normalized_position(25.0) == pytest.approx(0.25)


class TestFindPasses:
    def test_pass_count_plausible(self, day_windows):
        # 850 km / 50 deg inclination over Hong Kong: several passes/day.
        assert 4 <= len(day_windows) <= 12

    def test_windows_sorted_and_disjoint(self, day_windows):
        for a, b in zip(day_windows, day_windows[1:]):
            assert a.set_s < b.rise_s

    def test_durations_are_pass_scale(self, day_windows):
        # LEO passes last minutes, not hours (paper: ~10 minutes).
        for w in day_windows:
            if not (w.clipped_start or w.clipped_end):
                assert 30.0 < w.duration_s < 1500.0

    def test_boundary_elevations_near_mask(self, predictor, day_windows):
        epoch = predictor.propagator.tle.epoch
        for w in day_windows[:4]:
            if not w.clipped_start:
                assert abs(predictor.elevation_at(epoch, w.rise_s)) < 0.5
            if not w.clipped_end:
                assert abs(predictor.elevation_at(epoch, w.set_s)) < 0.5

    def test_culmination_inside_window(self, day_windows):
        for w in day_windows:
            assert w.rise_s <= w.culmination_s <= w.set_s
            assert w.max_elevation_deg > 0.0

    def test_culmination_is_maximum(self, predictor, day_windows):
        epoch = predictor.propagator.tle.epoch
        w = max(day_windows, key=lambda w: w.max_elevation_deg)
        samples = np.linspace(w.rise_s, w.set_s, 40)
        elevations = np.asarray(
            predictor.look_angles_at(epoch, samples).elevation_deg)
        assert w.max_elevation_deg >= elevations.max() - 0.3

    def test_elevation_mask_reduces_durations(self):
        sat = SGP4(make_test_tle())
        site = GeodeticPoint(22.30, 114.17)
        epoch = sat.tle.epoch
        low = PassPredictor(sat, site, 0.0).find_passes(epoch, 86400.0)
        high = PassPredictor(sat, site, 20.0).find_passes(epoch, 86400.0)
        assert len(high) <= len(low)
        assert (sum(w.duration_s for w in high)
                < sum(w.duration_s for w in low))

    def test_polar_orbit_covers_high_latitude(self):
        sat = SGP4(make_test_tle(inclination_deg=97.5, altitude_km=510.0))
        tromso = GeodeticPoint(69.6, 18.9)
        windows = PassPredictor(sat, tromso).find_passes(
            sat.tle.epoch, 86400.0)
        # Sun-synchronous satellites pass high latitudes many times a day.
        assert len(windows) >= 6

    def test_low_inclination_never_seen_from_high_latitude(self):
        sat = SGP4(make_test_tle(inclination_deg=35.0, altitude_km=550.0))
        tromso = GeodeticPoint(69.6, 18.9)
        windows = PassPredictor(sat, tromso).find_passes(
            sat.tle.epoch, 86400.0)
        assert windows == []

    def test_invalid_arguments(self, predictor):
        epoch = predictor.propagator.tle.epoch
        with pytest.raises(ValueError):
            predictor.find_passes(epoch, -5.0)
        with pytest.raises(ValueError):
            predictor.find_passes(epoch, 3600.0, coarse_step_s=0.0)
        with pytest.raises(ValueError):
            PassPredictor(SGP4(make_test_tle()),
                          GeodeticPoint(0.0, 0.0), 95.0)

    def test_norad_id_propagated(self, day_windows):
        assert all(w.norad_id == 44001 for w in day_windows)


class TestElevationMaskRange:
    """Every pass search refuses the masks PassPredictor refuses, so a
    query's outcome cannot depend on which search answers it."""

    SITES = [GeodeticPoint(22.30, 114.17), GeodeticPoint(69.6, 18.9)]

    @staticmethod
    def fleet():
        return [SGP4(make_test_tle()),
                SGP4(make_test_tle(norad_id=44002, raan_deg=200.0))]

    @pytest.mark.parametrize("mask", [95.0, 90.0, -8.0, -100.0,
                                      float("nan")])
    def test_every_search_rejects(self, mask):
        sats = self.fleet()
        epoch = sats[0].tle.epoch
        cache = EphemerisCache()
        searches = [
            lambda: PassPredictor(sats[0], self.SITES[0], mask),
            lambda: find_passes_fleet(sats, self.SITES, epoch, 3600.0,
                                      min_elevation_deg=mask),
            lambda: find_passes_fleet(sats, self.SITES[:1], epoch,
                                      3600.0, min_elevation_deg=mask),
            lambda: find_passes_fleet(sats[:1], self.SITES[:1], epoch,
                                      3600.0, min_elevation_deg=mask,
                                      refine="interp"),
            lambda: find_passes_fleet(sats[:1], self.SITES, epoch,
                                      3600.0, min_elevation_deg=mask)[0],
            lambda: cache.find_passes(sats[0], self.SITES[0], epoch,
                                      3600.0, min_elevation_deg=mask),
            lambda: cache.find_passes_fleet(sats, self.SITES, epoch,
                                            3600.0,
                                            min_elevation_deg=mask),
        ]
        for search in searches:
            with pytest.raises(ValueError, match="min_elevation_deg"):
                search()
        # Refused before any grid fill.
        assert cache.stats.snapshot() == (0,) * 8

    @pytest.mark.parametrize("mask", [-5.0, 89.9])
    def test_range_bounds_accepted(self, mask):
        sats = self.fleet()
        result = find_passes_fleet(sats, self.SITES, sats[0].tle.epoch,
                                   3600.0, min_elevation_deg=mask)
        assert len(result) == 2 and all(len(r) == 2 for r in result)
