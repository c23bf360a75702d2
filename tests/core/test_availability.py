"""Tests for the availability analysis (paper Figure 3)."""

import math

import pytest

from satiot.constellations.catalog import build_constellation
from satiot.core.availability import (daily_presence_hours,
                                      presence_by_site, rssi_stats,
                                      rssi_vs_distance)
from satiot.core.sites import SITES


class TestDailyPresence:
    @pytest.fixture(scope="class")
    def tianqi(self):
        return build_constellation("tianqi")

    def test_tianqi_paper_band(self, tianqi):
        # Paper Fig. 3a: Tianqi with 22 satellites is present
        # 13.4-19.1 hours per day.
        epoch = tianqi.satellites[0].tle.epoch
        hours = daily_presence_hours(tianqi, SITES["HK"].location, epoch)
        assert 13.0 < hours < 21.0

    def test_fossa_paper_band(self):
        # Paper Fig. 3a: FOSSA's three satellites give 1.1-3.0 h/day.
        fossa = build_constellation("fossa")
        epoch = fossa.satellites[0].tle.epoch
        hours = daily_presence_hours(fossa, SITES["HK"].location, epoch)
        assert 0.8 < hours < 3.5

    def test_larger_constellation_longer_presence(self, tianqi):
        pico = build_constellation("pico")
        epoch = tianqi.satellites[0].tle.epoch
        hk = SITES["HK"].location
        assert daily_presence_hours(tianqi, hk, epoch) \
            > daily_presence_hours(pico, hk, epoch)

    def test_bounded_by_24h(self, tianqi):
        epoch = tianqi.satellites[0].tle.epoch
        hours = daily_presence_hours(tianqi, SITES["SYD"].location, epoch)
        assert 0.0 <= hours <= 24.0

    def test_invalid_days(self, tianqi):
        epoch = tianqi.satellites[0].tle.epoch
        with pytest.raises(ValueError):
            daily_presence_hours(tianqi, SITES["HK"].location, epoch,
                                 days=0.0)


    def test_by_site_matches_one_site_searches(self, tianqi):
        """Every site in one fleet search per constellation gives each
        site's own answer, bit for bit."""
        constellations = {"tianqi": tianqi,
                          "fossa": build_constellation("fossa")}
        locations = {code: site.location for code, site in SITES.items()}
        epoch = tianqi.satellites[0].tle.epoch
        table = presence_by_site(constellations, locations, epoch,
                                 days=0.5, min_elevation_deg=5.0)
        assert table == {
            name: {code: daily_presence_hours(
                con, location, epoch, days=0.5, min_elevation_deg=5.0)
                for code, location in locations.items()}
            for name, con in constellations.items()}
        assert all(hours > 0 for hours in table["tianqi"].values())


class TestRssiStats:
    def test_stats_on_fixture(self, passive_result_small):
        receptions = passive_result_small.receptions("HK", "tianqi")
        stats = rssi_stats(receptions)
        assert stats.count > 0
        assert stats.p10_dbm < stats.median_dbm < stats.p90_dbm
        # Weak-signal regime (paper Fig. 3b).
        assert -145.0 < stats.median_dbm < -105.0

    def test_empty(self):
        stats = rssi_stats([])
        assert stats.count == 0
        assert math.isnan(stats.mean_dbm)


class TestRssiVsDistance:
    def test_monotonic_decline(self, passive_result_small):
        receptions = passive_result_small.receptions("HK", "tianqi")
        bins = rssi_vs_distance(receptions,
                                [500, 1000, 1500, 2000, 3000, 4000])
        assert len(bins) >= 3
        # Paper Fig. 3c: signal strength falls with distance.  Compare
        # first and last populated bins.
        assert bins[0][1] > bins[-1][1]

    def test_counts_sum_to_traces(self, passive_result_small):
        receptions = passive_result_small.receptions("HK", "tianqi")
        bins = rssi_vs_distance(receptions, [0, 10000])
        total = sum(len(r.traces) for r in receptions)
        assert bins[0][2] == total

    def test_invalid_bins(self, passive_result_small):
        receptions = passive_result_small.receptions("HK", "tianqi")
        with pytest.raises(ValueError):
            rssi_vs_distance(receptions, [1000])
        with pytest.raises(ValueError):
            rssi_vs_distance(receptions, [1000, 500])
