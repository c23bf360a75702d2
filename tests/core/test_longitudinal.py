"""Tests for the longitudinal (multi-week) campaign sampler."""

import pytest

from satiot.core.longitudinal import LongitudinalCampaign


@pytest.fixture(scope="module")
def longitudinal():
    campaign = LongitudinalCampaign(weeks=3, site="HK",
                                    sample_days=0.5, period_days=7.0,
                                    seed=9,
                                    constellations=("tianqi",))
    return campaign.run()


class TestLongitudinalCampaign:
    def test_validation(self):
        with pytest.raises(ValueError):
            LongitudinalCampaign(weeks=0)
        with pytest.raises(ValueError):
            LongitudinalCampaign(sample_days=2.0, period_days=1.0)

    def test_one_sample_per_week(self, longitudinal):
        assert len(longitudinal.samples) == 3
        assert [s.week for s in longitudinal.samples] == [0, 1, 2]
        offsets = [s.start_day_offset for s in longitudinal.samples]
        assert offsets == [0.0, 7.0, 14.0]

    def test_every_week_collects_traces(self, longitudinal):
        for traces in longitudinal.traces_per_week():
            assert traces > 0

    def test_shrinkage_stable_across_weeks(self, longitudinal):
        # The headline finding holds week over week (paper: consistent
        # over seven months); weekly estimates stay within a band.
        series = longitudinal.shrinkage_series("tianqi")
        assert all(0.6 < s < 1.0 for s in series)
        assert longitudinal.shrinkage_stability("tianqi") < 0.25

    def test_telemetry_one_shard_per_week(self, longitudinal):
        telemetry = longitudinal.telemetry
        assert [s.label for s in telemetry.shards] == \
            ["week:0", "week:1", "week:2"]
        assert [s.traces for s in telemetry.shards] == \
            longitudinal.traces_per_week()
        assert telemetry.spilled_shards == 0
        assert "spilled" not in telemetry.render()

    def test_weeks_differ_in_geometry(self, longitudinal):
        # Different epochs and seeds: the samples are not clones.
        traces = longitudinal.traces_per_week()
        assert len(set(traces)) > 1


class TestStartOffsetPlumbing:
    def test_offset_shifts_epoch(self):
        from satiot.core.campaign import (PassiveCampaign,
                                          PassiveCampaignConfig)
        base = PassiveCampaign(PassiveCampaignConfig(
            sites=("HK",), constellations=("fossa",), days=0.25,
            seed=1)).run()
        shifted = PassiveCampaign(PassiveCampaignConfig(
            sites=("HK",), constellations=("fossa",), days=0.25,
            seed=1, start_day_offset=10.0)).run()
        assert shifted.epoch - base.epoch == pytest.approx(10 * 86400.0)
        # Geometry differs: window sets are not identical.
        base_rises = sorted(p.scheduled.window.rise_s
                            for p in base.site_results["HK"].receptions)
        shifted_rises = sorted(
            p.scheduled.window.rise_s
            for p in shifted.site_results["HK"].receptions)
        assert base_rises != shifted_rises
