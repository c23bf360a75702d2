"""Tests for the shard executor and the campaign determinism contract."""

import multiprocessing
import os

import pytest

from satiot.core.campaign import PassiveCampaign, PassiveCampaignConfig
from satiot.runtime.executor import (Shard, ShardError, ShardExecutor,
                                     WORKERS_ENV, resolve_workers)


def _double(shard: Shard) -> int:
    return shard.payload * 2


def _boom(shard: Shard) -> int:
    raise ValueError(f"kaboom in {shard.key}")


def _make_shards(values):
    return [Shard(index=i, kind="item", key=str(i), payload=v)
            for i, v in enumerate(values)]


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(None) == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert resolve_workers(None) == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert resolve_workers(2) == 2

    def test_zero_means_auto(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(0) == (os.cpu_count() or 1)
        assert resolve_workers(-1) == (os.cpu_count() or 1)

    def test_bad_env_raises(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "lots")
        with pytest.raises(ValueError, match=WORKERS_ENV):
            resolve_workers(None)


class TestSerialExecutor:
    def test_results_in_shard_order(self):
        executor = ShardExecutor(workers=1)
        outcomes = executor.map(_double, _make_shards([5, 1, 3]))
        assert [o.result for o in outcomes] == [10, 2, 6]
        assert executor.mode == "serial"
        assert all(o.wall_s >= 0.0 for o in outcomes)

    def test_exception_carries_shard_context(self):
        executor = ShardExecutor(workers=1)
        with pytest.raises(ShardError, match="item:0"):
            executor.map(_boom, _make_shards([0, 1]))

    def test_shard_error_chains_cause(self):
        executor = ShardExecutor(workers=1)
        try:
            executor.map(_boom, _make_shards([7]))
        except ShardError as err:
            assert isinstance(err.__cause__, ValueError)
            assert err.shard.key == "0"
        else:  # pragma: no cover
            pytest.fail("ShardError not raised")


class TestProcessExecutor:
    def test_parallel_results_ordered(self):
        executor = ShardExecutor(workers=2)
        outcomes = executor.map(_double, _make_shards([4, 7, 9, 2]))
        assert [o.result for o in outcomes] == [8, 14, 18, 4]
        assert executor.mode in ("process", "serial")  # serial = fallback

    def test_parallel_exception_carries_shard_context(self):
        executor = ShardExecutor(workers=2)
        with pytest.raises(ShardError, match="item:"):
            executor.map(_boom, _make_shards([0, 1]))

    def test_single_shard_stays_serial(self):
        executor = ShardExecutor(workers=4)
        executor.map(_double, _make_shards([1]))
        assert executor.mode == "serial"

    @pytest.mark.parametrize("drive", ["map", "imap"])
    def test_no_worker_outlives_the_run(self, drive):
        before = set(multiprocessing.active_children())
        executor = ShardExecutor(workers=2)
        outcomes = list(getattr(executor, drive)(
            _double, _make_shards([1, 2, 3])))
        assert [o.result for o in outcomes] == [2, 4, 6]
        assert set(multiprocessing.active_children()) - before == set()


class TestPoolUnavailable:
    """With no process pool, shards run in the parent on the caller's
    own objects, not on rebuilt copies."""

    def test_campaign_fills_callers_cache(self, monkeypatch):
        import concurrent.futures

        from satiot.runtime.ephemeris_cache import EphemerisCache

        def no_pool(*args, **kwargs):
            raise OSError("no process pool here")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            no_pool)
        cache = EphemerisCache()
        config = PassiveCampaignConfig(sites=("HK", "SYD"),
                                       constellations=("cstp",),
                                       days=0.1, seed=7)
        result = PassiveCampaign(config, workers=2,
                                 ephemeris_cache=cache).run()
        assert result.telemetry.mode == "serial"
        assert result.telemetry.workers == 2
        assert cache.stats.grid_misses > 0
        assert cache.stats.pass_misses > 0


class TestCampaignDeterminism:
    """The hard contract: parallel == serial, bit for bit."""

    CFG = dict(sites=("HK", "SYD"), constellations=("tianqi",),
               days=0.5, seed=7)

    @pytest.fixture(scope="class")
    def serial_result(self):
        return PassiveCampaign(PassiveCampaignConfig(**self.CFG),
                               workers=1).run()

    def test_parallel_bit_identical_to_serial(self, serial_result):
        parallel = PassiveCampaign(PassiveCampaignConfig(**self.CFG),
                                   workers=2).run()
        assert parallel.total_traces == serial_result.total_traces > 0
        # BeaconTrace is a frozen dataclass of floats/strs/bools:
        # dataclass equality here is exact bit equality of every field.
        assert list(parallel.dataset) == list(serial_result.dataset)
        assert sorted(parallel.site_results) \
            == sorted(serial_result.site_results)

    def test_parallel_receptions_match(self, serial_result):
        parallel = PassiveCampaign(PassiveCampaignConfig(**self.CFG),
                                   workers=2).run()
        for code in self.CFG["sites"]:
            a = serial_result.site_results[code].receptions
            b = parallel.site_results[code].receptions
            assert [r.pass_id for r in a] == [r.pass_id for r in b]
            assert [r.beacons_received for r in a] \
                == [r.beacons_received for r in b]
            assert [r.first_rx_s for r in a] == [r.first_rx_s for r in b]

    def test_cache_does_not_change_results(self, serial_result):
        uncached = PassiveCampaign(PassiveCampaignConfig(**self.CFG),
                                   workers=1, ephemeris_cache=None).run()
        assert list(uncached.dataset) == list(serial_result.dataset)

    def test_telemetry_attached(self, serial_result):
        telemetry = serial_result.telemetry
        assert telemetry is not None
        assert len(telemetry.shards) == len(self.CFG["sites"])
        assert telemetry.total_traces == serial_result.total_traces
        assert telemetry.wall_s > 0.0
        text = telemetry.render()
        assert "site:HK" in text and "TOTAL" in text


class TestLongitudinalSharding:
    def test_parallel_weeks_match_serial(self):
        from satiot.core.longitudinal import LongitudinalCampaign
        kwargs = dict(weeks=2, site="HK", sample_days=0.25,
                      period_days=7.0, seed=3,
                      constellations=("fossa",))
        serial = LongitudinalCampaign(workers=1, **kwargs).run()
        parallel = LongitudinalCampaign(workers=2, **kwargs).run()
        assert serial.traces_per_week() == parallel.traces_per_week()
        assert [s.week for s in parallel.samples] == [0, 1]
        assert serial.shrinkage_series("fossa") \
            == parallel.shrinkage_series("fossa")


class TestFleetSweep:
    def test_sweep_matches_single_constellation_runs(self):
        from satiot.core.fleet import (FleetModel,
                                       fleet_pressure_by_constellation,
                                       passive_fleet_sweep)
        base = PassiveCampaignConfig(
            sites=("HK",), constellations=("tianqi", "fossa"),
            days=0.25, seed=5)
        sweep = passive_fleet_sweep(base, workers=2)
        assert list(sweep) == ["tianqi", "fossa"]
        solo = PassiveCampaign(PassiveCampaignConfig(
            sites=("HK",), constellations=("fossa",),
            days=0.25, seed=5), workers=1).run()
        assert list(sweep["fossa"].dataset) == list(solo.dataset)

        pressure = fleet_pressure_by_constellation(sweep, FleetModel())
        assert set(pressure) == {"tianqi", "fossa"}
        for row in pressure.values():
            assert row["mean_altitude_km"] > 300.0
            assert row["expected_contenders"] >= 0.0
