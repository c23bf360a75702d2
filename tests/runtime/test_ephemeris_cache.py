"""Tests for the two-tier ephemeris cache and its exactness contract."""

import pickle
import sys
import threading
import time

import numpy as np
import pytest

from satiot.orbits.frames import GeodeticPoint
from satiot.orbits.passes import PassPredictor
from satiot.orbits.sgp4 import SGP4
from satiot.orbits.tle import format_tle, parse_tle
from satiot.runtime.ephemeris_cache import (CACHE_DIR_ENV, CACHE_ENV,
                                            EphemerisCache,
                                            get_default_cache,
                                            reset_default_cache,
                                            tle_fingerprint)
from tests.conftest import make_test_tle

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAS_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is baked in
    HAS_HYPOTHESIS = False

HK = GeodeticPoint(22.30, 114.17)
DAY_S = 86400.0


def _roundtrip(tle):
    line1, line2 = format_tle(tle)
    return parse_tle(line1, line2, name=tle.name)


class TestFingerprint:
    def test_roundtrip_stable(self):
        tle = make_test_tle()
        assert tle_fingerprint(_roundtrip(tle)) == tle_fingerprint(tle)

    def test_distinct_satellites_distinct_fingerprints(self):
        a = tle_fingerprint(make_test_tle(norad_id=44001))
        b = tle_fingerprint(make_test_tle(norad_id=44002))
        c = tle_fingerprint(make_test_tle(inclination_deg=97.6))
        assert len({a, b, c}) == 3

    def test_name_is_ignored(self):
        tle = make_test_tle()
        assert tle_fingerprint(tle.with_name("OTHER")) \
            == tle_fingerprint(tle)

    def test_catalog_fingerprints_unique(self):
        from satiot.constellations.catalog import build_all_constellations
        prints = [tle_fingerprint(sat.tle)
                  for const in build_all_constellations().values()
                  for sat in const]
        assert len(prints) == len(set(prints))


if HAS_HYPOTHESIS:

    orbital_tles = st.builds(
        make_test_tle,
        altitude_km=st.floats(min_value=350.0, max_value=1500.0,
                              allow_nan=False, allow_infinity=False),
        inclination_deg=st.floats(min_value=0.0, max_value=98.0),
        eccentricity=st.floats(min_value=0.0, max_value=0.02),
        raan_deg=st.floats(min_value=0.0, max_value=359.99),
        mean_anomaly_deg=st.floats(min_value=0.0, max_value=359.99),
        norad_id=st.integers(min_value=10000, max_value=99999),
        # Realistic drag range; the TLE exponent field is one digit, so
        # subnormal bstar values are unrepresentable by design.
        bstar=st.floats(min_value=1.0e-7, max_value=5.0e-4),
    )

    class TestFingerprintProperty:
        """Formatted TLEs are a fixed point of parse -> format."""

        @settings(max_examples=40, deadline=None)
        @given(orbital_tles)
        def test_fingerprint_survives_roundtrip(self, tle):
            back = _roundtrip(tle)
            assert tle_fingerprint(back) == tle_fingerprint(tle)
            # And the canonical form itself is idempotent.
            assert format_tle(back) == format_tle(tle)

        @settings(max_examples=20, deadline=None)
        @given(orbital_tles)
        def test_grid_key_stable_under_roundtrip(self, tle):
            offsets = np.arange(0.0, 600.0, 30.0)
            epoch = tle.epoch
            assert EphemerisCache.constellation_key([tle], epoch,
                                                    offsets) \
                == EphemerisCache.constellation_key([_roundtrip(tle)],
                                                    epoch, offsets)


class TestPropagationGrid:
    def test_hit_equals_fresh_propagation(self):
        tle = make_test_tle()
        sat = SGP4(tle)
        cache = EphemerisCache()
        epoch = tle.epoch
        offsets = np.arange(0.0, 0.5 * DAY_S, 30.0)

        r1, v1 = cache.propagation_grid(sat, epoch, offsets)
        assert cache.stats.grid_misses == 1
        r2, v2 = cache.propagation_grid(sat, epoch, offsets)
        assert cache.stats.grid_hits == 1

        tsince = float(epoch - tle.epoch) + offsets
        r_fresh, v_fresh = sat.propagate(tsince)
        assert np.array_equal(r2, np.asarray(r_fresh, dtype=float))
        assert np.array_equal(v2, np.asarray(v_fresh, dtype=float))
        assert np.array_equal(r1, r2) and np.array_equal(v1, v2)

    def test_different_offsets_do_not_collide(self):
        tle = make_test_tle()
        sat = SGP4(tle)
        cache = EphemerisCache()
        a = np.arange(0.0, 300.0, 30.0)
        b = a + 30.0  # same size, different content
        cache.propagation_grid(sat, tle.epoch, a)
        cache.propagation_grid(sat, tle.epoch, b)
        assert cache.stats.grid_misses == 2
        assert cache.stats.grid_hits == 0

    def test_lru_eviction(self):
        tle = make_test_tle()
        sat = SGP4(tle)
        cache = EphemerisCache(max_grids=2)
        grids = [np.arange(0.0, 300.0 + 60.0 * i, 30.0)
                 for i in range(3)]
        for g in grids:
            cache.propagation_grid(sat, tle.epoch, g)
        # Oldest grid was evicted -> recomputed on re-request.
        cache.propagation_grid(sat, tle.epoch, grids[0])
        assert cache.stats.grid_misses == 4
        # Newest grid survived.
        cache.propagation_grid(sat, tle.epoch, grids[2])
        assert cache.stats.grid_hits == 1

    def test_stacks_cost_their_satellite_count(self):
        """``max_grids`` counts satellites: a stack of N costs N, and
        stacks are evicted oldest first until the count fits."""
        props = [SGP4(make_test_tle(norad_id=44100 + i,
                                    raan_deg=40.0 * i))
                 for i in range(3)]
        epoch = props[0].tle.epoch
        a = np.arange(0.0, 300.0, 30.0)
        b = a + 15.0
        cache = EphemerisCache(max_grids=4)
        cache.constellation_grid(props[:2], epoch, a)  # 2 of 4
        cache.constellation_grid(props[:2], epoch, b)  # 4 of 4
        cache.constellation_grid(props[2:], epoch, a)  # 5: evict (a)
        misses = cache.stats.grid_misses
        cache.constellation_grid(props[:2], epoch, b)
        assert cache.stats.grid_misses == misses
        cache.constellation_grid(props[:2], epoch, a)
        assert cache.stats.grid_misses == misses + 2

    def test_stack_over_capacity_is_kept_alone(self):
        """A fill of more than ``max_grids`` satellites evicts every
        other grid, never itself."""
        props = [SGP4(make_test_tle(norad_id=44200 + i,
                                    raan_deg=40.0 * i))
                 for i in range(5)]
        epoch = props[0].tle.epoch
        offsets = np.arange(0.0, 300.0, 30.0)
        cache = EphemerisCache(max_grids=3)
        cache.propagation_grid(props[0], epoch, offsets + 1.0)
        r, v = cache.constellation_grid(props, epoch, offsets)
        assert cache.grid_resident_bytes() == r.nbytes + v.nbytes
        hits = cache.stats.grid_hits
        cache.constellation_grid(props, epoch, offsets)
        assert cache.stats.grid_hits == hits + 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EphemerisCache(max_grids=0)


class TestConcurrentResidency:
    def test_resident_bytes_while_another_thread_fills(self):
        """The serving layer calls ``grid_resident_bytes`` (``/metrics``
        and a fleet worker's ``metrics`` reply) on the event-loop thread
        while the executor thread fills the grid LRU.  The walk must
        never see the ``OrderedDict`` change size under it."""
        sat = SGP4(make_test_tle())
        cache = EphemerisCache(max_grids=64)
        stop = threading.Event()
        errors = []

        def fill():
            k = 0
            while not stop.is_set():
                cache.propagation_grid(sat, sat.tle.epoch, [float(k)])
                k += 1

        previous = sys.getswitchinterval()
        # Switch threads as often as the interpreter allows, so a walk
        # that is not atomic is interrupted within the time budget.
        sys.setswitchinterval(1e-6)
        filler = threading.Thread(target=fill, daemon=True)
        filler.start()
        try:
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline and not errors:
                try:
                    cache.grid_resident_bytes()
                except RuntimeError as error:
                    errors.append(error)
        finally:
            stop.set()
            filler.join(timeout=10.0)
            sys.setswitchinterval(previous)
        assert not filler.is_alive()
        assert not errors, f"grid_resident_bytes raised {errors[0]!r}"
        assert cache.stats.grid_misses > cache.max_grids
        # The running tally still matches the stacks actually held.
        held = sum(arr.nbytes for grid in cache._grids.values()
                   for arr in grid)
        assert cache.grid_resident_bytes() == held


class TestCachedPasses:
    def test_cached_passes_equal_fresh_predictor(self):
        tle = make_test_tle()
        sat = SGP4(tle)
        cache = EphemerisCache()
        epoch = tle.epoch

        cached = cache.find_passes(sat, HK, epoch, DAY_S)
        fresh = PassPredictor(sat, HK).find_passes(epoch, DAY_S)
        assert cached == fresh
        assert len(cached) > 0
        assert cache.stats.pass_misses == 1

        again = cache.find_passes(sat, HK, epoch, DAY_S)
        assert again == fresh
        assert (cache.stats.grid_hits, cache.stats.grid_misses) == (1, 1)

    def test_elevation_mask_in_key(self):
        tle = make_test_tle()
        sat = SGP4(tle)
        cache = EphemerisCache()
        low = cache.find_passes(sat, HK, tle.epoch, DAY_S,
                                min_elevation_deg=0.0)
        high = cache.find_passes(sat, HK, tle.epoch, DAY_S,
                                 min_elevation_deg=25.0)
        assert cache.stats.pass_misses == 2
        assert len(high) <= len(low)

    def test_result_lists_are_independent_copies(self):
        tle = make_test_tle()
        sat = SGP4(tle)
        cache = EphemerisCache()
        first = cache.find_passes(sat, HK, tle.epoch, DAY_S)
        first.clear()
        assert len(cache.find_passes(sat, HK, tle.epoch, DAY_S)) > 0


class TestDiskTier:
    def test_grid_survives_process_boundary(self, tmp_path):
        """A second cache instance (fresh memory) hits the disk tier."""
        tle = make_test_tle()
        sat = SGP4(tle)
        offsets = np.arange(0.0, 0.25 * DAY_S, 30.0)

        writer = EphemerisCache(disk_dir=tmp_path)
        r1, v1 = writer.propagation_grid(sat, tle.epoch, offsets)
        assert writer.stats.disk_writes >= 1

        reader = EphemerisCache(disk_dir=tmp_path)
        r2, v2 = reader.propagation_grid(sat, tle.epoch, offsets)
        assert reader.stats.disk_hits == 1
        assert reader.stats.grid_misses == 0
        assert np.array_equal(r1, r2) and np.array_equal(v1, v2)

    def test_passes_survive_process_boundary(self, tmp_path):
        tle = make_test_tle()
        sat = SGP4(tle)

        writer = EphemerisCache(disk_dir=tmp_path)
        first = writer.find_passes(sat, HK, tle.epoch, DAY_S)

        reader = EphemerisCache(disk_dir=tmp_path)
        second = reader.find_passes(sat, HK, tle.epoch, DAY_S)
        assert reader.stats.disk_hits >= 1
        assert second == first

    def test_clear_memory_keeps_disk(self, tmp_path):
        tle = make_test_tle()
        sat = SGP4(tle)
        offsets = np.arange(0.0, 300.0, 30.0)
        cache = EphemerisCache(disk_dir=tmp_path)
        cache.propagation_grid(sat, tle.epoch, offsets)
        cache.clear_memory()
        cache.propagation_grid(sat, tle.epoch, offsets)
        assert cache.stats.disk_hits == 1
        assert cache.stats.grid_misses == 1  # only the first call

    def test_corrupt_file_degrades_to_recomputation(self, tmp_path):
        tle = make_test_tle()
        sat = SGP4(tle)
        offsets = np.arange(0.0, 300.0, 30.0)
        EphemerisCache(disk_dir=tmp_path).propagation_grid(
            sat, tle.epoch, offsets)
        for path in tmp_path.glob("*.npy"):
            path.write_bytes(b"not an npy array")
        cache = EphemerisCache(disk_dir=tmp_path)
        r, v = cache.propagation_grid(sat, tle.epoch, offsets)
        assert cache.stats.grid_misses == 1
        assert cache.stats.disk_hits == 0
        assert np.isfinite(r).all()


class TestDefaultCache:
    def test_env_disable(self, monkeypatch):
        reset_default_cache()
        monkeypatch.setenv(CACHE_ENV, "0")
        assert get_default_cache() is None
        monkeypatch.setenv(CACHE_ENV, "off")
        assert get_default_cache() is None

    def test_singleton_and_reset(self, monkeypatch):
        monkeypatch.delenv(CACHE_ENV, raising=False)
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        reset_default_cache()
        a = get_default_cache()
        assert a is not None and a is get_default_cache()
        reset_default_cache()
        b = get_default_cache()
        assert b is not None and b is not a
        reset_default_cache()

    def test_env_disk_dir(self, monkeypatch, tmp_path):
        monkeypatch.delenv(CACHE_ENV, raising=False)
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "tier"))
        reset_default_cache()
        cache = get_default_cache()
        assert cache is not None
        assert str(cache.disk_dir) == str(tmp_path / "tier")
        reset_default_cache()


class TestPickling:
    """Shard payloads carry the resolved cache: it crosses a process
    boundary as its configuration, never its contents."""

    def test_cache_pickles_as_empty_cache_with_same_config(self,
                                                            tmp_path):
        sat = SGP4(make_test_tle())
        cache = EphemerisCache(max_grids=7, disk_dir=tmp_path)
        cache.find_passes(sat, HK, sat.tle.epoch, 3600.0)
        clone = pickle.loads(pickle.dumps(cache))
        assert clone is not cache
        assert (clone.max_grids, clone.disk_dir) == (7, tmp_path)
        assert clone.grid_resident_bytes() == 0
        assert clone.stats.snapshot() == (0,) * 8
        assert len(pickle.dumps(cache)) < 512

    def test_default_cache_pickles_as_receivers_default(self,
                                                        monkeypatch):
        monkeypatch.delenv(CACHE_ENV, raising=False)
        reset_default_cache()
        default = get_default_cache()
        try:
            payload = pickle.dumps(default)
            assert pickle.loads(payload) is default
            # A receiver whose default is another object (a fresh
            # worker process) gets its own.
            reset_default_cache()
            received = pickle.loads(payload)
            assert received is get_default_cache()
            assert received is not default
        finally:
            reset_default_cache()


class TestStats:
    def test_snapshot_shape(self):
        snap = EphemerisCache().stats.snapshot()
        assert snap == (0, 0, 0, 0, 0, 0, 0, 0)
