"""Disk-tier edge cases: corruption, vanishing and unwritable stores.

The contract under test (docstring of
:mod:`satiot.runtime.ephemeris_cache`): the disk tier may degrade —
quarantine corrupt entries, swallow I/O errors, fall back to
compute-through — but it must never crash a run and never change a
result.  Every scenario here asserts both halves: the degradation is
*observable* (``*.bad`` files, ``disk_corrupt``/``disk_errors``
counters, a ``RuntimeWarning``) and the returned arrays/windows are
identical to a fresh computation.
"""

import contextlib
import hashlib
import shutil
import warnings

import numpy as np
import pytest

from satiot.orbits.frames import GeodeticPoint
from satiot.orbits.passes import PassPredictor
from satiot.orbits.sgp4 import SGP4
from satiot.runtime.ephemeris_cache import EphemerisCache
from tests.conftest import make_test_tle

HK = GeodeticPoint(22.30, 114.17)
DAY_S = 86400.0
OFFSETS = np.arange(0.0, 1800.0, 30.0)


@pytest.fixture
def sat():
    return SGP4(make_test_tle())


def fresh_grid(sat):
    tle = sat.tle
    tsince = float(tle.epoch - tle.epoch) + OFFSETS
    r, v = sat.propagate(tsince)
    return np.asarray(r, dtype=float), np.asarray(v, dtype=float)


def warm_entry(sat, disk_dir):
    """Populate one grid segment on disk and return its ``r`` stack."""
    writer = EphemerisCache(disk_dir=disk_dir)
    writer.propagation_grid(sat, sat.tle.epoch, OFFSETS)
    paths = sorted(disk_dir.glob("cgrid-*.r.npy"))
    assert len(paths) == 1
    return paths[0]


class TestCorruptEntries:
    def test_zero_byte_entry_quarantined_and_recomputed(self, sat,
                                                        tmp_path):
        path = warm_entry(sat, tmp_path)
        path.write_bytes(b"")
        cache = EphemerisCache(disk_dir=tmp_path)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            r, v = cache.propagation_grid(sat, sat.tle.epoch, OFFSETS)
        r_ref, v_ref = fresh_grid(sat)
        assert np.array_equal(r, r_ref) and np.array_equal(v, v_ref)
        assert cache.stats.disk_corrupt == 1
        assert cache.stats.grid_misses == 1
        # The corrupt bytes moved aside; a clean entry was written back.
        assert path.with_name(path.name + ".bad").exists()
        assert path.exists() and path.stat().st_size > 0

    def test_garbage_bytes_quarantined(self, sat, tmp_path):
        path = warm_entry(sat, tmp_path)
        path.write_bytes(b"\x00\xffdefinitely not an npy array")
        cache = EphemerisCache(disk_dir=tmp_path)
        with pytest.warns(RuntimeWarning, match="unreadable"):
            cache.propagation_grid(sat, sat.tle.epoch, OFFSETS)
        assert cache.stats.disk_corrupt == 1
        assert list(tmp_path.glob("*.bad"))

    def test_checksum_mismatch_detected(self, sat, tmp_path):
        """A readable segment whose array was silently altered."""
        path = warm_entry(sat, tmp_path)
        r = np.load(path) + 1.0e-9  # one bit of rot
        np.save(path, r)  # the stale checksum sidecar rides along
        cache = EphemerisCache(disk_dir=tmp_path)
        with pytest.warns(RuntimeWarning, match="checksum mismatch"):
            r, _ = cache.propagation_grid(sat, sat.tle.epoch, OFFSETS)
        assert np.array_equal(r, fresh_grid(sat)[0])
        assert cache.stats.disk_corrupt == 1
        assert cache.stats.disk_hits == 0

    def test_legacy_npz_entry_is_ignored(self, sat, tmp_path):
        """An entry of the old ``.npz`` format under the name it used
        is neither read nor quarantined: the grid is recomputed and
        written as a segment beside it."""
        # The key the old per-satellite grid tier named its files by.
        key = ("grid", sat.tle.fingerprint,
               round(float(sat.tle.epoch.jd), 9), OFFSETS.size,
               hashlib.sha1(OFFSETS.tobytes()).hexdigest()[:16])
        name = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()[:32]
        legacy = tmp_path / f"grid-{name}.npz"
        np.savez(legacy, r=np.zeros((OFFSETS.size, 3)),
                 v=np.zeros((OFFSETS.size, 3)))
        cache = EphemerisCache(disk_dir=tmp_path)
        with _no_warning():
            r, _ = cache.propagation_grid(sat, sat.tle.epoch, OFFSETS)
        assert np.array_equal(r, fresh_grid(sat)[0])
        assert cache.stats.grid_misses == 1
        assert cache.stats.disk_corrupt == 0
        assert legacy.exists()
        assert len(list(tmp_path.glob("cgrid-*"))) == 3

    def test_quarantined_entry_is_rewritten_clean(self, sat, tmp_path):
        """After quarantine + recompute, the next reader hits disk."""
        path = warm_entry(sat, tmp_path)
        path.write_bytes(b"garbage")
        with pytest.warns(RuntimeWarning):
            EphemerisCache(disk_dir=tmp_path).propagation_grid(
                sat, sat.tle.epoch, OFFSETS)
        reader = EphemerisCache(disk_dir=tmp_path)
        reader.propagation_grid(sat, sat.tle.epoch, OFFSETS)
        assert reader.stats.disk_hits == 1
        assert reader.stats.disk_corrupt == 0

    def test_pass_search_over_corrupt_segment(self, sat, tmp_path):
        """Pass lists are not stored on disk; the grid segment a pass
        search reads is, and rotting it changes no window."""
        writer = EphemerisCache(disk_dir=tmp_path)
        reference = writer.find_passes(sat, HK, sat.tle.epoch, DAY_S)
        assert reference == PassPredictor(sat, HK).find_passes(
            sat.tle.epoch, DAY_S)
        assert not list(tmp_path.glob("*.npz"))
        for path in tmp_path.glob("cgrid-*.npy"):
            path.write_bytes(b"rot")
        cache = EphemerisCache(disk_dir=tmp_path)
        with pytest.warns(RuntimeWarning):
            again = cache.find_passes(sat, HK, sat.tle.epoch, DAY_S)
        assert again == reference
        assert cache.stats.disk_corrupt == 1


class TestVanishingStore:
    def test_cache_dir_deleted_mid_run(self, sat, tmp_path):
        disk_dir = tmp_path / "tier"
        cache = EphemerisCache(disk_dir=disk_dir)
        cache.propagation_grid(sat, sat.tle.epoch, OFFSETS)
        assert any(disk_dir.glob("*.npy"))

        shutil.rmtree(disk_dir)
        cache.clear_memory()
        # Reads: plain miss (no quarantine, no error); the store is
        # transparently re-created by the write-back.
        r, v = cache.propagation_grid(sat, sat.tle.epoch, OFFSETS)
        r_ref, v_ref = fresh_grid(sat)
        assert np.array_equal(r, r_ref) and np.array_equal(v, v_ref)
        assert cache.stats.disk_corrupt == 0
        assert cache.stats.disk_errors == 0
        assert any(disk_dir.glob("*.npy"))

    def test_unwritable_store_degrades_with_one_warning(self, sat,
                                                        tmp_path):
        # Tests run as root, so permission bits don't bite; an
        # unwritable store is simulated by colliding the directory
        # path with an existing *file* (mkdir raises OSError).
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"i am a file, not a directory")
        cache = EphemerisCache(disk_dir=blocker / "cache")

        with pytest.warns(RuntimeWarning, match="compute-through"):
            r1, v1 = cache.propagation_grid(sat, sat.tle.epoch,
                                            OFFSETS)
        assert cache.stats.disk_errors == 1
        r_ref, v_ref = fresh_grid(sat)
        assert np.array_equal(r1, r_ref) and np.array_equal(v1, v_ref)

        # Subsequent failures are counted but not re-warned.
        cache.clear_memory()
        with _no_warning():
            r2, _ = cache.propagation_grid(sat, sat.tle.epoch, OFFSETS)
        assert np.array_equal(r2, r_ref)
        assert cache.stats.disk_errors == 2

    def test_passes_survive_unwritable_store(self, sat, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"file")
        cache = EphemerisCache(disk_dir=blocker / "cache")
        with pytest.warns(RuntimeWarning):
            windows = cache.find_passes(sat, HK, sat.tle.epoch, DAY_S)
        assert windows == PassPredictor(sat, HK).find_passes(
            sat.tle.epoch, DAY_S)
        assert cache.stats.disk_errors >= 1


#: Cache entry points, each as ``(warm, call)``: ``warm`` writes the
#: segment that ``call`` then reads.  The prefix extension reads the
#: prefix's segment from inside its extension path.
PREFIX = OFFSETS[:30]
ENTRY_POINTS = {
    "constellation_grid": lambda cache, sat: cache.constellation_grid(
        [sat], sat.tle.epoch, OFFSETS),
    "propagation_grid": lambda cache, sat: cache.propagation_grid(
        sat, sat.tle.epoch, OFFSETS),
    "find_passes": lambda cache, sat: cache.find_passes(
        sat, HK, sat.tle.epoch, 3600.0),
    "find_passes_fleet": lambda cache, sat: cache.find_passes_fleet(
        [sat], [HK], sat.tle.epoch, 3600.0),
    "prefix_extension": lambda cache, sat: cache.extend_constellation_grid(
        [sat], sat.tle.epoch, OFFSETS, prefix_offsets_s=PREFIX),
}


class TestWarningsNameTheCaller:
    """A degradation warning points at the line that called the cache,
    however deep inside the cache the entry point raised it."""

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_quarantine_warning(self, sat, tmp_path, entry):
        writer = EphemerisCache(disk_dir=tmp_path)
        if entry == "prefix_extension":
            writer.constellation_grid([sat], sat.tle.epoch, PREFIX)
        else:
            ENTRY_POINTS[entry](writer, sat)
        for path in tmp_path.glob("cgrid-*.r.npy"):
            path.write_bytes(b"rot")
        cache = EphemerisCache(disk_dir=tmp_path)
        with pytest.warns(RuntimeWarning, match="quarantined") as record:
            ENTRY_POINTS[entry](cache, sat)
        assert cache.stats.disk_corrupt == 1
        assert record[0].filename == __file__

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_disk_degraded_warning(self, sat, tmp_path, entry):
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"file")
        cache = EphemerisCache(disk_dir=blocker / "cache")
        with pytest.warns(RuntimeWarning, match="compute-through") as record:
            ENTRY_POINTS[entry](cache, sat)
        assert record[0].filename == __file__


@contextlib.contextmanager
def _no_warning():
    """Assert the block emits no RuntimeWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    runtime = [w for w in caught
               if issubclass(w.category, RuntimeWarning)]
    assert not runtime, f"unexpected warnings: {runtime}"
