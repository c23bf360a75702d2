"""Zero-copy segment tier: mmap'd constellation-grid sharing.

The multi-worker serving fleet holds ONE resident copy of the
``(N, T, 3)`` constellation ephemeris: the first process to assemble a
stack writes it as raw ``.npy`` segments (deterministic layout,
checksummed sidecar), and every other consumer opens them with
``np.load(mmap_mode="r")``.  These tests pin that contract down:

* segment files land once, under deterministic names, with a verified
  checksum sidecar;
* a disk-tier load returns read-only views whose base buffer IS the
  mmap (the no-copy regression test);
* ``grid_resident_bytes`` splits private vs mmap-shared bytes;
* corrupt segments are quarantined (``*.bad``) and self-heal;
* the loaded stack is bit-identical to the computed one.
"""

import numpy as np
import pytest

from satiot.orbits.sgp4 import SGP4
from satiot.runtime.ephemeris_cache import EphemerisCache
from tests.conftest import make_test_tle


def _fleet(n=4):
    tles = [make_test_tle(norad_id=45000 + i,
                          raan_deg=20.0 * i,
                          mean_anomaly_deg=36.0 * i)
            for i in range(n)]
    return tles, [SGP4(t) for t in tles]


def _grid_args():
    tles, props = _fleet()
    epoch = tles[0].epoch
    offsets = np.arange(0.0, 7200.0, 60.0)
    return tles, props, epoch, offsets


class TestSegmentFiles:
    def test_written_once_deterministic_names(self, tmp_path):
        _, props, epoch, offsets = _grid_args()
        cache = EphemerisCache(disk_dir=tmp_path)
        cache.constellation_grid(props, epoch, offsets)
        segments = sorted(p.name for p in tmp_path.iterdir()
                          if p.name.startswith("cgrid"))
        assert len(segments) == 3
        suffixes = {name.split(".", 1)[1] for name in segments}
        assert suffixes == {"r.npy", "v.npy", "sha256"}
        mtimes = {name: (tmp_path / name).stat().st_mtime_ns
                  for name in segments}
        # Write-once: a second cache recomputing the same key must not
        # rewrite the files.
        other = EphemerisCache(disk_dir=tmp_path)
        other.constellation_grid(props, epoch, offsets)
        assert {name: (tmp_path / name).stat().st_mtime_ns
                for name in segments} == mtimes

    def test_loaded_stack_bit_identical(self, tmp_path):
        _, props, epoch, offsets = _grid_args()
        writer = EphemerisCache(disk_dir=tmp_path)
        r1, v1 = writer.constellation_grid(props, epoch, offsets)
        reader = EphemerisCache(disk_dir=tmp_path)
        r2, v2 = reader.constellation_grid(props, epoch, offsets)
        assert np.array_equal(np.asarray(r1), np.asarray(r2))
        assert np.array_equal(np.asarray(v1), np.asarray(v2))
        assert reader.stats.grid_misses == 0


    def test_single_satellite_grid_is_an_n1_segment(self, tmp_path):
        """``propagation_grid`` and ``constellation_grid([sat])`` read
        and write the same N=1 segment, whichever call comes first."""
        _, props, epoch, offsets = _grid_args()
        EphemerisCache(disk_dir=tmp_path).propagation_grid(
            props[0], epoch, offsets)
        assert len(list(tmp_path.iterdir())) == 3

        fleet = EphemerisCache(disk_dir=tmp_path)
        r, _ = fleet.constellation_grid(props[:1], epoch, offsets)
        assert fleet.stats.grid_misses == 0
        assert fleet.stats.disk_hits == 1
        assert isinstance(r, np.memmap)
        assert r.shape == (1, offsets.size, 3)

        single = EphemerisCache(disk_dir=tmp_path)
        row_r, _ = single.propagation_grid(props[0], epoch, offsets)
        assert single.stats.disk_hits == 1
        assert isinstance(row_r, np.memmap)
        assert np.array_equal(np.asarray(row_r), np.asarray(r[0]))
        assert len(list(tmp_path.iterdir())) == 3


class TestReadonlyNoCopy:
    def test_readonly_load_is_mmap_backed(self, tmp_path):
        """Regression: disk-tier loads must NOT copy for read-only
        consumers — the returned stack's base buffer is the mmap."""
        _, props, epoch, offsets = _grid_args()
        EphemerisCache(disk_dir=tmp_path) \
            .constellation_grid(props, epoch, offsets)
        reader = EphemerisCache(disk_dir=tmp_path)
        r, v = reader.constellation_grid(props, epoch, offsets)
        assert isinstance(r, np.memmap) and isinstance(v, np.memmap)
        assert not r.flags.writeable
        assert not v.flags.writeable


class TestResidencyAccounting:
    def test_private_vs_mmap_split(self, tmp_path):
        _, props, epoch, offsets = _grid_args()
        writer = EphemerisCache(disk_dir=tmp_path)
        r, _ = writer.constellation_grid(props, epoch, offsets)
        total = writer.grid_resident_bytes()
        assert writer.stats.grid_private_bytes == total
        assert writer.stats.grid_mmap_bytes == 0
        assert total >= r.nbytes

        reader = EphemerisCache(disk_dir=tmp_path)
        reader.constellation_grid(props, epoch, offsets)
        total = reader.grid_resident_bytes()
        assert reader.stats.grid_mmap_bytes == total
        assert reader.stats.grid_private_bytes == 0
        assert total >= r.nbytes

    def test_split_sums_to_total(self, tmp_path):
        tles, props, epoch, offsets = _grid_args()
        cache = EphemerisCache(disk_dir=tmp_path)
        cache.constellation_grid(props, epoch, offsets)
        # A second, different fleet: computed privately in this cache.
        extra = [SGP4(make_test_tle(norad_id=47000 + i))
                 for i in range(2)]
        cache2 = EphemerisCache(disk_dir=tmp_path)
        cache2.constellation_grid(props, epoch, offsets)   # mmap
        cache2.constellation_grid(extra, epoch, offsets)   # private
        total = cache2.grid_resident_bytes()
        assert cache2.stats.grid_mmap_bytes > 0
        assert cache2.stats.grid_private_bytes > 0
        assert cache2.stats.grid_mmap_bytes \
            + cache2.stats.grid_private_bytes == total


class TestCorruptionQuarantine:
    def test_corrupt_segment_quarantined_and_recomputed(self, tmp_path):
        _, props, epoch, offsets = _grid_args()
        writer = EphemerisCache(disk_dir=tmp_path)
        r_good, v_good = writer.constellation_grid(props, epoch,
                                                   offsets)
        r_path = next(p for p in tmp_path.iterdir()
                      if p.name.startswith("cgrid")
                      and p.name.endswith(".r.npy"))
        raw = bytearray(r_path.read_bytes())
        raw[-16] ^= 0xFF
        r_path.write_bytes(bytes(raw))

        reader = EphemerisCache(disk_dir=tmp_path)
        with pytest.warns(RuntimeWarning, match="quarantin"):
            r, v = reader.constellation_grid(props, epoch, offsets)
        assert reader.stats.disk_corrupt == 1
        assert np.array_equal(np.asarray(r), np.asarray(r_good))
        assert np.array_equal(np.asarray(v), np.asarray(v_good))
        bad = [p.name for p in tmp_path.iterdir()
               if ".bad" in p.name]
        assert bad, "corrupt segment files were not quarantined"
        # Self-healed: the recompute rewrote good segments, so a fresh
        # reader mmaps again.
        healed = EphemerisCache(disk_dir=tmp_path)
        r2, _ = healed.constellation_grid(props, epoch, offsets)
        assert isinstance(r2, np.memmap)

    def test_truncated_segment_treated_as_miss(self, tmp_path):
        _, props, epoch, offsets = _grid_args()
        writer = EphemerisCache(disk_dir=tmp_path)
        writer.constellation_grid(props, epoch, offsets)
        v_path = next(p for p in tmp_path.iterdir()
                      if p.name.startswith("cgrid")
                      and p.name.endswith(".v.npy"))
        v_path.write_bytes(v_path.read_bytes()[:64])
        reader = EphemerisCache(disk_dir=tmp_path)
        with pytest.warns(RuntimeWarning, match="quarantin"):
            r, _ = reader.constellation_grid(props, epoch, offsets)
        assert r.shape == (len(props), offsets.size, 3)
