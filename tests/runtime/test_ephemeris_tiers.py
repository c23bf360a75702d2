"""Tier consistency of the ephemeris cache.

Three caches answer the same queries: one in memory only, one writing
a fresh segment directory, and a second one reading that directory.
Grids must be bit-identical and windows equal across all three, in
either fill order (fleet stack first, or one satellite first), and a
grid fill must write one segment — the same files for one satellite as
for six.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest

from satiot.orbits.frames import GeodeticPoint
from satiot.orbits.sgp4 import SGP4
from satiot.runtime.ephemeris_cache import EphemerisCache
from tests.conftest import make_test_tle

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAS_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is baked in
    HAS_HYPOTHESIS = False

OBSERVERS = [GeodeticPoint(22.3, 114.2), GeodeticPoint(-33.9, 151.2)]
PASS_SPAN_S = 4 * 3600.0


def _fleet(n):
    return [SGP4(make_test_tle(norad_id=46000 + i, raan_deg=47.0 * i,
                               mean_anomaly_deg=61.0 * i))
            for i in range(n)]


def _files(directory):
    return sorted(p.name for p in Path(directory).iterdir())


def _queries(cache, props, offsets, single_first):
    """Every grid and pass query, in one of the two fill orders."""
    epoch = props[0].tle.epoch
    if single_first:
        rows = [cache.propagation_grid(p, epoch, offsets) for p in props]
        stack = cache.constellation_grid(props, epoch, offsets)
    else:
        stack = cache.constellation_grid(props, epoch, offsets)
        rows = [cache.propagation_grid(p, epoch, offsets) for p in props]
    one = cache.constellation_grid(props[:1], epoch, offsets)
    windows = cache.find_passes_fleet(props, OBSERVERS, epoch,
                                      PASS_SPAN_S, coarse_step_s=60.0)
    arrays = [a for row in rows for a in row] + list(stack) + list(one)
    return arrays, windows


def _bits(arrays):
    return [(a.dtype.str, a.shape, np.ascontiguousarray(a).tobytes())
            for a in arrays]


class TestFilesPerFill:
    def test_fill_writes_the_same_files_for_one_and_six(self, tmp_path):
        """One segment per grid fill, whatever N: no per-row file and
        no file per (satellite, observer) pass list."""
        counts = {}
        for n in (1, 6):
            directory = tmp_path / f"n{n}"
            props = _fleet(n)
            cache = EphemerisCache(disk_dir=directory)
            cache.find_passes_fleet(props, OBSERVERS, props[0].tle.epoch,
                                    PASS_SPAN_S, coarse_step_s=60.0)
            counts[n] = _files(directory)
            assert cache.stats.disk_writes == 1
        assert len(counts[1]) == len(counts[6]) == 3
        assert {name.split(".", 1)[1] for name in counts[6]} \
            == {"r.npy", "v.npy", "sha256"}

    def test_pass_lists_stay_in_memory(self, tmp_path):
        """A reader over a warm directory recomputes pass lists from
        the mapped grid: grid hits, pass misses, equal windows."""
        props = _fleet(3)
        epoch = props[0].tle.epoch
        writer = EphemerisCache(disk_dir=tmp_path)
        first = writer.find_passes_fleet(props, OBSERVERS, epoch,
                                         PASS_SPAN_S, coarse_step_s=60.0)
        reader = EphemerisCache(disk_dir=tmp_path)
        second = reader.find_passes_fleet(props, OBSERVERS, epoch,
                                          PASS_SPAN_S, coarse_step_s=60.0)
        assert second == first
        assert reader.stats.grid_misses == 0
        assert reader.stats.disk_hits == 1
        assert reader.stats.pass_misses == len(props) * len(OBSERVERS)
        assert reader.stats.disk_writes == 0


if HAS_HYPOTHESIS:

    @st.composite
    def fleets(draw):
        n = draw(st.integers(min_value=1, max_value=6))
        return [SGP4(make_test_tle(
            altitude_km=draw(st.floats(min_value=400.0,
                                       max_value=1400.0)),
            inclination_deg=draw(st.floats(min_value=0.0,
                                           max_value=98.0)),
            raan_deg=draw(st.floats(min_value=0.0, max_value=359.9)),
            mean_anomaly_deg=draw(st.floats(min_value=0.0,
                                            max_value=359.9)),
            norad_id=61000 + i)) for i in range(n)]

    @st.composite
    def offset_grids(draw):
        size = draw(st.integers(min_value=1, max_value=120))
        step = draw(st.floats(min_value=5.0, max_value=120.0))
        start = draw(st.floats(min_value=0.0, max_value=3600.0))
        return start + np.arange(size, dtype=float) * step

    @pytest.mark.property
    class TestTierConsistency:
        @settings(max_examples=15, deadline=None)
        @given(props=fleets(), offsets=offset_grids(),
               single_first=st.booleans())
        def test_memory_writer_and_reader_agree(self, props, offsets,
                                                single_first):
            memory = EphemerisCache()
            arrays, windows = _queries(memory, props, offsets,
                                       single_first)
            with tempfile.TemporaryDirectory() as directory:
                writer = EphemerisCache(disk_dir=directory)
                written, written_windows = _queries(
                    writer, props, offsets, single_first)
                reader = EphemerisCache(disk_dir=directory)
                read, read_windows = _queries(reader, props, offsets,
                                              single_first)
                # Everything the reader needs is on disk already.
                assert reader.stats.grid_misses == 0
                assert reader.stats.disk_writes == 0
            assert _bits(written) == _bits(arrays)
            assert _bits(read) == _bits(arrays)
            assert written_windows == windows
            assert read_windows == windows
