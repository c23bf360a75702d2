"""Bit-identity of incremental ephemeris extension.

The digital-twin serving mode grows its time grid as the clock
advances; :meth:`EphemerisCache.constellation_grid` serves each growth
step by propagating only the new suffix instants and concatenating
onto the recorded prefix stack.  The contract pinned here: **however a
grid is assembled — cold, one extension, K extensions, a prefix pulled
back from the mmap'd segment tier after LRU pressure evicted it, or a
grid another cache extended over the same disk directory — the bytes
are identical to one cold full-range propagation.**  SGP4 is memoryless in ``tsince``, which is
what makes the concatenation exact rather than approximate.
"""

from __future__ import annotations

import numpy as np
import pytest

from satiot.orbits.sgp4 import SGP4
from satiot.runtime.ephemeris_cache import EphemerisCache
from tests.conftest import make_test_tle

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAS_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is baked in
    HAS_HYPOTHESIS = False


def make_fleet(n: int = 3, **overrides):
    """A small deterministic fleet of SGP4 propagators."""
    props = []
    for i in range(n):
        tle = make_test_tle(norad_id=52000 + i,
                            raan_deg=(17.0 + 113.0 * i) % 360.0,
                            mean_anomaly_deg=(29.0 * i) % 360.0,
                            **overrides)
        props.append(SGP4(tle))
    return props


def grids_equal(a, b) -> bool:
    """Byte-level equality of two ``(r, v)`` grid pairs."""
    return (np.asarray(a[0]).tobytes() == np.asarray(b[0]).tobytes()
            and np.asarray(a[1]).tobytes() == np.asarray(b[1]).tobytes())


def cold_grid(props, epoch, offsets):
    """Reference: a full-range propagation through a fresh cache."""
    return EphemerisCache().constellation_grid(props, epoch, offsets)


# ----------------------------------------------------------------------
class TestIncrementalExtension:
    def test_three_step_growth_bit_identical_to_cold(self):
        props = make_fleet()
        epoch = props[0].tle.epoch
        full = np.arange(600, dtype=float) * 30.0
        cache = EphemerisCache()
        cache.constellation_grid(props, epoch, full[:100])
        cache.constellation_grid(props, epoch, full[:350])
        got = cache.constellation_grid(props, epoch, full)
        assert cache.stats.grid_extensions == 2
        assert grids_equal(got, cold_grid(props, epoch, full))

    def test_extension_counts_as_miss_not_hit(self):
        props = make_fleet(2)
        epoch = props[0].tle.epoch
        full = np.arange(80, dtype=float) * 60.0
        cache = EphemerisCache()
        cache.constellation_grid(props, epoch, full[:40])
        before = cache.stats.grid_hits
        cache.constellation_grid(props, epoch, full)
        assert cache.stats.grid_hits == before
        assert cache.stats.grid_extensions == 1
        # Cold fill counts one miss per satellite; the extension adds
        # a single grid-level miss on top.
        assert cache.stats.grid_misses == len(props) + 1

    def test_mismatched_prefix_degrades_to_full_fill(self):
        """A recorded grid that is not a byte-prefix never extends —
        and the answer is still exact."""
        props = make_fleet(2)
        epoch = props[0].tle.epoch
        cache = EphemerisCache()
        cache.constellation_grid(props, epoch,
                                 np.arange(50, dtype=float) * 31.0)
        full = np.arange(100, dtype=float) * 30.0
        got = cache.constellation_grid(props, epoch, full)
        assert cache.stats.grid_extensions == 0
        assert grids_equal(got, cold_grid(props, epoch, full))

    def test_shrinking_grid_never_extends(self):
        props = make_fleet(2)
        epoch = props[0].tle.epoch
        full = np.arange(120, dtype=float) * 30.0
        cache = EphemerisCache()
        cache.constellation_grid(props, epoch, full)
        got = cache.constellation_grid(props, epoch, full[:60])
        assert cache.stats.grid_extensions == 0
        assert grids_equal(got, cold_grid(props, epoch, full[:60]))

    def test_extension_output_is_private_and_contiguous(self):
        """The combined stack must be writable C-contiguous memory —
        never a view into an mmap'd segment."""
        props = make_fleet(2)
        epoch = props[0].tle.epoch
        full = np.arange(64, dtype=float) * 30.0
        cache = EphemerisCache()
        cache.constellation_grid(props, epoch, full[:32])
        r, v = cache.constellation_grid(props, epoch, full)
        assert r.flags["C_CONTIGUOUS"] and v.flags["C_CONTIGUOUS"]


# ----------------------------------------------------------------------
class TestSegmentTierExtension:
    def test_prefix_recovered_from_mmap_segment(self, tmp_path):
        """LRU pressure — the same fleet at another epoch, in a cache
        that holds one fleet — evicts the prefix stack; it comes back
        through the mmap'd segment and extension still applies."""
        props = make_fleet()
        epoch = props[0].tle.epoch
        full = np.arange(200, dtype=float) * 30.0
        cache = EphemerisCache(max_grids=len(props), disk_dir=tmp_path)
        cache.constellation_grid(props, epoch, full[:80])
        cache.constellation_grid(props, epoch + 86400.0, full[:80])
        got = cache.constellation_grid(props, epoch, full)
        assert cache.stats.grid_extensions == 1
        assert cache.stats.disk_hits == 1
        assert grids_equal(got, cold_grid(props, epoch, full))

    def test_extended_segment_serves_yet_another_cache(self, tmp_path):
        """Extension republishes the *full* grid as a segment, so a
        third cache hits it outright — no propagation at all."""
        props = make_fleet(2)
        epoch = props[0].tle.epoch
        full = np.arange(100, dtype=float) * 30.0
        writer = EphemerisCache(disk_dir=tmp_path)
        writer.constellation_grid(props, epoch, full[:50])
        writer.constellation_grid(props, epoch, full)
        assert writer.stats.grid_extensions == 1

        reader = EphemerisCache(disk_dir=tmp_path)
        got = reader.constellation_grid(props, epoch, full)
        assert reader.stats.grid_misses == 0
        assert reader.stats.grid_extensions == 0
        assert grids_equal(got, cold_grid(props, epoch, full))



# ----------------------------------------------------------------------
if HAS_HYPOTHESIS:

    @st.composite
    def fleets(draw):
        n = draw(st.integers(min_value=2, max_value=4))
        props = []
        for i in range(n):
            props.append(SGP4(make_test_tle(
                altitude_km=draw(st.floats(min_value=400.0,
                                           max_value=1400.0)),
                inclination_deg=draw(st.floats(min_value=0.0,
                                               max_value=98.0)),
                eccentricity=draw(st.floats(min_value=0.0,
                                            max_value=0.02)),
                raan_deg=draw(st.floats(min_value=0.0,
                                        max_value=359.9)),
                mean_anomaly_deg=draw(st.floats(min_value=0.0,
                                                max_value=359.9)),
                norad_id=60000 + i)))
        return props

    @st.composite
    def grid_splits(draw):
        total = draw(st.integers(min_value=8, max_value=200))
        step = draw(st.floats(min_value=5.0, max_value=120.0))
        k = draw(st.integers(min_value=1, max_value=3))
        splits = draw(st.lists(
            st.integers(min_value=1, max_value=total - 1),
            min_size=k, max_size=k, unique=True))
        return np.arange(total, dtype=float) * step, sorted(splits)

    @pytest.mark.property
    class TestExtensionProperties:
        """Random fleets, grid shapes, and split points: K-step
        incremental assembly is bit-identical to one cold pass."""

        @settings(max_examples=15, deadline=None)
        @given(props=fleets(), grid=grid_splits())
        def test_k_step_extension_bit_identical(self, props, grid):
            full, splits = grid
            epoch = props[0].tle.epoch
            cache = EphemerisCache()
            for t in splits:
                cache.constellation_grid(props, epoch, full[:t])
            got = cache.constellation_grid(props, epoch, full)
            assert cache.stats.grid_extensions == len(splits)
            assert grids_equal(got, cold_grid(props, epoch, full))
