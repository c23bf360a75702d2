"""Tests for satellite buffers and the operator ground segment."""

import math

import pytest

from satiot.constellations.catalog import build_constellation
from satiot.network import store_forward
from satiot.network.store_forward import (TIANQI_GROUND_STATIONS,
                                          BufferedPacket, GroundSegment,
                                          OperatorGroundStation,
                                          SatelliteBuffer)
from satiot.orbits.frames import GeodeticPoint
from satiot.orbits.passes import ContactWindow


def make_packet(node="n1", seq=0, stored=100.0):
    return BufferedPacket(node, seq, stored, 20)


class TestSatelliteBuffer:
    def test_store_and_len(self):
        buf = SatelliteBuffer(44100)
        assert buf.store(make_packet())
        assert len(buf) == 1

    def test_duplicates_absorbed(self):
        buf = SatelliteBuffer(44100)
        buf.store(make_packet(stored=100.0))
        buf.store(make_packet(stored=200.0))
        assert len(buf) == 1
        assert buf.duplicates_absorbed == 1
        # The original (earliest) storage time is kept.
        assert buf.drain()[0].stored_s == 100.0

    def test_overflow_drops(self):
        buf = SatelliteBuffer(44100, capacity_packets=2)
        assert buf.store(make_packet(seq=0))
        assert buf.store(make_packet(seq=1))
        assert not buf.store(make_packet(seq=2))
        assert buf.dropped_overflow == 1
        assert len(buf) == 2

    def test_drain_sorted_and_clears(self):
        buf = SatelliteBuffer(44100)
        buf.store(make_packet(seq=1, stored=300.0))
        buf.store(make_packet(seq=0, stored=100.0))
        drained = buf.drain()
        assert [p.stored_s for p in drained] == [100.0, 300.0]
        assert len(buf) == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            SatelliteBuffer(44100, capacity_packets=0)


@pytest.fixture(scope="module")
def segment():
    con = build_constellation("tianqi")
    epoch = con.satellites[0].tle.epoch
    return GroundSegment(con, epoch, 2 * 86400.0), con


class TestGroundSegment:
    def test_every_satellite_has_windows(self, segment):
        seg, con = segment
        for sat in con:
            # 12 ground stations across China: each Tianqi satellite gets
            # many offload opportunities per day.
            assert len(seg.offload_windows(sat.norad_id)) >= 5

    def test_delivery_after_storage(self, segment):
        seg, con = segment
        norad = con.satellites[0].norad_id
        delivered = seg.delivery_time_s(norad, 1000.0)
        assert delivered is not None
        assert delivered > 1000.0

    def test_delivery_monotonic_in_storage_time(self, segment):
        seg, con = segment
        norad = con.satellites[0].norad_id
        times = [seg.delivery_time_s(norad, t)
                 for t in (0.0, 20000.0, 50000.0, 90000.0)]
        times = [t for t in times if t is not None]
        assert times == sorted(times)

    def test_batching_rounds_up(self, segment):
        seg, con = segment
        norad = con.satellites[0].norad_id
        delivered = seg.delivery_time_s(norad, 5000.0)
        assert delivered % seg.processing_batch_s == pytest.approx(0.0)

    def test_no_offload_after_span_end(self, segment):
        seg, con = segment
        norad = con.satellites[0].norad_id
        assert seg.next_offload_s(norad, 2 * 86400.0 + 1.0) is None

    def test_unknown_satellite_raises(self, segment):
        seg, _ = segment
        with pytest.raises(KeyError):
            seg.next_offload_s(99999, 0.0)

    def test_mean_gap_reasonable(self, segment):
        seg, con = segment
        # With 12 Chinese ground stations a Tianqi satellite reaches one
        # at most every few hours.
        for sat in list(con)[:5]:
            assert seg.mean_gap_hours(sat.norad_id) < 12.0

    def test_twelve_ground_stations_in_china(self):
        assert len(TIANQI_GROUND_STATIONS) == 12
        for gs in TIANQI_GROUND_STATIONS:
            assert 18.0 <= gs.location.latitude_deg <= 46.0
            assert 75.0 <= gs.location.longitude_deg <= 127.0

    def test_invalid_construction(self):
        con = build_constellation("fossa")
        epoch = con.satellites[0].tle.epoch
        with pytest.raises(ValueError):
            GroundSegment(con, epoch, 0.0)
        with pytest.raises(ValueError):
            GroundSegment(con, epoch, 86400.0, stations=())

    @pytest.mark.parametrize("mask", [95.0, -8.0])
    def test_station_mask_out_of_range(self, mask):
        con = build_constellation("fossa")
        stations = (TIANQI_GROUND_STATIONS[0],
                    OperatorGroundStation("Bad", GeodeticPoint(30.0, 100.0),
                                          min_elevation_deg=mask))
        with pytest.raises(ValueError, match="min_elevation_deg"):
            GroundSegment(con, con.satellites[0].tle.epoch, 3600.0,
                          stations=stations)


def _segment_with_windows(monkeypatch, windows_by_station):
    """A ground segment whose first satellite has the given offload
    windows, one list per station (the pass search is stubbed)."""
    con = build_constellation("tianqi")
    stations = TIANQI_GROUND_STATIONS[:len(windows_by_station)]

    def search(propagators, observers, epoch, duration_s, **kwargs):
        rows = [[[] for _ in observers] for _ in propagators]
        rows[0] = [[ContactWindow(rise, set_, 0.5 * (rise + set_), 30.0)
                    for rise, set_ in spans]
                   for spans in windows_by_station]
        return rows

    monkeypatch.setattr(store_forward, "find_passes_fleet", search)
    segment = GroundSegment(con, con.satellites[0].tle.epoch, 86400.0,
                            stations=stations, downlink_setup_s=30.0)
    return segment, con.satellites[0].norad_id


class TestOverlappingWindows:
    def test_open_window_of_an_earlier_station_is_used(self, monkeypatch):
        """Station A's long window contains station B's short one; a
        packet stored after B's window closed still offloads via A."""
        seg, norad = _segment_with_windows(
            monkeypatch, [[(100.0, 1000.0)], [(200.0, 400.0)]])
        assert seg.offload_windows(norad) == [(100.0, 1000.0),
                                              (200.0, 400.0)]
        assert seg.next_offload_s(norad, 50.0) == 100.0
        assert seg.next_offload_s(norad, 300.0) == 300.0
        assert seg.next_offload_s(norad, 500.0) == 500.0
        # Less than the downlink set-up time left in every window.
        assert seg.next_offload_s(norad, 980.0) is None

    def test_mean_gap_over_merged_windows(self, monkeypatch):
        seg, norad = _segment_with_windows(
            monkeypatch, [[(0.0, 100.0), (500.0, 600.0)], [(50.0, 300.0)]])
        # Merged: [0, 300] and [500, 600] — one 200 s gap, no negative
        # "gap" between the overlapping windows.
        assert seg.mean_gap_hours(norad) == pytest.approx(200.0 / 3600.0)
        seg, norad = _segment_with_windows(
            monkeypatch, [[(100.0, 1000.0)], [(200.0, 400.0)]])
        assert math.isinf(seg.mean_gap_hours(norad))
