"""Tests for beacon-trace records and columnar dataset I/O."""

import numpy as np
import pytest

from satiot.groundstation.traces import (BeaconTrace, StringColumn,
                                         TraceColumns, TraceDataset)
from satiot.streams.spill import ShardedTraceReader, ShardSpillWriter


def make_trace(**kwargs):
    defaults = dict(time_s=100.0, station_id="HK-1", site="HK",
                    constellation="Tianqi", satellite="Tianqi-TQ-A-01",
                    norad_id=44100, frequency_hz=400.45e6,
                    rssi_dbm=-128.5, snr_db=-11.4, elevation_deg=42.0,
                    azimuth_deg=183.0, range_km=1120.0, doppler_hz=-4200.0,
                    raining=False, pass_id="HK-44100-3")
    defaults.update(kwargs)
    return BeaconTrace(**defaults)


class TestBeaconTrace:
    def test_row_roundtrip(self):
        trace = make_trace()
        assert BeaconTrace.from_row(trace.to_row()) == trace

    def test_from_row_parses_strings(self):
        row = {k: str(v) for k, v in make_trace().to_row().items()}
        back = BeaconTrace.from_row(row)
        assert back.rssi_dbm == pytest.approx(-128.5)
        assert back.norad_id == 44100
        assert back.raining is False

    def test_from_row_missing_column_raises(self):
        row = make_trace().to_row()
        del row["rssi_dbm"]
        with pytest.raises(KeyError, match="rssi_dbm"):
            BeaconTrace.from_row(row)

    def test_from_row_bad_value_names_field(self):
        row = make_trace().to_row()
        row["norad_id"] = "not-a-number"
        with pytest.raises(ValueError, match="norad_id"):
            BeaconTrace.from_row(row)

    def test_from_row_bad_bool_raises(self):
        """Unknown boolean literals are no longer silently False."""
        row = make_trace().to_row()
        row["raining"] = "maybe"
        with pytest.raises(ValueError, match="raining"):
            BeaconTrace.from_row(row)

    def test_from_row_bool_literals(self):
        for literal, expected in (("true", True), ("1", True),
                                  ("False", False), ("0", False),
                                  (1, True), (0, False)):
            row = make_trace().to_row()
            row["raining"] = literal
            assert BeaconTrace.from_row(row).raining is expected

    def test_from_row_ignores_extra_columns(self):
        row = make_trace().to_row()
        row["brand_new_column"] = "whatever"
        assert BeaconTrace.from_row(row) == make_trace()


class TestStringColumn:
    def test_first_appearance_interning(self):
        col = StringColumn.from_values(["b", "a", "b", "c", "a"])
        assert col.table == ("b", "a", "c")
        assert list(col.codes) == [0, 1, 0, 2, 1]

    def test_mask_eq(self):
        col = StringColumn.from_values(["HK", "SYD", "HK"])
        assert list(col.mask_eq("HK")) == [True, False, True]
        assert list(col.mask_eq("nope")) == [False, False, False]
        assert list(col.mask_eq("hk", casefold=True)) \
            == [True, False, True]

    def test_concat_is_canonical(self):
        # The same row stream, blocked differently, must produce the
        # same codes and tables.
        a = StringColumn.from_values(["x", "y"])
        b = StringColumn.from_values(["y", "z"])
        merged = StringColumn.concat([a, b])
        direct = StringColumn.from_values(["x", "y", "y", "z"])
        assert merged.table == direct.table
        assert list(merged.codes) == list(direct.codes)

    def test_concat_drops_unused_entries(self):
        col = StringColumn.from_values(["a", "b", "a"]).take([0, 2])
        canonical = col.canonicalized()
        assert canonical.table == ("a",)
        assert list(canonical.codes) == [0, 0]

    def test_values_are_exact_strings(self):
        col = StringColumn.from_values(["héllo", "wörld"])
        assert list(col.values()) == ["héllo", "wörld"]


class TestTraceColumns:
    def test_from_rows_row_roundtrip(self):
        rows = [make_trace(time_s=float(i)) for i in range(5)]
        block = TraceColumns.from_rows(rows)
        assert len(block) == 5
        assert [block.row(i) for i in range(5)] == rows

    def test_from_arrays_broadcasts_scalars(self):
        block = TraceColumns.from_arrays(
            n=3, time_s=np.arange(3.0), station_id="HK-1", site="HK",
            constellation="Tianqi", satellite="S", norad_id=1,
            frequency_hz=4.0e8, rssi_dbm=np.full(3, -120.0),
            snr_db=np.zeros(3), elevation_deg=np.zeros(3),
            azimuth_deg=np.zeros(3), range_km=np.ones(3),
            doppler_hz=np.zeros(3), raining=False, pass_id="HK-1-0")
        assert block.row(2).site == "HK"
        assert block.row(2).time_s == 2.0
        assert block.column("norad_id").dtype == np.int64

    def test_from_arrays_missing_column_raises(self):
        with pytest.raises(ValueError, match="missing trace columns"):
            TraceColumns.from_arrays(n=1, time_s=np.zeros(1))

    def test_concat_matches_from_rows(self):
        rows = [make_trace(time_s=float(i),
                           site="HK" if i % 2 else "SYD")
                for i in range(6)]
        direct = TraceColumns.from_rows(rows)
        merged = TraceColumns.concat([TraceColumns.from_rows(rows[:2]),
                                      TraceColumns.from_rows(rows[2:])])
        assert merged.equals(direct)
        # Canonical interning: codes/tables identical, not just values.
        assert merged.string_column("site").table \
            == direct.string_column("site").table
        assert np.array_equal(merged.string_column("site").codes,
                              direct.string_column("site").codes)

    def test_slice_is_zero_copy(self):
        block = TraceColumns.from_rows(
            [make_trace(time_s=float(i)) for i in range(4)])
        window = block.slice(slice(1, 3))
        assert len(window) == 2
        assert np.shares_memory(window.column("time_s"),
                                block.column("time_s"))

    def test_take_with_mask(self):
        block = TraceColumns.from_rows(
            [make_trace(time_s=float(i)) for i in range(4)])
        picked = block.take(block.column("time_s") >= 2.0)
        assert [picked.row(i).time_s for i in range(len(picked))] \
            == [2.0, 3.0]


class TestTraceDataset:
    def make_dataset(self):
        return TraceDataset([
            make_trace(time_s=3.0, site="HK", constellation="Tianqi"),
            make_trace(time_s=1.0, site="HK", constellation="FOSSA",
                       norad_id=52700, pass_id="HK-52700-0"),
            make_trace(time_s=2.0, site="SYD", constellation="Tianqi",
                       station_id="SYD-1"),
        ])

    def test_len_iter_getitem(self):
        ds = self.make_dataset()
        assert len(ds) == 3
        assert len(list(ds)) == 3
        assert ds[0].time_s == 3.0

    def test_slicing_returns_dataset(self):
        ds = self.make_dataset()
        head = ds[:2]
        assert isinstance(head, TraceDataset)
        assert len(head) == 2
        assert head[0] == ds[0]

    def test_filters(self):
        ds = self.make_dataset()
        assert len(ds.by_constellation("tianqi")) == 2
        assert len(ds.by_site("HK")) == 2
        assert len(ds.by_satellite(52700)) == 1
        assert len(ds.by_pass("HK-52700-0")) == 1

    def test_select_with_mask(self):
        ds = self.make_dataset()
        picked = ds.select(ds.column("time_s") < 2.5)
        assert sorted(t.time_s for t in picked) == [1.0, 2.0]

    def test_predicate_filter_still_works(self):
        ds = self.make_dataset()
        assert len(ds.filter(lambda t: t.site == "HK")) == 2

    def test_site_and_constellation_listing(self):
        ds = self.make_dataset()
        assert ds.sites() == ["HK", "SYD"]
        assert ds.constellations() == ["FOSSA", "Tianqi"]

    def test_listing_ignores_filtered_out_values(self):
        ds = self.make_dataset().by_site("SYD")
        assert ds.sites() == ["SYD"]

    def test_sorted_by_time(self):
        times = [t.time_s for t in self.make_dataset().sorted_by_time()]
        assert times == sorted(times)

    def test_append_extend(self):
        ds = TraceDataset()
        ds.append(make_trace())
        ds.extend([make_trace(time_s=5.0)])
        assert len(ds) == 2

    def test_extend_with_dataset_adopts_blocks(self):
        ds = TraceDataset()
        ds.extend(self.make_dataset())
        ds.extend(self.make_dataset().columns)
        assert len(ds) == 6

    def test_equality_with_lists(self):
        ds = self.make_dataset()
        assert ds == list(ds)
        assert TraceDataset() == []
        assert ds == TraceDataset(list(ds))

    def test_column_access(self):
        ds = self.make_dataset()
        assert ds.column("time_s").dtype == np.float64
        assert list(ds.column("site")) == ["HK", "HK", "SYD"]
        with pytest.raises(KeyError):
            ds.column("nope")

    def test_csv_roundtrip(self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "traces.csv"
        ds.to_csv(path)
        back = TraceDataset.from_csv(path)
        assert len(back) == len(ds)
        assert list(back)[0] == list(ds)[0]

    def test_jsonl_roundtrip(self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "traces.jsonl"
        ds.to_jsonl(path)
        back = TraceDataset.from_jsonl(path)
        assert [t for t in back] == [t for t in ds]

    def test_npz_roundtrip(self, tmp_path):
        """The binary round trip goes through the sharded archive; the
        single-file NPZ archive (v1) is gone, so saving to a ``.npz``
        path points there instead and writes nothing."""
        ds = self.make_dataset()
        root = tmp_path / "archive"
        writer = ShardSpillWriter(root, rows_per_shard=2)
        writer.write_dataset(ds)
        writer.finalize()
        back = ShardedTraceReader(root).load()
        assert back == ds
        # Binary columns round-trip bit-exactly.
        assert np.array_equal(back.column("rssi_dbm"),
                              ds.column("rssi_dbm"))
        path = tmp_path / "traces.npz"
        for call in (lambda: ds.save(path),
                     lambda: ds.save(tmp_path / "t.csv", trace_format="npz")):
            with pytest.raises(ValueError, match="--spill") as info:
                call()
            assert "ShardedTraceReader" in str(info.value)
        assert not path.exists()

    def test_npz_rejects_foreign_archives(self, tmp_path):
        path = tmp_path / "other.npz"
        with pytest.raises(ValueError, match="--spill") as info:
            TraceDataset.load(path)
        assert "ShardedTraceReader" in str(info.value)
        np.savez(path, __format__=np.asarray(["not-traces"]))
        with pytest.raises(ValueError, match="ShardedTraceReader"):
            TraceDataset.load(path)

    def test_save_load_by_suffix(self, tmp_path):
        ds = self.make_dataset()
        for suffix, fmt in (("csv", "csv"), ("jsonl", "jsonl")):
            path = tmp_path / f"traces.{suffix}"
            assert ds.save(path) == fmt
            assert TraceDataset.load(path) == ds

    def test_empty_roundtrips(self, tmp_path):
        empty = TraceDataset()
        for fmt in ("csv", "jsonl"):
            path = tmp_path / f"empty.{fmt}"
            empty.save(path, trace_format=fmt)
            assert len(TraceDataset.load(path)) == 0
