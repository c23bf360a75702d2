"""Property tests: trace archives are value-exact, order-preserving.

For arbitrary trace tables — any finite floats, any int64 ids, unicode
site/constellation names — writing through CSV or JSONL and reading
back must reproduce the exact same dataset in the exact same row order.
The two formats must also agree with each other.  (The binary
``satiot-traces-v2`` archive has its own round-trip properties in
``tests/streams/test_spill_properties.py``.)
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satiot.groundstation.traces import (BeaconTrace, TraceColumns,
                                         TraceDataset)

pytestmark = pytest.mark.property

# NUL is unrepresentable in CSV (and trailing NUL is dropped by NumPy's
# fixed-width unicode storage); surrogates are not encodable to UTF-8.
TEXT = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",),
                           blacklist_characters="\x00"),
    min_size=0, max_size=12)

FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)
INT64 = st.integers(min_value=-(2 ** 62), max_value=2 ** 62)


@st.composite
def traces(draw):
    return BeaconTrace(
        time_s=draw(FINITE),
        station_id=draw(TEXT),
        site=draw(TEXT),
        constellation=draw(TEXT),
        satellite=draw(TEXT),
        norad_id=draw(INT64),
        frequency_hz=draw(FINITE),
        rssi_dbm=draw(FINITE),
        snr_db=draw(FINITE),
        elevation_deg=draw(FINITE),
        azimuth_deg=draw(FINITE),
        range_km=draw(FINITE),
        doppler_hz=draw(FINITE),
        raining=draw(st.booleans()),
        pass_id=draw(TEXT),
    )


DATASETS = st.lists(traces(), min_size=0, max_size=12) \
    .map(TraceDataset)


def _assert_exact(original: TraceDataset, restored: TraceDataset):
    assert len(restored) == len(original)
    # Row-level equality is bit-exact field equality in order.
    assert list(restored) == list(original)
    # Column-level equality (catches dtype drift the rows would mask).
    for name in ("time_s", "rssi_dbm", "norad_id", "raining"):
        assert np.array_equal(restored.column(name),
                              original.column(name))


@settings(max_examples=60, deadline=None)
@given(DATASETS)
def test_csv_roundtrip_exact(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    ds.to_csv(path)
    _assert_exact(ds, TraceDataset.from_csv(path))


@settings(max_examples=60, deadline=None)
@given(DATASETS)
def test_jsonl_roundtrip_exact(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("jsonl") / "t.jsonl"
    ds.to_jsonl(path)
    _assert_exact(ds, TraceDataset.from_jsonl(path))


@settings(max_examples=30, deadline=None)
@given(DATASETS)
def test_formats_agree(tmp_path_factory, ds):
    """CSV ↔ JSONL both reconstruct the same dataset."""
    tmp = tmp_path_factory.mktemp("cross")
    ds.to_csv(tmp / "t.csv")
    ds.to_jsonl(tmp / "t.jsonl")
    from_csv = TraceDataset.from_csv(tmp / "t.csv")
    from_jsonl = TraceDataset.from_jsonl(tmp / "t.jsonl")
    assert from_csv == from_jsonl == ds


@settings(max_examples=40, deadline=None)
@given(st.lists(traces(), min_size=0, max_size=12),
       st.integers(min_value=1, max_value=4))
def test_blocked_merge_is_canonical(rows, cut_count):
    """Any blocking of the same row stream concatenates to identical
    columns — codes and interning tables included."""
    direct = TraceColumns.from_rows(rows)
    cuts = sorted({min(len(rows), (i * len(rows)) // cut_count)
                   for i in range(1, cut_count)})
    pieces, last = [], 0
    for cut in cuts + [len(rows)]:
        pieces.append(TraceColumns.from_rows(rows[last:cut]))
        last = cut
    merged = TraceColumns.concat(pieces)
    assert merged.equals(direct)
    for name in ("site", "constellation", "pass_id"):
        assert merged.string_column(name).table \
            == direct.string_column(name).table
        assert np.array_equal(merged.string_column(name).codes,
                              direct.string_column(name).codes)
