"""Sharded spill writer/reader: determinism, durability, error paths.

The format contract under test (docs/streams.md): shard boundaries and
shard bytes are pure functions of the row stream and ``rows_per_shard``
— never of how the producer blocked its writes — and every corruption
mode surfaces as :class:`TraceArchiveError` naming the offending file.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from satiot.groundstation.traces import TraceColumns, TraceDataset
from satiot.streams.npzio import deterministic_npz_bytes
from satiot.streams.spill import (DEFAULT_ROWS_PER_SHARD, MANIFEST_NAME,
                                  SHARD_FORMAT, STREAM_FORMAT,
                                  ShardedTraceReader, ShardSpillWriter,
                                  TraceArchiveError, _block_payload,
                                  _load_shard_block, is_stream_archive,
                                  read_stream_manifest)
from tests.streams.conftest import make_block, sha_tree


def spill(root, blocks, rows_per_shard=100, fingerprint="fp"):
    writer = ShardSpillWriter(root, rows_per_shard=rows_per_shard,
                              fingerprint=fingerprint)
    for block in blocks:
        writer.write(block)
    return writer.finalize(meta={"engine": "test"})


class TestRoundTrip:
    def test_multi_block_roundtrip_is_value_exact(self, tmp_path):
        blocks = [make_block(137, seed=1), make_block(251, seed=2),
                  make_block(13, seed=3, site="SYD")]
        manifest = spill(tmp_path, blocks)
        assert manifest["total_rows"] == 401
        assert len(manifest["shards"]) == 5  # 4 full + 1 remainder
        reader = ShardedTraceReader(tmp_path)
        assert reader.verify() == 401
        assert reader.load().columns.equals(TraceColumns.concat(blocks))

    def test_row_order_is_write_order(self, tmp_path):
        blocks = [make_block(30, seed=4), make_block(30, seed=5)]
        spill(tmp_path, blocks, rows_per_shard=25)
        loaded = ShardedTraceReader(tmp_path).load()
        expected = TraceColumns.concat(blocks)
        assert loaded.columns.column("time_s").tolist() \
            == expected.column("time_s").tolist()

    def test_empty_archive(self, tmp_path):
        manifest = spill(tmp_path, [])
        assert manifest["total_rows"] == 0
        assert manifest["shards"] == []
        reader = ShardedTraceReader(tmp_path)
        assert reader.verify() == 0
        assert len(reader.load()) == 0

    def test_shard_string_tables_are_canonical(self, tmp_path):
        spill(tmp_path, [make_block(40, seed=6),
                         make_block(40, seed=7, site="SYD")],
              rows_per_shard=30)
        for block in ShardedTraceReader(tmp_path).iter_blocks():
            for name in ("site", "constellation", "pass_id"):
                column = block.string_column(name)
                assert column.equals(column.canonicalized())
                assert column.table == column.canonicalized().table


class TestDeterminism:
    def test_bytes_independent_of_producer_blocking(self, tmp_path):
        rows = make_block(180, seed=8)
        one = tmp_path / "one"
        many = tmp_path / "many"
        spill(one, [rows], rows_per_shard=50)
        pieces = [rows.slice(slice(i, i + 7)) for i in range(0, 180, 7)]
        spill(many, pieces, rows_per_shard=50)
        assert sha_tree(one) == sha_tree(many)

    def test_equal_runs_spill_byte_identically(self, tmp_path):
        for sub in ("a", "b"):
            spill(tmp_path / sub, [make_block(90, seed=9)],
                  rows_per_shard=40)
        assert sha_tree(tmp_path / "a") == sha_tree(tmp_path / "b")


class TestManifest:
    def test_read_is_manifest_only(self, tmp_path):
        spill(tmp_path, [make_block(10, seed=10)])
        # Corrupting the shard must not affect a manifest-only read.
        shard = next((tmp_path / "shards").glob("shard-*.npz"))
        shard.write_bytes(b"garbage")
        manifest = read_stream_manifest(tmp_path)
        assert manifest["format"] == STREAM_FORMAT
        assert manifest["total_rows"] == 10
        assert manifest["fingerprint"] == "fp"
        assert manifest["meta"] == {"engine": "test"}

    def test_is_stream_archive(self, tmp_path):
        assert not is_stream_archive(tmp_path)
        spill(tmp_path, [make_block(5, seed=11)])
        assert is_stream_archive(tmp_path)

    def test_schema_and_string_fingerprints_recorded(self, tmp_path):
        manifest = spill(tmp_path, [make_block(12, seed=12)])
        assert set(manifest["schema"]) >= {"time_s", "rssi_dbm", "site"}
        entry = manifest["shards"][0]
        assert set(entry["string_tables"]) \
            == {"station_id", "site", "constellation", "satellite",
                "pass_id"}

    def test_rejects_foreign_manifest(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(
            json.dumps({"format": "something-else"}))
        with pytest.raises(TraceArchiveError):
            read_stream_manifest(tmp_path)
        assert not is_stream_archive(tmp_path)

    @pytest.mark.parametrize("document", ["[]", '"x"', "3", "null"])
    def test_rejects_non_object_manifest(self, tmp_path, document):
        (tmp_path / MANIFEST_NAME).write_text(document)
        assert not is_stream_archive(tmp_path)
        with pytest.raises(TraceArchiveError, match="not a JSON object"):
            read_stream_manifest(tmp_path)


class TestCorruption:
    def test_truncated_shard_names_the_file(self, tmp_path):
        spill(tmp_path, [make_block(60, seed=13)], rows_per_shard=30)
        shard = sorted((tmp_path / "shards").glob("shard-*.npz"))[1]
        shard.write_bytes(shard.read_bytes()[:100])
        reader = ShardedTraceReader(tmp_path)
        with pytest.raises(TraceArchiveError, match=shard.name):
            reader.verify()

    def test_trace_archive_error_is_a_value_error(self):
        # The dataset CLI catches ValueError; the subclass must flow
        # through that handler (exit 2, no traceback).
        assert issubclass(TraceArchiveError, ValueError)

    def test_missing_shard_file(self, tmp_path):
        spill(tmp_path, [make_block(20, seed=14)], rows_per_shard=10)
        next((tmp_path / "shards").glob("shard-*.npz")).unlink()
        with pytest.raises(TraceArchiveError):
            ShardedTraceReader(tmp_path).verify()

    def test_v1_loader_points_at_v2_reader(self, tmp_path):
        spill(tmp_path, [make_block(8, seed=15)])
        shard = next((tmp_path / "shards").glob("shard-*.npz"))
        with pytest.raises(ValueError, match="ShardedTraceReader"):
            TraceDataset.load(shard)


class TestShardSchema:
    """A shard whose columns break the schema is refused by name."""

    @pytest.mark.parametrize("key, corrupt", [
        pytest.param("time_s", lambda a: a.astype(np.float32),
                     id="time_s-float32"),
        pytest.param("norad_id", lambda a: a.astype(np.int32),
                     id="norad_id-int32"),
        pytest.param("raining", lambda a: a.astype(np.uint8),
                     id="raining-uint8"),
        pytest.param("site__codes", lambda a: a[:4], id="codes-short"),
        pytest.param("site__codes", lambda a: a.astype(np.int64),
                     id="codes-int64"),
        pytest.param("pass_id__codes", lambda a: a + 100,
                     id="codes-past-table"),
        pytest.param("pass_id__codes", lambda a: a - 1,
                     id="codes-negative"),
    ])
    def test_bad_column_names_file_and_column(self, tmp_path, key,
                                              corrupt):
        payload = _block_payload(make_block(10, seed=24), SHARD_FORMAT, 0)
        payload[key] = corrupt(payload[key])
        path = tmp_path / "shard-000000.npz"
        path.write_bytes(deterministic_npz_bytes(payload))
        with pytest.raises(TraceArchiveError, match=key) as info:
            _load_shard_block(path, SHARD_FORMAT)
        assert str(path) in str(info.value)

    def test_scalar_header_is_corrupt(self, tmp_path):
        payload = _block_payload(make_block(10, seed=24), SHARD_FORMAT, 0)
        payload["__n__"] = np.int64(10)
        path = tmp_path / "shard-000000.npz"
        path.write_bytes(deterministic_npz_bytes(payload))
        with pytest.raises(TraceArchiveError, match="corrupt"):
            _load_shard_block(path, SHARD_FORMAT)

    def test_unverified_read_still_checks_columns(self, tmp_path):
        spill(tmp_path, [make_block(10, seed=25)])
        payload = _block_payload(make_block(10, seed=25), SHARD_FORMAT, 0)
        payload["time_s"] = payload["time_s"].astype(np.float32)
        payload["site__codes"] = payload["site__codes"][:4]
        shard = tmp_path / "shards" / "shard-000000.npz"
        shard.write_bytes(deterministic_npz_bytes(payload))
        with pytest.raises(TraceArchiveError, match="time_s"):
            ShardedTraceReader(tmp_path).load(verify=False)


class TestFreshSpill:
    """A new writer replaces whatever archive its directory held."""

    def test_respill_leaves_no_stale_shards(self, tmp_path):
        spill(tmp_path / "reused", [make_block(50, seed=20)],
              rows_per_shard=10)
        spill(tmp_path / "reused", [make_block(15, seed=21)],
              rows_per_shard=10)
        spill(tmp_path / "clean", [make_block(15, seed=21)],
              rows_per_shard=10)
        assert sha_tree(tmp_path / "reused") == sha_tree(tmp_path / "clean")

    def test_unfinished_respill_has_no_manifest(self, tmp_path):
        spill(tmp_path, [make_block(50, seed=22)], rows_per_shard=10)
        writer = ShardSpillWriter(tmp_path, rows_per_shard=10,
                                  fingerprint="fp")
        writer.write(make_block(15, seed=23))   # dies before finalize
        assert not is_stream_archive(tmp_path)
        assert [p.name for p in (tmp_path / "shards").iterdir()] \
            == ["shard-000000.npz"]


class TestSnapshotResume:
    def test_resume_continues_byte_identically(self, tmp_path):
        first = make_block(130, seed=16)
        second = make_block(80, seed=17)
        clean = tmp_path / "clean"
        spill(clean, [first, second])

        resumed = tmp_path / "resumed"
        writer = ShardSpillWriter(resumed, rows_per_shard=100,
                                  fingerprint="fp")
        writer.write(first)           # 1 shard + 30 pending rows
        state = writer.snapshot_state()
        writer = ShardSpillWriter.resume(resumed, state)
        writer.write(second)
        writer.finalize(meta={"engine": "test"})
        assert sha_tree(clean) == sha_tree(resumed)

    def test_resume_prunes_shards_past_the_checkpoint(self, tmp_path):
        clean = tmp_path / "clean"
        spill(clean, [make_block(130, seed=18)], rows_per_shard=50)

        crashed = tmp_path / "crashed"
        writer = ShardSpillWriter(crashed, rows_per_shard=50,
                                  fingerprint="fp")
        writer.write(make_block(130, seed=18).slice(slice(0, 60)))
        state = writer.snapshot_state()
        # A shard that landed after the checkpoint (torn crash window).
        stray = crashed / "shards" / "shard-000001.npz"
        stray.write_bytes(b"half-written garbage")
        writer = ShardSpillWriter.resume(crashed, state)
        writer.write(make_block(130, seed=18).slice(slice(60, 130)))
        writer.finalize(meta={"engine": "test"})
        assert sha_tree(clean) == sha_tree(crashed)

    def test_resume_verifies_inventoried_shards(self, tmp_path):
        writer = ShardSpillWriter(tmp_path, rows_per_shard=10,
                                  fingerprint="fp")
        writer.write(make_block(25, seed=19))
        state = writer.snapshot_state()
        shard = next((tmp_path / "shards").glob("shard-*.npz"))
        shard.write_bytes(shard.read_bytes()[:64])
        with pytest.raises(TraceArchiveError):
            ShardSpillWriter.resume(tmp_path, state)


def test_default_shard_size_is_sane():
    assert DEFAULT_ROWS_PER_SHARD == 100_000
    assert SHARD_FORMAT.startswith(STREAM_FORMAT)
