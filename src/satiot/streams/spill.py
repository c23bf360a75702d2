"""Sharded ``satiot-traces-v2`` spill archives.

The binary trace archive: one campaign's columns spread over
fixed-size NPZ shards plus a manifest, so a dataset as long as the
paper's seven-month longitudinal span never has to fit in memory::

    <root>/manifest.json            # inventory, schema, fingerprints
    <root>/shards/shard-000000.npz  # rows [0, rows_per_shard)
    <root>/shards/shard-000001.npz  # rows [rows_per_shard, ...)
    ...

Determinism contract
--------------------
Shard boundaries are a pure function of the row stream and
``rows_per_shard`` (never of how the producer blocked its writes), each
shard's string tables are re-interned canonically over *that shard's*
rows, and shards are serialized with the deterministic zip writer — so
equal runs spill byte-identically, shard files and manifest included.
That is what lets a killed-and-resumed campaign prove itself against an
uninterrupted one with ``cmp``.

Durability
----------
Every file lands via write-to-temp + ``os.replace``, and each shard is
read back and checksum-verified before it enters the inventory.  The
``stream.shard_write`` fault site injects a torn write exactly there;
the verification catches it and rewrites, absorbing the fault without a
byte of output difference.
"""

from __future__ import annotations

import json
import os
import signal
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

import numpy as np

from ..faults import fault_fires
from ..groundstation.traces import (NUMERIC_FIELDS, STRING_FIELDS,
                                    TRACE_FIELD_KINDS, StringColumn,
                                    TraceColumns, TraceDataset)
from .npzio import (atomic_write_bytes, deterministic_npz_bytes,
                    sha256_bytes, sha256_file)

__all__ = ["STREAM_FORMAT", "SHARD_FORMAT", "DEFAULT_ROWS_PER_SHARD",
           "TraceArchiveError", "ShardSpillWriter", "ShardedTraceReader",
           "is_stream_archive", "read_stream_manifest"]

STREAM_FORMAT = "satiot-traces-v2"
SHARD_FORMAT = "satiot-traces-v2-shard"
PENDING_FORMAT = "satiot-traces-v2-pending"

MANIFEST_NAME = "manifest.json"
PENDING_NAME = "pending.npz"
SHARD_DIR = "shards"

DEFAULT_ROWS_PER_SHARD = 100_000

#: Fault-plane site consulted on every shard write (torn-write
#: injection; absorbed by readback verification + rewrite).
SHARD_WRITE_SITE = "stream.shard_write"

#: Chaos hook: SIGKILL this process right after the N-th shard file
#: lands on disk — *before* any checkpoint records it — so resume tests
#: cover the worst crash window.
KILL_AFTER_SHARD_ENV = "SATIOT_STREAMS_KILL_AFTER_SHARD"


class TraceArchiveError(ValueError):
    """A sharded trace archive is missing, truncated or corrupt."""


def _maybe_kill_after_shard(shards_written: int) -> None:
    raw = os.environ.get(KILL_AFTER_SHARD_ENV, "").strip()
    if raw and shards_written >= int(raw):
        os.kill(os.getpid(), signal.SIGKILL)


# ----------------------------------------------------------------------
# Column block <-> NPZ payload: the only trace-column codec for NPZ files
# ----------------------------------------------------------------------
def _block_payload(block: TraceColumns, magic: str,
                   index: int) -> Dict[str, np.ndarray]:
    payload: Dict[str, np.ndarray] = {
        "__format__": np.asarray([magic]),
        "__shard__": np.asarray([index], dtype=np.int64),
        "__n__": np.asarray([block.n], dtype=np.int64),
    }
    for name in NUMERIC_FIELDS:
        payload[name] = block.column(name)
    for name in STRING_FIELDS:
        col = block.string_column(name)
        payload[f"{name}__codes"] = col.codes
        payload[f"{name}__table"] = (
            np.asarray(col.table) if col.table
            else np.empty(0, dtype="<U1"))
    return payload


def _block_from_archive(archive, path: Path, magic: str) -> TraceColumns:
    """Decode a payload; a column off the schema fails here, by name.

    Arrays must have the schema's dtype (``int32`` codes) and the
    header's row count, and codes must index their table.
    """
    stored = str(archive["__format__"][0])
    if stored != magic:
        raise TraceArchiveError(
            f"{path}: expected {magic!r}, found {stored!r}")
    n = int(archive["__n__"][0])

    def column(key: str, dtype: np.dtype) -> np.ndarray:
        array = archive[key]
        if array.dtype != dtype or array.shape != (n,):
            raise TraceArchiveError(
                f"{path}: column {key!r} is {array.dtype}{array.shape}, "
                f"schema and header say {dtype}({n},)")
        return array

    numeric = {name: column(name, np.dtype(TRACE_FIELD_KINDS[name]))
               for name in NUMERIC_FIELDS}
    strings = {}
    for name in STRING_FIELDS:
        key = f"{name}__codes"
        codes = column(key, np.dtype(np.int32))
        table = [str(s) for s in archive[f"{name}__table"]]
        if codes.size and not 0 <= codes.min() <= codes.max() < len(table):
            raise TraceArchiveError(
                f"{path}: column {key!r} points outside its "
                f"{len(table)}-entry table")
        strings[name] = StringColumn(codes, table, canonical=True)
    return TraceColumns(numeric, strings, n)


def _load_shard_block(path: Path, magic: str) -> TraceColumns:
    """Read one shard NPZ, mapping every failure mode to a clear error."""
    import zipfile
    try:
        with np.load(path, allow_pickle=False) as archive:
            return _block_from_archive(archive, path, magic)
    except TraceArchiveError:
        raise
    except FileNotFoundError:
        raise TraceArchiveError(f"{path}: shard file is missing")
    except (zipfile.BadZipFile, EOFError, OSError, KeyError, IndexError,
            ValueError) as exc:
        raise TraceArchiveError(
            f"{path}: shard is truncated or corrupt "
            f"({type(exc).__name__}: {exc})") from exc


def _table_fingerprints(block: TraceColumns) -> Dict[str, str]:
    """Per-field sha256 of the canonical string tables (manifest)."""
    out = {}
    for name in STRING_FIELDS:
        table = block.string_column(name).table
        out[name] = sha256_bytes("\x00".join(table).encode("utf-8"))
    return out


# ----------------------------------------------------------------------
def is_stream_archive(root: Union[str, Path]) -> bool:
    """True when ``root`` holds a ``satiot-traces-v2`` manifest."""
    manifest = Path(root) / MANIFEST_NAME
    if not manifest.is_file():
        return False
    try:
        data = json.loads(manifest.read_text())
    except (OSError, ValueError):
        return False
    return isinstance(data, dict) and data.get("format") == STREAM_FORMAT


def read_stream_manifest(root: Union[str, Path]) -> Dict[str, Any]:
    """O(1) manifest read — never opens a shard file."""
    path = Path(root) / MANIFEST_NAME
    if not path.is_file():
        raise TraceArchiveError(f"no {MANIFEST_NAME} under {root}")
    try:
        manifest = json.loads(path.read_text())
    except ValueError as exc:
        raise TraceArchiveError(
            f"{path}: manifest is not valid JSON ({exc})") from exc
    if not isinstance(manifest, dict):
        raise TraceArchiveError(f"{path}: manifest is not a JSON object")
    if manifest.get("format") != STREAM_FORMAT:
        raise TraceArchiveError(
            f"{path}: unsupported archive format "
            f"{manifest.get('format')!r}")
    for key in ("rows_per_shard", "total_rows", "shards", "schema"):
        if key not in manifest:
            raise TraceArchiveError(f"{path}: manifest lacks {key!r}")
    return manifest


# ----------------------------------------------------------------------
class ShardSpillWriter:
    """Streams column blocks to disk as fixed-size deterministic shards.

    Feed it :class:`TraceColumns` blocks of any size via :meth:`write`;
    whenever ``rows_per_shard`` rows are buffered it cuts a shard —
    boundaries depend only on the cumulative row stream, so producers
    are free to block their output however they like.  :meth:`finalize`
    flushes the remainder as a final short shard and writes the
    manifest.

    A new writer starts a new archive: it removes an earlier spill's
    manifest, pending buffer and shards from ``root`` before writing,
    so the directory never mixes two archives and stays manifest-less
    until :meth:`finalize`.

    The writer is checkpointable: :meth:`snapshot_state` persists the
    partial-shard buffer (``pending.npz``) and returns a JSON-able
    state; :meth:`resume` reconstructs an equivalent writer, verifying
    every inventoried shard on disk — the resumed run spills the exact
    bytes the uninterrupted one would have.
    """

    def __init__(self, root: Union[str, Path],
                 rows_per_shard: int = DEFAULT_ROWS_PER_SHARD,
                 fingerprint: str = "") -> None:
        self._open(root, rows_per_shard, fingerprint)
        for name in (MANIFEST_NAME, PENDING_NAME):
            (self.root / name).unlink(missing_ok=True)
        self._prune_shards()

    def _open(self, root: Union[str, Path], rows_per_shard: int,
              fingerprint: str) -> None:
        """An empty writer on ``root``; clears nothing (see resume)."""
        if rows_per_shard <= 0:
            raise ValueError("rows_per_shard must be positive")
        self.root = Path(root)
        self.rows_per_shard = int(rows_per_shard)
        self.fingerprint = str(fingerprint)
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / SHARD_DIR).mkdir(exist_ok=True)
        self._buffer: List[TraceColumns] = []
        self._buffered = 0
        self._shards: List[Dict[str, Any]] = []
        self.rows_spilled = 0
        self.bytes_spilled = 0
        #: Torn writes detected and absorbed by readback verification.
        self.rewrites = 0
        self._finalized = False

    # -- properties ----------------------------------------------------
    @property
    def shards_written(self) -> int:
        return len(self._shards)

    @property
    def total_rows(self) -> int:
        return self.rows_spilled + self._buffered

    # -- streaming input -----------------------------------------------
    def write(self, block: TraceColumns) -> None:
        if self._finalized:
            raise RuntimeError("writer is finalized")
        if block.n == 0:
            return
        self._buffer.append(block)
        self._buffered += block.n
        while self._buffered >= self.rows_per_shard:
            self._cut_shard(self.rows_per_shard)

    def write_dataset(self, dataset: TraceDataset) -> None:
        for block in dataset.blocks():
            self.write(block)

    # -- shard cutting -------------------------------------------------
    def _cut_shard(self, rows: int) -> None:
        parts: List[TraceColumns] = []
        need = rows
        while need > 0:
            head = self._buffer[0]
            if head.n <= need:
                parts.append(self._buffer.pop(0))
                need -= head.n
            else:
                parts.append(head.slice(slice(0, need)))
                self._buffer[0] = head.slice(slice(need, head.n))
                need = 0
        self._buffered -= rows
        # Canonical re-interning makes the shard's bytes a pure
        # function of its rows, independent of producer blocking.
        block = TraceColumns.concat(parts).canonicalized()
        self._write_shard(block)

    def _write_shard(self, block: TraceColumns) -> None:
        index = len(self._shards)
        name = f"{SHARD_DIR}/shard-{index:06d}.npz"
        data = deterministic_npz_bytes(
            _block_payload(block, SHARD_FORMAT, index))
        digest = sha256_bytes(data)
        self._durable_write(self.root / name, data, digest)
        self._shards.append({
            "name": name,
            "rows": block.n,
            "sha256": digest,
            "string_tables": _table_fingerprints(block),
        })
        self.rows_spilled += block.n
        self.bytes_spilled += len(data)
        _maybe_kill_after_shard(len(self._shards))

    def _prune_shards(self) -> None:
        """Delete shard files that are not in the inventory."""
        known = {entry["name"] for entry in self._shards}
        for stray in sorted((self.root / SHARD_DIR).glob("shard-*.npz")):
            if f"{SHARD_DIR}/{stray.name}" not in known:
                stray.unlink()

    def _durable_write(self, path: Path, data: bytes,
                       digest: str) -> None:
        """Write + verify; a torn write is detected and rewritten."""
        to_write = data
        if fault_fires(SHARD_WRITE_SITE):
            to_write = data[:len(data) // 2]  # injected torn write
        atomic_write_bytes(path, to_write)
        if sha256_file(path) == digest:
            return
        self.rewrites += 1
        atomic_write_bytes(path, data)
        if sha256_file(path) != digest:
            raise OSError(
                f"shard write verification failed twice for {path}")

    # -- checkpointing -------------------------------------------------
    def snapshot_state(self) -> Dict[str, Any]:
        """Persist the partial-shard buffer; return JSON-able state."""
        pending_path = self.root / PENDING_NAME
        pending: Optional[Dict[str, Any]] = None
        if self._buffered:
            block = TraceColumns.concat(
                list(self._buffer)).canonicalized()
            data = deterministic_npz_bytes(
                _block_payload(block, PENDING_FORMAT, -1))
            atomic_write_bytes(pending_path, data)
            pending = {"rows": block.n, "sha256": sha256_bytes(data)}
        elif pending_path.exists():
            pending_path.unlink()
        return {
            "format": STREAM_FORMAT,
            "rows_per_shard": self.rows_per_shard,
            "fingerprint": self.fingerprint,
            "shards": list(self._shards),
            "rows_spilled": self.rows_spilled,
            "bytes_spilled": self.bytes_spilled,
            "pending": pending,
        }

    @classmethod
    def resume(cls, root: Union[str, Path],
               state: Dict[str, Any]) -> "ShardSpillWriter":
        """Rebuild a writer from :meth:`snapshot_state` output.

        Inventoried shards are checksum-verified, stray shard files
        beyond the inventory (a crash landed them after the last
        checkpoint) are pruned — the resumed stream rewrites them
        byte-identically — and the pending buffer is restored
        value-exact from ``pending.npz``.
        """
        if state.get("format") != STREAM_FORMAT:
            raise TraceArchiveError(
                f"checkpoint format {state.get('format')!r} is not "
                f"{STREAM_FORMAT!r}")
        writer = cls.__new__(cls)
        writer._open(root, int(state["rows_per_shard"]),
                     str(state.get("fingerprint", "")))
        for entry in state["shards"]:
            path = writer.root / entry["name"]
            if not path.is_file():
                raise TraceArchiveError(
                    f"{path}: checkpointed shard is missing")
            if sha256_file(path) != entry["sha256"]:
                raise TraceArchiveError(
                    f"{path}: checkpointed shard fails its checksum")
        writer._shards = [dict(entry) for entry in state["shards"]]
        writer.rows_spilled = int(state["rows_spilled"])
        writer.bytes_spilled = int(state["bytes_spilled"])
        writer._prune_shards()
        pending = state.get("pending")
        if pending:
            pending_path = writer.root / PENDING_NAME
            if not pending_path.is_file():
                raise TraceArchiveError(
                    f"{pending_path}: checkpointed pending buffer is "
                    f"missing")
            if sha256_file(pending_path) != pending["sha256"]:
                raise TraceArchiveError(
                    f"{pending_path}: pending buffer fails its checksum")
            block = _load_shard_block(pending_path, PENDING_FORMAT)
            writer._buffer = [block]
            writer._buffered = block.n
        return writer

    # -- completion ----------------------------------------------------
    def finalize(self, meta: Optional[Dict[str, Any]] = None,
                 ) -> Dict[str, Any]:
        """Flush the remainder, write the manifest, return it."""
        if self._finalized:
            raise RuntimeError("writer is already finalized")
        if self._buffered:
            self._cut_shard(self._buffered)
        manifest = {
            "format": STREAM_FORMAT,
            "rows_per_shard": self.rows_per_shard,
            "total_rows": self.rows_spilled,
            "schema": dict(TRACE_FIELD_KINDS),
            "fingerprint": self.fingerprint,
            "shards": self._shards,
            "meta": meta or {},
        }
        atomic_write_bytes(
            self.root / MANIFEST_NAME,
            (json.dumps(manifest, indent=2, sort_keys=True) + "\n"
             ).encode("utf-8"))
        pending_path = self.root / PENDING_NAME
        if pending_path.exists():
            pending_path.unlink()
        self._finalized = True
        return manifest


# ----------------------------------------------------------------------
class ShardedTraceReader:
    """Reads a v2 archive shard-by-shard; O(1) until blocks are pulled.

    Construction reads only the manifest.  :meth:`iter_blocks` streams
    one :class:`TraceColumns` per shard (checksum-verified by default),
    :meth:`load` materialises the whole dataset (small archives /
    tests), :meth:`verify` walks every shard without keeping any.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.manifest = read_stream_manifest(self.root)

    # -- O(1) views ----------------------------------------------------
    @property
    def total_rows(self) -> int:
        return int(self.manifest["total_rows"])

    @property
    def shard_count(self) -> int:
        return len(self.manifest["shards"])

    @property
    def meta(self) -> Dict[str, Any]:
        return self.manifest.get("meta", {})

    # -- streaming reads -----------------------------------------------
    def iter_blocks(self, verify: bool = True,
                    ) -> Iterator[TraceColumns]:
        for entry in self.manifest["shards"]:
            path = self.root / entry["name"]
            if verify:
                if not path.is_file():
                    raise TraceArchiveError(
                        f"{path}: shard file is missing")
                if sha256_file(path) != entry["sha256"]:
                    raise TraceArchiveError(
                        f"{path}: shard is truncated or corrupt "
                        f"(checksum mismatch)")
            block = _load_shard_block(path, SHARD_FORMAT)
            if block.n != int(entry["rows"]):
                raise TraceArchiveError(
                    f"{path}: manifest says {entry['rows']} rows, "
                    f"shard has {block.n}")
            yield block

    def verify(self) -> int:
        """Checksum + header check of every shard; returns row total."""
        rows = 0
        for block in self.iter_blocks(verify=True):
            rows += block.n
        if rows != self.total_rows:
            raise TraceArchiveError(
                f"{self.root}: manifest says {self.total_rows} rows, "
                f"shards hold {rows}")
        return rows

    def load(self, verify: bool = True) -> TraceDataset:
        """Materialise the archive (defeats streaming; small runs only)."""
        dataset = TraceDataset()
        for block in self.iter_blocks(verify=verify):
            dataset.extend(block)
        return dataset
