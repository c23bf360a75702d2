"""Columnar packet-trace storage and dataset I/O.

A :class:`BeaconTrace` mirrors one row of the paper's passive dataset:
timestamp, RSSI, SNR and sender-satellite metadata extracted from a
received beacon (Section 2.2).  Since PR 2 the data plane is *columnar*:
traces live in :class:`TraceColumns` blocks — one flat NumPy array per
field plus small string-interning tables for the categorical columns —
and :class:`TraceDataset` is a container of such blocks with vectorized
filtering, zero-copy slicing and array-concatenation merge.

:class:`BeaconTrace` remains the row-level value type; datasets
materialise it lazily on ``__iter__``/``__getitem__`` so every historic
call site keeps working, but producers and the analysis layers never
touch per-row Python objects on the hot path.

Datasets serialise to CSV and JSON lines (text, interoperable,
value-exact) through one writer, :func:`write_text`, so campaigns can be
archived and re-analysed without re-simulation.  The binary archive is
the sharded ``satiot-traces-v2`` layout of :mod:`satiot.streams`.

Determinism contract
--------------------
Column blocks merge by pure array concatenation, and string tables are
always interned in *first-appearance order of the concatenated row
stream*.  Interning is therefore a pure function of the row sequence:
serial, parallel and site-subset campaign runs produce bit-identical
columns — codes and tables included — for the rows they share.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Tuple, Union)

import numpy as np

__all__ = ["BeaconTrace", "StringColumn", "TraceColumns", "TraceDataset",
           "TRACE_FIELD_KINDS", "TRACE_FORMATS", "iter_sorted_chunks",
           "write_text"]

#: Text formats a dataset saves to and loads from.
TRACE_FORMATS = ("csv", "jsonl")


# ======================================================================
# Row value type
# ======================================================================
@dataclass(frozen=True)
class BeaconTrace:
    """One received beacon, as logged by a ground station.

    This is a *value type*: datasets store columns, not objects, and
    materialise ``BeaconTrace`` rows lazily when iterated or indexed.
    """

    time_s: float              # seconds since campaign start
    station_id: str
    site: str
    constellation: str
    satellite: str
    norad_id: int
    frequency_hz: float
    rssi_dbm: float
    snr_db: float
    elevation_deg: float
    azimuth_deg: float
    range_km: float
    doppler_hz: float
    raining: bool
    #: Shard-invariant pass identifier ``"{site}-{norad}-{k}"`` where
    #: ``k`` is the per-(site, satellite) pass index.  Running any
    #: subset of sites yields identical ids for the shared sites.
    pass_id: str

    def to_row(self) -> dict:
        return asdict(self)

    @classmethod
    def from_row(cls, row: Mapping) -> "BeaconTrace":
        """Build a trace from a mapping of column name to raw value.

        Conversion uses the explicit per-field converter map (see
        :data:`TRACE_FIELD_KINDS`); a missing column raises
        :class:`KeyError`, an unconvertible value raises
        :class:`ValueError` naming the offending field, and columns not
        in the schema are ignored (forward compatibility with files
        that carry extra columns).
        """
        kwargs = {}
        for name, kind in TRACE_FIELD_KINDS.items():
            if name not in row:
                raise KeyError(f"trace row is missing column {name!r}")
            try:
                kwargs[name] = _CONVERTERS[kind](row[name])
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"trace column {name!r}: cannot convert "
                    f"{row[name]!r} to {kind}") from exc
        return cls(**kwargs)


# ----------------------------------------------------------------------
# Explicit schema: field name -> column kind.  This is the single source
# of truth for converters, column dtypes and archive layouts; a
# dataclass field without a kind (or vice versa) fails loudly at import.
# ----------------------------------------------------------------------
TRACE_FIELD_KINDS: Dict[str, str] = {
    "time_s": "f8",
    "station_id": "str",
    "site": "str",
    "constellation": "str",
    "satellite": "str",
    "norad_id": "i8",
    "frequency_hz": "f8",
    "rssi_dbm": "f8",
    "snr_db": "f8",
    "elevation_deg": "f8",
    "azimuth_deg": "f8",
    "range_km": "f8",
    "doppler_hz": "f8",
    "raining": "bool",
    "pass_id": "str",
}

_TRUE_LITERALS = frozenset(("true", "1"))
_FALSE_LITERALS = frozenset(("false", "0"))


def _to_bool(value) -> bool:
    """Strict bool conversion: no silent default for unknown literals."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)) and value in (0, 1):
        return bool(value)
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in _TRUE_LITERALS:
            return True
        if lowered in _FALSE_LITERALS:
            return False
    raise ValueError(f"not a boolean literal: {value!r}")


_CONVERTERS: Dict[str, Callable] = {
    "f8": float,
    "i8": int,
    "bool": _to_bool,
    "str": str,
}

_FIELD_ORDER: Tuple[str, ...] = tuple(TRACE_FIELD_KINDS)
_NUMERIC_DTYPES = {"f8": np.float64, "i8": np.int64, "bool": np.bool_}
NUMERIC_FIELDS: Tuple[str, ...] = tuple(
    n for n, k in TRACE_FIELD_KINDS.items() if k != "str")
STRING_FIELDS: Tuple[str, ...] = tuple(
    n for n, k in TRACE_FIELD_KINDS.items() if k == "str")

_declared = tuple(f.name for f in fields(BeaconTrace))
if _declared != _FIELD_ORDER:  # pragma: no cover - import-time guard
    raise RuntimeError(
        "BeaconTrace fields and TRACE_FIELD_KINDS diverged: "
        f"{_declared} vs {_FIELD_ORDER}")


# ======================================================================
# String interning
# ======================================================================
class StringColumn:
    """A categorical column: ``int32`` codes into a small string table.

    The table is interned in first-appearance order of the values, which
    makes the encoding a pure function of the value sequence (the
    determinism contract relies on this).

    ``canonical`` records whether the encoding is already known to be in
    that first-appearance form with no unused table entries.  Columns
    built by :meth:`from_values`, :meth:`full` and :meth:`concat` are
    canonical by construction; :meth:`take`/:meth:`slice` subsets may
    not be (they share the parent table).  The flag is a pure
    optimisation — :meth:`concat` and :meth:`canonicalized` use it to
    skip the ``np.unique`` re-interning scan on the hot merge path.
    """

    __slots__ = ("codes", "table", "canonical")

    def __init__(self, codes: np.ndarray, table: Sequence[str],
                 canonical: bool = False) -> None:
        self.codes = np.asarray(codes, dtype=np.int32)
        self.table: Tuple[str, ...] = tuple(table)
        self.canonical = bool(canonical)

    # -- construction --------------------------------------------------
    @classmethod
    def from_values(cls, values: Iterable[str]) -> "StringColumn":
        index: Dict[str, int] = {}
        codes: List[int] = []
        for value in values:
            code = index.get(value)
            if code is None:
                code = len(index)
                index[value] = code
            codes.append(code)
        return cls(np.asarray(codes, dtype=np.int32), tuple(index),
                   canonical=True)

    @classmethod
    def full(cls, n: int, value: str) -> "StringColumn":
        """A column of ``n`` identical values (one interned entry)."""
        if n == 0:
            return cls(np.empty(0, dtype=np.int32), (), canonical=True)
        return cls(np.zeros(n, dtype=np.int32), (str(value),),
                   canonical=True)

    # -- basics --------------------------------------------------------
    def __len__(self) -> int:
        return int(self.codes.size)

    def decode(self, i: int) -> str:
        return self.table[self.codes[i]]

    def values(self) -> np.ndarray:
        """Decoded values as an object array (exact Python strings)."""
        if not self.table:
            return np.empty(len(self), dtype=object)
        lut = np.empty(len(self.table), dtype=object)
        lut[:] = self.table
        return lut[self.codes]

    def present(self) -> List[str]:
        """Distinct values actually referenced by the codes."""
        return [self.table[k] for k in np.unique(self.codes)]

    # -- vectorized ops ------------------------------------------------
    def mask_eq(self, value: str, casefold: bool = False) -> np.ndarray:
        """Boolean mask of rows equal to ``value`` (O(table) + O(n))."""
        if casefold:
            value = value.lower()
            hits = [k for k, s in enumerate(self.table)
                    if s.lower() == value]
        else:
            hits = [k for k, s in enumerate(self.table) if s == value]
        if not hits:
            return np.zeros(len(self), dtype=bool)
        if len(hits) == 1:
            return self.codes == hits[0]
        return np.isin(self.codes, np.asarray(hits, dtype=np.int32))

    def map_table(self, fn: Callable[[str], str]) -> "StringColumn":
        """Same codes, every table entry transformed by ``fn``.

        Canonicality survives only for injective transforms (first-
        appearance order is preserved, and no two entries collapse);
        the longitudinal spill path uses this to prefix per-week pass
        ids — an injective transform by construction.
        """
        return StringColumn(self.codes,
                            tuple(fn(value) for value in self.table),
                            canonical=self.canonical)

    def take(self, indices) -> "StringColumn":
        """Row subset; the table is shared, codes are gathered."""
        return StringColumn(self.codes[indices], self.table)

    def slice(self, sl: slice) -> "StringColumn":
        """Zero-copy row range (codes are a NumPy view)."""
        return StringColumn(self.codes[sl], self.table)

    # -- merge ---------------------------------------------------------
    @staticmethod
    def concat(columns: Sequence["StringColumn"]) -> "StringColumn":
        """Concatenate, re-interning canonically.

        The output table is ordered by first appearance in the
        concatenated row stream (absent table entries are dropped), so
        the result depends only on the merged value sequence — never on
        how rows were blocked before the merge.

        Already-canonical inputs (the common case: receiver blocks and
        prior merges) skip the first-appearance scan entirely — their
        table order *is* the first-appearance order — so merging per-pass
        blocks costs one table remap plus one array concatenation.
        """
        columns = [col for col in columns if len(col)]
        if not columns:
            return StringColumn(np.empty(0, dtype=np.int32), (),
                                canonical=True)
        if len(columns) == 1 and columns[0].canonical:
            return columns[0]
        table: List[str] = []
        index: Dict[str, int] = {}
        out: List[np.ndarray] = []
        for col in columns:
            lut = np.empty(len(col.table), dtype=np.int32)
            if col.canonical:
                # Canonical ⇒ every table entry appears, in
                # first-appearance order already.
                order: Iterable[int] = range(len(col.table))
            else:
                uniq, first = np.unique(col.codes, return_index=True)
                order = uniq[np.argsort(first, kind="stable")]
            for k in order:
                value = col.table[k]
                code = index.get(value)
                if code is None:
                    code = len(index)
                    index[value] = code
                    table.append(value)
                lut[k] = code
            out.append(lut[col.codes])
        merged = np.concatenate(out) if len(out) > 1 else out[0]
        return StringColumn(merged, tuple(table), canonical=True)

    def canonicalized(self) -> "StringColumn":
        """Re-intern in first-appearance order, dropping unused entries."""
        return StringColumn.concat([self])

    def equals(self, other: "StringColumn") -> bool:
        """Exact value equality (codes/tables may differ in encoding)."""
        if len(self) != len(other):
            return False
        if self.table == other.table:
            return bool(np.array_equal(self.codes, other.codes))
        return bool(np.array_equal(self.values(), other.values()))

    @property
    def nbytes(self) -> int:
        return int(self.codes.nbytes
                   + sum(len(s.encode("utf-8")) for s in self.table))


# ======================================================================
# Column block
# ======================================================================
class TraceColumns:
    """One immutable columnar block of beacon traces.

    Numeric fields are flat NumPy arrays (``f8``/``i8``/``bool``);
    categorical fields are :class:`StringColumn`.  Blocks support
    vectorized masking, gather (:meth:`take`), zero-copy range slicing
    and canonical concatenation — everything :class:`TraceDataset`
    builds on.
    """

    __slots__ = ("_numeric", "_strings", "_n")

    def __init__(self, numeric: Dict[str, np.ndarray],
                 strings: Dict[str, StringColumn], n: int) -> None:
        self._numeric = numeric
        self._strings = strings
        self._n = int(n)

    # -- construction --------------------------------------------------
    @classmethod
    def empty(cls) -> "TraceColumns":
        numeric = {name: np.empty(0, dtype=_NUMERIC_DTYPES[kind])
                   for name, kind in TRACE_FIELD_KINDS.items()
                   if kind != "str"}
        strings = {name: StringColumn(np.empty(0, dtype=np.int32), ())
                   for name in STRING_FIELDS}
        return cls(numeric, strings, 0)

    @classmethod
    def from_rows(cls, traces: Iterable[BeaconTrace]) -> "TraceColumns":
        rows = list(traces)
        if not rows:
            return cls.empty()
        numeric = {
            name: np.asarray([getattr(t, name) for t in rows],
                             dtype=_NUMERIC_DTYPES[TRACE_FIELD_KINDS[name]])
            for name in NUMERIC_FIELDS}
        strings = {
            name: StringColumn.from_values(getattr(t, name) for t in rows)
            for name in STRING_FIELDS}
        return cls(numeric, strings, len(rows))

    @classmethod
    def from_arrays(cls, n: Optional[int] = None,
                    **columns) -> "TraceColumns":
        """Build a block from per-column data.

        Numeric fields accept an array or a scalar (broadcast); string
        fields accept a :class:`StringColumn`, a single string
        (broadcast) or a sequence of strings.  Every schema field must
        be provided.
        """
        missing = [f for f in _FIELD_ORDER if f not in columns]
        if missing:
            raise ValueError(f"missing trace columns: {missing}")
        extra = [f for f in columns if f not in TRACE_FIELD_KINDS]
        if extra:
            raise ValueError(f"unknown trace columns: {extra}")

        if n is None:
            for name in _FIELD_ORDER:
                value = columns[name]
                if isinstance(value, StringColumn):
                    n = len(value)
                    break
                if isinstance(value, np.ndarray):
                    n = int(value.shape[0])
                    break
                if isinstance(value, (list, tuple)):
                    n = len(value)
                    break
            if n is None:
                raise ValueError("cannot infer row count from scalars; "
                                 "pass n explicitly")

        numeric: Dict[str, np.ndarray] = {}
        for name in NUMERIC_FIELDS:
            dtype = _NUMERIC_DTYPES[TRACE_FIELD_KINDS[name]]
            value = columns[name]
            if np.ndim(value) == 0:
                array = np.full(n, value, dtype=dtype)
            else:
                array = np.ascontiguousarray(value, dtype=dtype)
            if array.shape != (n,):
                raise ValueError(f"column {name!r}: expected shape "
                                 f"({n},), got {array.shape}")
            numeric[name] = array

        strings: Dict[str, StringColumn] = {}
        for name in STRING_FIELDS:
            value = columns[name]
            if isinstance(value, StringColumn):
                col = value
            elif isinstance(value, str) or np.ndim(value) == 0:
                col = StringColumn.full(n, str(value))
            else:
                col = StringColumn.from_values(str(v) for v in value)
            if len(col) != n:
                raise ValueError(f"column {name!r}: expected {n} rows, "
                                 f"got {len(col)}")
            strings[name] = col
        return cls(numeric, strings, n)

    # -- basics --------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    @property
    def n(self) -> int:
        return self._n

    def row(self, i: int) -> BeaconTrace:
        """Materialise one row as a :class:`BeaconTrace` value."""
        kwargs = {}
        for name, kind in TRACE_FIELD_KINDS.items():
            if kind == "str":
                kwargs[name] = self._strings[name].decode(i)
            elif kind == "bool":
                kwargs[name] = bool(self._numeric[name][i])
            elif kind == "i8":
                kwargs[name] = int(self._numeric[name][i])
            else:
                kwargs[name] = float(self._numeric[name][i])
        return BeaconTrace(**kwargs)

    def column(self, name: str) -> np.ndarray:
        """Decoded column values (numeric array, or object array of str)."""
        if name in self._numeric:
            return self._numeric[name]
        if name in self._strings:
            return self._strings[name].values()
        raise KeyError(f"unknown trace column {name!r}")

    def string_column(self, name: str) -> StringColumn:
        return self._strings[name]

    # -- vectorized ops ------------------------------------------------
    def take(self, indices) -> "TraceColumns":
        """Gather rows by boolean mask or integer indices."""
        indices = np.asarray(indices)
        if indices.dtype == bool:
            if indices.shape != (self._n,):
                raise ValueError("boolean mask has wrong length")
            indices = np.nonzero(indices)[0]
        numeric = {k: v[indices] for k, v in self._numeric.items()}
        strings = {k: v.take(indices) for k, v in self._strings.items()}
        return TraceColumns(numeric, strings, int(indices.size))

    def slice(self, sl: slice) -> "TraceColumns":
        """Zero-copy contiguous row range (NumPy views throughout)."""
        start, stop, step = sl.indices(self._n)
        if step != 1:
            return self.take(np.arange(start, stop, step))
        numeric = {k: v[start:stop] for k, v in self._numeric.items()}
        strings = {k: v.slice(slice(start, stop))
                   for k, v in self._strings.items()}
        return TraceColumns(numeric, strings, max(stop - start, 0))

    def replace(self, **columns) -> "TraceColumns":
        """New block with the named columns substituted (rest shared).

        Numeric fields take an array of the block's length; string
        fields take a :class:`StringColumn`.  Used by streaming
        producers to rebase ``time_s`` / re-key ``pass_id`` without
        copying the untouched columns.
        """
        numeric = dict(self._numeric)
        strings = dict(self._strings)
        for name, value in columns.items():
            if name in numeric:
                array = np.ascontiguousarray(
                    value,
                    dtype=_NUMERIC_DTYPES[TRACE_FIELD_KINDS[name]])
                if array.shape != (self._n,):
                    raise ValueError(
                        f"column {name!r}: expected shape "
                        f"({self._n},), got {array.shape}")
                numeric[name] = array
            elif name in strings:
                if not isinstance(value, StringColumn):
                    raise TypeError(
                        f"column {name!r} needs a StringColumn")
                if len(value) != self._n:
                    raise ValueError(
                        f"column {name!r}: expected {self._n} rows, "
                        f"got {len(value)}")
                strings[name] = value
            else:
                raise KeyError(f"unknown trace column {name!r}")
        return TraceColumns(numeric, strings, self._n)

    def argsort_time(self) -> np.ndarray:
        return np.argsort(self._numeric["time_s"], kind="stable")

    @staticmethod
    def concat(blocks: Sequence["TraceColumns"]) -> "TraceColumns":
        """Merge blocks by array concatenation (canonical interning)."""
        blocks = [b for b in blocks if b.n]
        if not blocks:
            return TraceColumns.empty()
        if len(blocks) == 1:
            # Adopt the block as-is: a filtered view keeps its shared
            # (possibly non-canonical) tables until explicitly
            # normalised via canonicalized().  Multi-block merges below
            # always re-intern canonically.
            return blocks[0]
        numeric = {name: np.concatenate([b._numeric[name] for b in blocks])
                   for name in NUMERIC_FIELDS}
        strings = {name: StringColumn.concat([b._strings[name]
                                              for b in blocks])
                   for name in STRING_FIELDS}
        return TraceColumns(numeric, strings, sum(b.n for b in blocks))

    def canonicalized(self) -> "TraceColumns":
        """Same rows, string tables re-interned canonically."""
        strings = {k: v.canonicalized() for k, v in self._strings.items()}
        return TraceColumns(dict(self._numeric), strings, self._n)

    def equals(self, other: "TraceColumns") -> bool:
        """Exact value equality, column by column."""
        if self._n != other._n:
            return False
        return (all(np.array_equal(self._numeric[k], other._numeric[k])
                    for k in NUMERIC_FIELDS)
                and all(self._strings[k].equals(other._strings[k])
                        for k in STRING_FIELDS))

    @property
    def nbytes(self) -> int:
        """Approximate in-memory footprint of the column data."""
        return int(sum(a.nbytes for a in self._numeric.values())
                   + sum(c.nbytes for c in self._strings.values()))


# ======================================================================
# Dataset
# ======================================================================
class TraceDataset:
    """An append-only columnar collection of beacon traces.

    Internally a list of :class:`TraceColumns` blocks (plus a small
    pending-row buffer for :meth:`append`) that consolidates lazily into
    one block on first columnar access.  Merging datasets or blocks is
    O(1) until consolidation; filters and sorts are vectorized; slicing
    is zero-copy.
    """

    def __init__(self, traces: Union[None, Iterable[BeaconTrace],
                                     "TraceDataset", TraceColumns] = None,
                 ) -> None:
        self._blocks: List[TraceColumns] = []
        self._pending: List[BeaconTrace] = []
        self._cache: Optional[TraceColumns] = None
        if traces is not None:
            self.extend(traces)

    # -- construction --------------------------------------------------
    @classmethod
    def from_columns(cls, block: TraceColumns) -> "TraceDataset":
        return cls(block)

    # -- mutation ------------------------------------------------------
    def append(self, trace: BeaconTrace) -> None:
        self._pending.append(trace)
        self._cache = None

    def extend(self, traces: Union[Iterable[BeaconTrace], "TraceDataset",
                                   TraceColumns]) -> None:
        """Add rows; block-backed inputs are adopted without row work."""
        if isinstance(traces, TraceColumns):
            if traces.n:
                self._blocks.append(traces)
        elif isinstance(traces, TraceDataset):
            self._blocks.extend(b for b in traces._blocks if b.n)
            self._pending.extend(traces._pending)
        else:
            self._pending.extend(traces)
        self._cache = None

    # -- consolidation -------------------------------------------------
    @property
    def columns(self) -> TraceColumns:
        """The consolidated column block (computed once, then cached)."""
        if self._cache is None:
            blocks = list(self._blocks)
            if self._pending:
                blocks.append(TraceColumns.from_rows(self._pending))
            self._cache = TraceColumns.concat(blocks)
            self._blocks = [self._cache] if self._cache.n else []
            self._pending = []
        return self._cache

    def blocks(self) -> Iterator[TraceColumns]:
        """Yield the underlying column blocks *without* consolidating.

        Row order matches :attr:`columns` (blocks in arrival order,
        pending rows last), so streaming consumers — text export, the
        sharded spill writer — see exactly the rows a consolidated walk
        would, while peak memory stays one block instead of the whole
        dataset.
        """
        if self._cache is not None:
            if self._cache.n:
                yield self._cache
            return
        for block in self._blocks:
            if block.n:
                yield block
        if self._pending:
            yield TraceColumns.from_rows(self._pending)

    def column(self, name: str) -> np.ndarray:
        return self.columns.column(name)

    # -- sequence protocol --------------------------------------------
    def __len__(self) -> int:
        return (sum(b.n for b in self._blocks) + len(self._pending)
                if self._cache is None else self._cache.n)

    def __iter__(self) -> Iterator[BeaconTrace]:
        block = self.columns
        for i in range(block.n):
            yield block.row(i)

    def __getitem__(self, idx: Union[int, slice]
                    ) -> Union[BeaconTrace, "TraceDataset"]:
        block = self.columns
        if isinstance(idx, slice):
            return TraceDataset(block.slice(idx))
        return block.row(int(idx))

    def __eq__(self, other) -> bool:
        if isinstance(other, TraceDataset):
            return self.columns.equals(other.columns)
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    __hash__ = None  # mutable container

    def __repr__(self) -> str:
        return f"TraceDataset({len(self)} traces)"

    # -- vectorized queries -------------------------------------------
    def select(self, mask_or_indices) -> "TraceDataset":
        """Row subset by boolean mask or integer index array."""
        return TraceDataset(self.columns.take(mask_or_indices))

    def filter(self, predicate: Callable[[BeaconTrace], bool],
               ) -> "TraceDataset":
        """Row-predicate filter (compatibility path).

        Prefer :meth:`select` with a vectorized mask on hot paths; this
        materialises each row to evaluate the predicate.
        """
        block = self.columns
        mask = np.fromiter((bool(predicate(block.row(i)))
                            for i in range(block.n)),
                           dtype=bool, count=block.n)
        return self.select(mask)

    def by_constellation(self, name: str) -> "TraceDataset":
        mask = self.columns.string_column("constellation") \
            .mask_eq(name, casefold=True)
        return self.select(mask)

    def by_site(self, site: str) -> "TraceDataset":
        return self.select(
            self.columns.string_column("site").mask_eq(site))

    def by_satellite(self, norad_id: int) -> "TraceDataset":
        return self.select(self.column("norad_id") == int(norad_id))

    def by_pass(self, pass_id: str) -> "TraceDataset":
        return self.select(
            self.columns.string_column("pass_id").mask_eq(pass_id))

    def sites(self) -> List[str]:
        return sorted(self.columns.string_column("site").present())

    def constellations(self) -> List[str]:
        return sorted(
            self.columns.string_column("constellation").present())

    def pass_ids(self) -> List[str]:
        return sorted(self.columns.string_column("pass_id").present())

    def sorted_by_time(self) -> "TraceDataset":
        block = self.columns
        return TraceDataset(block.take(block.argsort_time()))

    @property
    def nbytes(self) -> int:
        return self.columns.nbytes

    # ------------------------------------------------------------------
    # Text formats (interoperable; value-exact via repr round-tripping)
    # ------------------------------------------------------------------
    def to_csv(self, path: Union[str, Path]) -> None:
        write_text(self.blocks(), path, "csv")

    @classmethod
    def from_csv(cls, path: Union[str, Path]) -> "TraceDataset":
        return cls(_read_text(path, "csv"))

    def to_jsonl(self, path: Union[str, Path]) -> None:
        write_text(self.blocks(), path, "jsonl")

    @classmethod
    def from_jsonl(cls, path: Union[str, Path]) -> "TraceDataset":
        return cls(_read_text(path, "jsonl"))

    def save(self, path: Union[str, Path],
             trace_format: Optional[str] = None) -> str:
        """Write in the named format (inferred from suffix by default)."""
        fmt = _text_format(path, trace_format)
        write_text(self.blocks(), path, fmt)
        return fmt

    @classmethod
    def load(cls, path: Union[str, Path],
             trace_format: Optional[str] = None) -> "TraceDataset":
        """Read a file written by :meth:`save` (suffix auto-detect)."""
        return cls(_read_text(path, _text_format(path, trace_format)))


def write_text(blocks: Iterable[TraceColumns], path: Union[str, Path],
               trace_format: str) -> int:
    """Write column blocks to ``path`` as CSV or JSON lines.

    The one text writer: :meth:`TraceDataset.save` hands it the
    dataset's blocks, the SINet exporter a site's time-sorted chunks.
    Blocks are decoded one at a time, so peak memory is one block's
    decoded columns however long the stream.  Returns the row count.
    """
    fmt = _text_format(path, trace_format)
    rows = 0
    with Path(path).open("w", newline="") as fh:
        if fmt == "csv":
            writer = csv.DictWriter(fh, fieldnames=list(_FIELD_ORDER))
            writer.writeheader()
            emit = writer.writerow
        else:
            def emit(row: dict) -> None:
                fh.write(json.dumps(row) + "\n")
        for block in blocks:
            for row in _block_text_rows(block):
                emit(row)
            rows += block.n
    return rows


def iter_sorted_chunks(blocks: Sequence[TraceColumns],
                       chunk_rows: int = 65536,
                       ) -> Iterator[TraceColumns]:
    """Yield the blocks' rows in global stable time order, chunked.

    Equivalent to ``TraceColumns.concat(blocks).take(argsort_time())``
    sliced into ``chunk_rows`` pieces — the row sequence is identical
    (stable argsort over the concatenated time column) — but only one
    ``float64`` time column plus one chunk is ever materialised, so
    streaming exporters stay at O(rows × 8 bytes) instead of the full
    ~15-column dataset.
    """
    if chunk_rows <= 0:
        raise ValueError("chunk_rows must be positive")
    blocks = [b for b in blocks if b.n]
    if not blocks:
        return
    times = np.concatenate([b._numeric["time_s"] for b in blocks])
    order = np.argsort(times, kind="stable")
    del times
    offsets = np.cumsum([0] + [b.n for b in blocks])
    luts: Dict[Tuple[int, str], np.ndarray] = {}

    def _lut(b_i: int, name: str) -> np.ndarray:
        key = (b_i, name)
        if key not in luts:
            table = blocks[b_i]._strings[name].table
            lut = np.empty(len(table), dtype=object)
            lut[:] = table
            luts[key] = lut
        return luts[key]

    for start in range(0, order.size, chunk_rows):
        idx = order[start:start + chunk_rows]
        owner = np.searchsorted(offsets, idx, side="right") - 1
        local = idx - offsets[owner]
        numeric: Dict[str, np.ndarray] = {}
        for name in NUMERIC_FIELDS:
            out = np.empty(
                idx.size,
                dtype=_NUMERIC_DTYPES[TRACE_FIELD_KINDS[name]])
            for b_i in np.unique(owner):
                mask = owner == b_i
                out[mask] = blocks[b_i]._numeric[name][local[mask]]
            numeric[name] = out
        strings: Dict[str, StringColumn] = {}
        for name in STRING_FIELDS:
            out = np.empty(idx.size, dtype=object)
            for b_i in np.unique(owner):
                mask = owner == b_i
                codes = blocks[b_i]._strings[name].codes[local[mask]]
                out[mask] = _lut(b_i, name)[codes]
            strings[name] = StringColumn.from_values(out)
        yield TraceColumns(numeric, strings, idx.size)


def _text_format(path: Union[str, Path],
                 trace_format: Optional[str]) -> str:
    """The named format, else the one ``path``'s suffix implies (CSV).

    A ``.npz`` path is refused: single-file NPZ trace archives (v1)
    are neither written nor read; the binary format is the sharded
    ``satiot-traces-v2`` archive.
    """
    suffix = Path(path).suffix.lower()
    if suffix == ".npz" or trace_format == "npz":
        raise ValueError(
            f"{path}: single-file NPZ trace archives (v1) are no longer "
            f"written or read; spill a sharded satiot-traces-v2 archive "
            f"with --spill and read it with "
            f"satiot.streams.ShardedTraceReader")
    fmt = trace_format or (
        "jsonl" if suffix in (".jsonl", ".json", ".ndjson") else "csv")
    if fmt not in TRACE_FORMATS:
        raise ValueError(f"unknown trace format {fmt!r}; "
                         f"choose from {TRACE_FORMATS}")
    return fmt


def _block_text_rows(block: TraceColumns) -> Iterator[dict]:
    """Decode one column block into text-format row dicts."""
    decoded = {name: block.column(name) for name in _FIELD_ORDER}
    raining = decoded["raining"]
    for i in range(block.n):
        row = {}
        for name, kind in TRACE_FIELD_KINDS.items():
            if kind == "f8":
                row[name] = float(decoded[name][i])
            elif kind == "i8":
                row[name] = int(decoded[name][i])
            elif kind == "bool":
                row[name] = bool(raining[i])
            else:
                row[name] = decoded[name][i]
        yield row


def _read_text(path: Union[str, Path], fmt: str) -> TraceColumns:
    """Columns of a CSV or JSON-lines file written by :func:`write_text`."""
    lists: Dict[str, List] = {name: [] for name in _FIELD_ORDER}
    with Path(path).open(newline="") as fh:
        rows = (csv.DictReader(fh) if fmt == "csv" else
                (json.loads(line) for line in fh if line.strip()))
        for row in rows:
            for name in _FIELD_ORDER:
                lists[name].append(row[name])
    return _block_from_text_columns(lists, parse_bool=fmt == "csv")


def _block_from_text_columns(lists: Dict[str, List],
                             parse_bool: bool) -> TraceColumns:
    """Columns from per-field value lists read out of CSV/JSONL."""
    n = len(lists["time_s"])
    columns: Dict[str, object] = {}
    for name, kind in TRACE_FIELD_KINDS.items():
        values = lists[name]
        if kind == "bool" and parse_bool:
            columns[name] = np.asarray(
                [_to_bool(v) for v in values], dtype=np.bool_)
        elif kind == "str":
            columns[name] = StringColumn.from_values(
                str(v) for v in values)
        else:
            # NumPy parses numeric strings directly (value-exact for
            # repr-formatted floats).
            columns[name] = np.asarray(
                values, dtype=_NUMERIC_DTYPES[kind])
    return TraceColumns.from_arrays(n=n, **columns)
