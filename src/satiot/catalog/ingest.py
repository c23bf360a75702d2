"""Strict Celestrak-format (TLE/3LE) catalog file ingest.

Celestrak distributes catalogs as plain text: repeating ``name / line 1 /
line 2`` triples (3LE) or bare ``line 1 / line 2`` pairs (2LE), possibly
gzip-compressed.  This module reads such files **offline** — the repo
never fetches from the network; fixtures under ``tests/fixtures/`` and
synthesized dumps stand in for live catalogs.

This is the one TLE file reader, and it is *strict*: checksums are
verified, epochs validated, and any structural damage — orphan line 2,
two consecutive name lines, a dangling line 1 at EOF — raises
:class:`CatalogFormatError` carrying the 1-based line number, so a
corrupt thousand-satellite file points at the broken record instead of
silently dropping it.

The inverse direction (:func:`format_catalog` / :func:`write_catalog`)
renders element sets back to 2LE/3LE text, gzip-compressing by suffix
with a pinned mtime so identical fleets produce byte-identical dumps.
Everything the synthesizer or ``satiot tle --format 3le`` writes
re-ingests through this parser (the round-trip is tested).
"""

from __future__ import annotations

import gzip
import io
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator, List, Sequence, Union

from ..orbits.tle import TLE, TLEError, format_tle, parse_tle

__all__ = ["CatalogEntry", "CatalogFormatError", "format_catalog",
           "iter_catalog", "load_tles", "open_catalog", "read_catalog",
           "write_catalog"]

#: Recognized catalog serializations: named triples or bare pairs.
CATALOG_FORMATS = ("3le", "2le")


class CatalogFormatError(TLEError):
    """A structurally damaged catalog file, located by line number."""

    def __init__(self, lineno: int, reason: str,
                 source: str = "<stream>") -> None:
        self.lineno = lineno
        self.reason = reason
        self.source = source
        super().__init__(f"{source}:{lineno}: {reason}")


@dataclass(frozen=True)
class CatalogEntry:
    """One parsed element set plus its verbatim lines and location.

    The raw lines are what :class:`~satiot.catalog.db.TleDb` archives —
    storage round-trips bytes, not floats.
    """

    tle: TLE
    line1: str
    line2: str
    lineno: int  # 1-based line number of ``line1`` in the source
    #: ingest group (constellation/shell tag) — assigned by
    #: :meth:`~satiot.catalog.db.TleDb.insert`, empty for file reads
    group: str = ""

    @property
    def name(self) -> str:
        return self.tle.name

    @property
    def norad_id(self) -> int:
        return self.tle.norad_id

    @property
    def epoch_jd(self) -> float:
        return self.tle.epoch.jd


def _looks_like_element_line(line: str, digit: str) -> bool:
    return line.startswith(f"{digit} ") and len(line) >= 69


def open_catalog(path: Union[str, Path]) -> IO[str]:
    """Open a catalog file for text reading, gunzipping ``*.gz``."""
    path = Path(path)
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="ascii")
    return path.open("r", encoding="ascii")


def iter_catalog(lines: Iterable[str],
                 validate_checksum: bool = True,
                 source: str = "<stream>") -> Iterator[CatalogEntry]:
    """Yield :class:`CatalogEntry` from TLE/3LE text, strictly.

    Accepts mixed 2LE/3LE content (a record is a ``line 1``/``line 2``
    pair, optionally preceded by one name line).  Blank lines are
    allowed between records.  Anything else is an error located by line
    number: orphan ``line 2``, consecutive name lines, dangling name or
    ``line 1`` at EOF, checksum/epoch/field failures from
    :func:`~satiot.orbits.tle.parse_tle`.
    """
    pending_name = ""
    pending_name_lineno = 0
    pending_line1 = ""
    pending_line1_lineno = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip():
            if pending_line1:
                raise CatalogFormatError(
                    lineno, "blank line splits an element-set pair",
                    source)
            continue
        if pending_line1:
            if not _looks_like_element_line(line, "2"):
                raise CatalogFormatError(
                    lineno, f"expected line 2 after line 1 of object "
                            f"{pending_line1[2:7].strip()}, got "
                            f"{line[:24]!r}", source)
            try:
                tle = parse_tle(pending_line1, line, name=pending_name,
                                validate_checksum=validate_checksum)
            except CatalogFormatError:
                raise
            except TLEError as error:
                raise CatalogFormatError(
                    pending_line1_lineno, str(error), source) from error
            yield CatalogEntry(tle=tle, line1=pending_line1[:69],
                               line2=line[:69],
                               lineno=pending_line1_lineno)
            pending_name = ""
            pending_line1 = ""
            continue
        if _looks_like_element_line(line, "1"):
            pending_line1 = line
            pending_line1_lineno = lineno
            continue
        if _looks_like_element_line(line, "2"):
            raise CatalogFormatError(
                lineno, "orphan line 2 (no preceding line 1)", source)
        if pending_name:
            raise CatalogFormatError(
                lineno, f"consecutive name lines ({pending_name!r} then "
                        f"{line.strip()!r})", source)
        pending_name = line.strip()
        pending_name_lineno = lineno
    if pending_line1:
        raise CatalogFormatError(
            pending_line1_lineno, "dangling line 1 at end of file",
            source)
    if pending_name:
        raise CatalogFormatError(
            pending_name_lineno,
            f"dangling name line {pending_name!r} at end of file",
            source)


def read_catalog(path: Union[str, Path],
                 validate_checksum: bool = True) -> List[CatalogEntry]:
    """Read a (possibly gzip'd) catalog file into entries, strictly."""
    path = Path(path)
    with open_catalog(path) as fh:
        return list(iter_catalog(fh, validate_checksum=validate_checksum,
                                 source=path.name))


def load_tles(path: Union[str, Path],
              validate_checksum: bool = True) -> List[TLE]:
    """Read a catalog file and return just the element sets."""
    return [entry.tle for entry in
            read_catalog(path, validate_checksum=validate_checksum)]


# ----------------------------------------------------------------------
# Writers (the re-ingestable inverse)
# ----------------------------------------------------------------------
def format_catalog(tles: Sequence[TLE], fmt: str = "3le") -> List[str]:
    """Render element sets as 3LE (named) or 2LE catalog lines."""
    if fmt not in CATALOG_FORMATS:
        raise ValueError(f"unknown catalog format {fmt!r}; "
                         f"choose from {CATALOG_FORMATS}")
    lines: List[str] = []
    for tle in tles:
        line1, line2 = format_tle(tle)
        if fmt == "3le":
            lines.append(tle.name)
        lines.extend([line1, line2])
    return lines


def write_catalog(tles: Sequence[TLE], path: Union[str, Path],
                  fmt: str = "3le") -> int:
    """Write element sets to a catalog file (gzip'd iff ``*.gz``).

    Gzip output pins ``mtime=0`` and omits the embedded filename so
    equal fleets give byte-identical files regardless of where they are
    written — the property the committed test fixture and the
    synthesizer determinism tests rely on.  Returns the number of
    element sets written.
    """
    path = Path(path)
    text = "\n".join(format_catalog(tles, fmt=fmt)) + "\n"
    if path.suffix == ".gz":
        with path.open("wb") as raw, \
                gzip.GzipFile(filename="", fileobj=raw, mode="wb",
                              mtime=0) as fh:
            fh.write(text.encode("ascii"))
    else:
        path.write_text(text, encoding="ascii")
    return len(tles)
