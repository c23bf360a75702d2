"""Dataset archival in the paper's release layout.

The paper publishes its traces as the *SINet* dataset (per-site files
plus metadata).  This module writes a simulated campaign in the same
shape — one traces file per site plus a JSON manifest — and loads such
an archive back, so analyses can run on archived data without
re-simulation.

Site files are text, in one of two formats recorded in the manifest:

``csv``
    Text, interoperable, one row per beacon (the original layout).
``jsonl``
    JSON lines; same row model, typed values.

Both are written by :func:`~satiot.groundstation.traces.write_text` and
are value-exact.  The compact binary archive is the sharded
``satiot-traces-v2`` layout (``--spill``, :mod:`satiot.streams`).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Tuple, Union

from .core.campaign import PassiveCampaignResult
from .core.sites import SITES
from .groundstation.traces import (TRACE_FORMATS, TraceColumns,
                                   TraceDataset, iter_sorted_chunks,
                                   write_text)

__all__ = ["DatasetManifest", "export_dataset", "load_dataset",
           "read_manifest"]

MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class DatasetManifest:
    """Top-level metadata of an archived campaign."""

    name: str
    seed: int
    days: float
    sites: Dict[str, int]            # site code -> trace count
    constellations: Dict[str, int]   # name -> satellite count
    total_traces: int
    #: On-disk format of the per-site trace files (csv or jsonl).
    trace_format: str = "csv"

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DatasetManifest":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("manifest is not a JSON object")
        # Archives written before the columnar data plane carry no
        # trace_format field; they are CSV by construction.
        data.setdefault("trace_format", "csv")
        return cls(**data)


def _site_traces_path(root: Path, code: str, fmt: str) -> Path:
    """Where a site's trace file lives in an archive of format ``fmt``."""
    return root / code / f"traces.{fmt}"


def _site_blocks(dataset: TraceDataset,
                 code: str) -> List[TraceColumns]:
    """Per-block site filter; row order matches a consolidated select."""
    blocks = []
    for block in dataset.blocks():
        mask = block.string_column("site").mask_eq(code)
        if mask.any():
            blocks.append(block.take(mask))
    return blocks


def _clear_previous_export(root: Path) -> None:
    """Remove an earlier export's manifest, then the site files it names.

    Files it does not name stay.  The manifest goes first, so an
    interrupted clear never leaves one naming missing files.  It is
    outside input: only known site codes and formats are followed, and
    an unreadable one names nothing.
    """
    path = root / MANIFEST_NAME
    try:
        text = path.read_text()
    except FileNotFoundError:
        return
    path.unlink()
    try:
        previous = DatasetManifest.from_json(text)
        site_files = [
            _site_traces_path(root, code, previous.trace_format)
            for code in previous.sites
            if code in SITES and previous.trace_format in TRACE_FORMATS]
    except (ValueError, TypeError):
        return
    for site_file in site_files:
        site_file.unlink(missing_ok=True)


def export_dataset(result: PassiveCampaignResult,
                   root: Union[str, Path],
                   name: str = "sinet-sim",
                   trace_format: str = "csv") -> DatasetManifest:
    """Write a campaign as ``root/<SITE>/traces.<fmt>`` + manifest.

    ``trace_format`` is ``csv`` or ``jsonl``.  Each site file streams
    through :func:`iter_sorted_chunks` without consolidating the
    campaign, and is byte-identical to
    ``dataset.by_site(code).sorted_by_time().save(path)``: per-block
    site filtering keeps the consolidated row order, and the chunks
    replay the same stable time sort.  An earlier export in ``root``
    is cleared first (:func:`_clear_previous_export`) and the manifest
    is written last.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    _clear_previous_export(root)
    site_counts: Dict[str, int] = {}
    for code in result.site_results:
        path = _site_traces_path(root, code, trace_format)
        path.parent.mkdir(exist_ok=True)
        site_counts[code] = write_text(
            iter_sorted_chunks(_site_blocks(result.dataset, code)),
            path, trace_format)

    manifest = DatasetManifest(
        name=name,
        seed=result.config.seed,
        days=result.config.days,
        sites=site_counts,
        constellations={c.name: len(c)
                        for c in result.constellations.values()},
        total_traces=result.total_traces,
        trace_format=trace_format,
    )
    (root / MANIFEST_NAME).write_text(manifest.to_json() + "\n")
    return manifest


def read_manifest(root: Union[str, Path]) -> DatasetManifest:
    """O(1) archive metadata: read only ``manifest.json``.

    Unlike :func:`load_dataset` this never opens a trace file, so it is
    fast regardless of archive size; callers that only need counts and
    format (``satiot dataset info``) should prefer it.
    """
    root = Path(root)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.exists():
        raise FileNotFoundError(f"no {MANIFEST_NAME} under {root}")
    return DatasetManifest.from_json(manifest_path.read_text())


def load_dataset(root: Union[str, Path],
                 ) -> Tuple[DatasetManifest, Dict[str, TraceDataset]]:
    """Load an archive written by :func:`export_dataset`.

    The manifest's ``trace_format`` names the site files' format; an
    ``npz`` one (a v1 binary archive) is refused with a pointer to
    ``--spill``.
    """
    root = Path(root)
    manifest = read_manifest(root)

    datasets: Dict[str, TraceDataset] = {}
    for code, expected in manifest.sites.items():
        path = _site_traces_path(root, code, manifest.trace_format)
        dataset = TraceDataset.load(path)
        if len(dataset) != expected:
            raise ValueError(
                f"site {code}: manifest says {expected} traces, "
                f"file has {len(dataset)}")
        datasets[code] = dataset
    return manifest, datasets
