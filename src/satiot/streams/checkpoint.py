"""Incremental checkpoint/resume state for spilled campaigns.

After every spilled week the campaign persists a small JSON checkpoint
next to the shard archive: which weeks are done, their accumulated
samples and loss counters, and the spill writer's state (shard
inventory + partial-shard buffer pointer).  A crash — including a
``SIGKILL`` between a shard landing on disk and the checkpoint
recording it — resumes from the last checkpoint and replays only the
missing weeks.

Two properties make resume byte-exact rather than merely approximate:

* every week is a pure function of ``(config, seed + week)`` — there is
  no RNG stream that crosses week boundaries, so "resume from week k"
  and "run week k" are the same computation;
* shard boundaries and shard bytes are pure functions of the row
  stream (:mod:`satiot.streams.spill`), so rewriting a
  crash-orphaned shard reproduces it bit-for-bit.

Floats round-trip exactly through JSON (``repr`` of a float64 is
value-exact), so checkpointed statistics equal their in-memory
originals to the last bit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..core.contacts import ContactWindowStats
from ..core.longitudinal import WeeklySample
from .npzio import atomic_write_bytes

__all__ = ["CHECKPOINT_FORMAT", "CHECKPOINT_NAME", "campaign_fingerprint",
           "save_checkpoint", "load_checkpoint", "clear_checkpoint",
           "sample_to_state", "sample_from_state"]

CHECKPOINT_FORMAT = "satiot-streams-checkpoint-v1"
CHECKPOINT_NAME = "checkpoint.json"


def campaign_fingerprint(params: Dict[str, Any]) -> str:
    """Stable digest of the campaign parameters that define its output.

    A checkpoint (or completed archive) only resumes a run with the
    *same* fingerprint — changing any parameter that affects the trace
    stream invalidates prior state instead of silently mixing runs.
    """
    canonical = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def sample_to_state(sample: WeeklySample) -> Dict[str, Any]:
    return asdict(sample)


def sample_from_state(state: Dict[str, Any]) -> WeeklySample:
    stats = {
        name: ContactWindowStats(**stat)
        for name, stat in state["stats_by_constellation"].items()}
    return WeeklySample(
        week=int(state["week"]),
        start_day_offset=float(state["start_day_offset"]),
        traces=int(state["traces"]),
        stats_by_constellation=stats)


def _checkpoint_path(root: Union[str, Path]) -> Path:
    return Path(root) / CHECKPOINT_NAME


def save_checkpoint(root: Union[str, Path],
                    state: Dict[str, Any]) -> None:
    """Atomically persist the campaign state under the spill root."""
    payload = dict(state)
    payload["format"] = CHECKPOINT_FORMAT
    atomic_write_bytes(
        _checkpoint_path(root),
        (json.dumps(payload, indent=2, sort_keys=True) + "\n"
         ).encode("utf-8"))


def load_checkpoint(root: Union[str, Path],
                    fingerprint: Optional[str] = None,
                    ) -> Optional[Dict[str, Any]]:
    """Load the checkpoint, or ``None`` when there is nothing to resume.

    A checkpoint whose fingerprint does not match ``fingerprint`` (when
    given) raises — resuming a differently-parameterised run would
    corrupt the archive silently, which is strictly worse than failing.
    """
    path = _checkpoint_path(root)
    if not path.is_file():
        return None
    try:
        state = json.loads(path.read_text())
    except ValueError as exc:
        raise ValueError(
            f"{path}: checkpoint is not valid JSON ({exc})") from exc
    if not isinstance(state, dict):
        raise ValueError(f"{path}: checkpoint is not a JSON object")
    if state.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(
            f"{path}: unsupported checkpoint format "
            f"{state.get('format')!r}")
    if fingerprint is not None and state.get("fingerprint") != fingerprint:
        raise ValueError(
            f"{path}: checkpoint fingerprint does not match this "
            f"campaign's parameters; refusing to resume a different "
            f"run (delete the spill directory to start over)")
    return state


def clear_checkpoint(root: Union[str, Path]) -> None:
    path = _checkpoint_path(root)
    if path.exists():
        path.unlink()
