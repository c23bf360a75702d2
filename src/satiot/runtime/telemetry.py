"""Per-shard execution telemetry.

Every executed shard reports wall time and worker (measured by the
shard executor around each task) and work counters (passes, beacons
simulated, traces collected, ephemeris-cache hit/miss deltas) from its
result.  :meth:`CampaignTelemetry.from_outcomes` joins the two for
campaigns and scenario runs; the result is surfaced on
:class:`~satiot.core.campaign.PassiveCampaignResult` and rendered by
``--timing``.

This module is intentionally dependency-free (no imports from
``satiot.core``) so the runtime package never participates in an import
cycle with the campaign layer.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence

__all__ = ["ShardTelemetry", "CampaignTelemetry", "render_fixed_table"]


def _display_width(text: str) -> int:
    """Terminal column count of ``text`` (wide CJK glyphs take two)."""
    return sum(2 if unicodedata.east_asian_width(ch) in "WF" else 1
               for ch in text)


def _pad(text: str, width: int) -> str:
    return text + " " * max(0, width - _display_width(text))


def render_fixed_table(header: Sequence[str],
                       rows: Sequence[Sequence[str]],
                       title: Optional[str] = None) -> str:
    """Render a fixed-width monospace table (shared telemetry format).

    Used by the campaign timing report and by ``satiot.serving``'s
    ``/metrics`` plain-text view so operator-facing tables look the
    same everywhere.  ``None`` cells render as ``-``; column widths
    count terminal columns, so east-asian wide glyphs stay aligned.
    """
    cells = [["-" if c is None else str(c) for c in row]
             for row in rows]
    widths = [max([_display_width(h)]
                  + [_display_width(r[i]) for r in cells])
              for i, h in enumerate(header)]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(_pad(h, widths[i])
                           for i, h in enumerate(header)))
    lines.append("  ".join("-" * w for w in widths))
    for r in cells:
        lines.append("  ".join(_pad(c, widths[i])
                               for i, c in enumerate(r)))
    return "\n".join(lines)


@dataclass
class ShardTelemetry:
    """Measurements of one executed shard."""

    label: str
    wall_s: float
    passes: int = 0
    beacons: int = 0
    traces: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Resident bytes of the ephemeris grid tier at shard completion
    #: (views into shared constellation stacks counted once).
    grid_bytes: int = 0
    worker: str = "serial"

    @property
    def events_per_s(self) -> float:
        """Simulated beacon events per wall-clock second."""
        if self.wall_s <= 0.0:
            return 0.0
        return self.beacons / self.wall_s


@dataclass
class CampaignTelemetry:
    """Aggregate runtime telemetry of one campaign execution."""

    workers: int = 1
    mode: str = "serial"
    wall_s: float = 0.0
    shards: List[ShardTelemetry] = field(default_factory=list)
    #: Failed shard-task executions that were retried (fault plane,
    #: transient worker errors); see :class:`satiot.runtime.ShardExecutor`.
    retries: int = 0
    #: Shards recomputed in-parent after the pool failed them.
    fallbacks: int = 0
    #: Trace shards spilled to disk by the streaming engine (0 when the
    #: campaign ran fully in RAM); see :mod:`satiot.streams`.
    spilled_shards: int = 0
    #: Total bytes of spilled shard archives.
    spilled_bytes: int = 0

    # ------------------------------------------------------------------
    @classmethod
    def from_outcomes(cls, executor, outcomes: Sequence,
                      wall_s: float,
                      counters: Sequence[Mapping[str, int]],
                      ) -> "CampaignTelemetry":
        """Telemetry of one :class:`~satiot.runtime.ShardExecutor` run:
        each shard's label, wall time and worker from its outcome, its
        work counters (:class:`ShardTelemetry` fields) from the
        ``counters`` mapping reported for that outcome."""
        shards = [ShardTelemetry(label=outcome.shard.label,
                                 wall_s=outcome.wall_s,
                                 worker=outcome.worker, **shard_counters)
                  for outcome, shard_counters in zip(outcomes, counters)]
        return cls(workers=executor.workers, mode=executor.mode,
                   wall_s=wall_s, shards=shards,
                   retries=executor.retries,
                   fallbacks=executor.fallbacks)

    @property
    def shard_wall_s(self) -> float:
        """Summed per-shard compute time (> ``wall_s`` when parallel)."""
        return sum(s.wall_s for s in self.shards)

    @property
    def total_beacons(self) -> int:
        return sum(s.beacons for s in self.shards)

    @property
    def total_traces(self) -> int:
        return sum(s.traces for s in self.shards)

    @property
    def total_passes(self) -> int:
        return sum(s.passes for s in self.shards)

    @property
    def cache_hits(self) -> int:
        return sum(s.cache_hits for s in self.shards)

    @property
    def cache_misses(self) -> int:
        return sum(s.cache_misses for s in self.shards)

    @property
    def grid_bytes(self) -> int:
        """Peak per-shard resident grid bytes (caches are per worker,
        so the per-shard figures overlap rather than add)."""
        return max((s.grid_bytes for s in self.shards), default=0)

    @property
    def events_per_s(self) -> float:
        if self.wall_s <= 0.0:
            return 0.0
        return self.total_beacons / self.wall_s

    @property
    def parallel_efficiency(self) -> float:
        """Shard compute time over (wall time × workers); 1.0 is ideal."""
        denom = self.wall_s * max(1, self.workers)
        if denom <= 0.0:
            return 0.0
        return min(1.0, self.shard_wall_s / denom)

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Human-readable timing table (monospace)."""
        header = ["shard", "wall (s)", "passes", "beacons", "ev/s",
                  "cache h/m", "grid MiB", "worker"]
        rows: List[Sequence[str]] = []
        for s in self.shards:
            rows.append([
                s.label, f"{s.wall_s:.3f}", str(s.passes),
                str(s.beacons), f"{s.events_per_s:,.0f}",
                f"{s.cache_hits}/{s.cache_misses}",
                f"{s.grid_bytes / 2**20:.2f}", s.worker])
        rows.append([
            "TOTAL", f"{self.wall_s:.3f}", str(self.total_passes),
            str(self.total_beacons), f"{self.events_per_s:,.0f}",
            f"{self.cache_hits}/{self.cache_misses}",
            f"{self.grid_bytes / 2**20:.2f}",
            f"{self.mode} x{self.workers}"])
        title = (
            f"Runtime telemetry ({self.mode}, {self.workers} worker(s), "
            f"{self.wall_s:.3f} s wall, "
            f"{100.0 * self.parallel_efficiency:.0f}% efficiency)")
        if self.retries or self.fallbacks:
            title += (f" [{self.retries} task retr"
                      f"{'y' if self.retries == 1 else 'ies'}, "
                      f"{self.fallbacks} serial fallback(s)]")
        if self.spilled_shards:
            title += (f" [spilled {self.spilled_shards} shard(s), "
                      f"{self.spilled_bytes / 2**20:.2f} MiB]")
        return render_fixed_table(header, rows, title=title)
