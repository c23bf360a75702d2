"""Longitudinal measurement: sampling a months-long deployment.

The paper's passive dataset spans seven months (Table 1).  Simulating
every hour of that span is wasteful — orbital geometry repeats on
day-to-week scales — so this module samples the campaign the way the
analysis consumes it: one representative day per period (default a
week), each propagated to its true epoch so nodal precession and drag
act on the constellation between samples.

Out-of-core runs
----------------
With ``spill_dir`` set the campaign streams every sampled week's traces
into a sharded ``satiot-traces-v2`` archive (:mod:`satiot.streams`)
instead of accumulating them in RAM, checkpointing after each week so a
killed run resumes from the last completed week.  Each week is a pure
function of ``(config, seed + week)`` — no RNG stream crosses week
boundaries — and shard bytes are pure functions of the trace stream, so
a resumed run's archive is **byte-identical** to an uninterrupted one.
Week traces are rebased into campaign-global time (``time_s`` shifted
by the week's day offset) and pass ids are prefixed ``"w{week}/"`` so
rows stay unambiguous across the whole span.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union


from ..groundstation.traces import TraceColumns
from ..runtime.executor import Shard, ShardExecutor
from ..runtime.telemetry import CampaignTelemetry
from .campaign import PassiveCampaign, PassiveCampaignConfig
from .contacts import ContactWindowStats, analyze_contacts

__all__ = ["WeeklySample", "LongitudinalResult", "LongitudinalCampaign"]


@dataclass(frozen=True)
class WeeklySample:
    """Metrics of one sampled day."""

    week: int
    start_day_offset: float
    traces: int
    stats_by_constellation: Dict[str, ContactWindowStats]

    def shrinkage(self, constellation: str) -> float:
        return self.stats_by_constellation[constellation] \
            .duration_shrinkage


@dataclass
class LongitudinalResult:
    """All weekly samples plus trend summaries."""

    samples: List[WeeklySample] = field(default_factory=list)
    #: Root of the spilled ``satiot-traces-v2`` archive (``None`` for
    #: in-RAM runs).
    archive_dir: Optional[str] = None
    #: The spilled archive's manifest (spilled runs only).
    manifest: Optional[Dict[str, Any]] = None
    #: Runtime telemetry of the run: one shard per week it computed
    #: (a resume skips checkpointed weeks; None when it finds the
    #: archive already complete).
    telemetry: Optional[CampaignTelemetry] = None

    def traces_per_week(self) -> List[int]:
        return [s.traces for s in self.samples]

    def shrinkage_series(self, constellation: str) -> List[float]:
        return [s.shrinkage(constellation) for s in self.samples]

    def shrinkage_stability(self, constellation: str) -> float:
        """Peak-to-peak spread of the weekly shrinkage estimates."""
        series = self.shrinkage_series(constellation)
        if not series:
            return float("nan")
        return max(series) - min(series)


def _rebase_week_block(block: TraceColumns, week: int,
                       offset_days: float) -> TraceColumns:
    """Shift a week's block into campaign-global time and pass-id space."""
    return block.replace(
        time_s=block.column("time_s") + offset_days * 86400.0,
        pass_id=block.string_column("pass_id").map_table(
            lambda value: f"w{week}/{value}"))


def _week_worker(shard: Shard,
                 ) -> Tuple[WeeklySample, List[TraceColumns],
                            Dict[str, Dict[str, int]]]:
    """One sampled week — a pure function of the shard payload — plus
    its trace blocks, rebased for the archive (none unless the payload
    says the run spills), and its sent/received counters."""
    week, offset, config, site, constellations, spill = shard.payload
    # workers=1: the week itself is the unit of parallelism here.
    campaign = PassiveCampaign(config, workers=1).run()
    stats = {}
    sent: Dict[str, int] = {}
    received: Dict[str, int] = {}
    for name in constellations:
        receptions = campaign.receptions(site, name)
        stats[name] = analyze_contacts(receptions, campaign.duration_s)
        key = f"{site}/{name}".lower()
        sent[key] = sum(r.beacons_sent for r in receptions)
        received[key] = sum(len(r.traces) for r in receptions)
    sample = WeeklySample(week=week, start_day_offset=offset,
                          traces=campaign.total_traces,
                          stats_by_constellation=stats)
    blocks = [_rebase_week_block(b, week, offset)
              for b in campaign.dataset.blocks()] if spill else []
    return sample, blocks, {"sent": sent, "received": received}


def _week_telemetry(executor: ShardExecutor, outcomes: Sequence,
                    t0: float) -> CampaignTelemetry:
    """One shard per computed week, with its trace count."""
    return CampaignTelemetry.from_outcomes(
        executor, outcomes, time.perf_counter() - t0,
        [{"traces": outcome.result[0].traces} for outcome in outcomes])


class LongitudinalCampaign:
    """Samples a long deployment one day per period.

    Weekly samples are independent shards: with ``workers > 1`` they run
    on the runtime's process pool and merge back in week order, yielding
    the same :class:`LongitudinalResult` as a serial run.

    With ``spill_dir`` set, every week's traces stream into a sharded
    on-disk archive (see module docstring) and a checkpoint is written
    after each week; ``resume=True`` picks up from the last checkpoint
    (or short-circuits entirely when the archive is already complete).
    """

    def __init__(self, weeks: int = 4, site: str = "HK",
                 sample_days: float = 1.0,
                 period_days: float = 7.0, seed: int = 42,
                 constellations: Optional[Sequence[str]] = None,
                 workers: Optional[int] = None,
                 spill_dir: Union[str, Path, None] = None,
                 rows_per_shard: int = 100_000,
                 resume: bool = False) -> None:
        if weeks <= 0:
            raise ValueError("need at least one week")
        if sample_days <= 0 or period_days < sample_days:
            raise ValueError("sample must fit inside the period")
        self.weeks = weeks
        self.site = site
        self.sample_days = sample_days
        self.period_days = period_days
        self.seed = seed
        self.constellations = tuple(constellations
                                    or ("tianqi", "fossa", "pico",
                                        "cstp"))
        self.workers = workers
        self.spill_dir = Path(spill_dir) if spill_dir else None
        self.rows_per_shard = int(rows_per_shard)
        self.resume = bool(resume)

    # ------------------------------------------------------------------
    def _week_config(self, week: int) -> PassiveCampaignConfig:
        return PassiveCampaignConfig(
            sites=(self.site,),
            constellations=self.constellations,
            days=self.sample_days,
            start_day_offset=week * self.period_days,
            seed=self.seed + week)

    def _week_shards(self, start_week: int = 0) -> List[Shard]:
        shards = []
        for week in range(start_week, self.weeks):
            offset = week * self.period_days
            shards.append(Shard(
                index=week, kind="week", key=str(week),
                payload=(week, offset, self._week_config(week),
                         self.site, self.constellations,
                         self.spill_dir is not None)))
        return shards

    def _params(self) -> Dict[str, Any]:
        """Everything that determines the campaign's trace stream."""
        return {
            "engine": "longitudinal-v1",
            "weeks": self.weeks,
            "site": self.site,
            "sample_days": self.sample_days,
            "period_days": self.period_days,
            "seed": self.seed,
            "constellations": list(self.constellations),
            "rows_per_shard": self.rows_per_shard,
        }

    # ------------------------------------------------------------------
    def run(self) -> LongitudinalResult:
        if self.spill_dir is not None:
            return self._run_spilled()
        t0 = time.perf_counter()
        executor = ShardExecutor(self.workers)
        outcomes = executor.map(_week_worker, self._week_shards())
        return LongitudinalResult(
            samples=[outcome.result[0] for outcome in outcomes],
            telemetry=_week_telemetry(executor, outcomes, t0))

    # ------------------------------------------------------------------
    def _run_spilled(self) -> LongitudinalResult:
        # Imported lazily: satiot.streams imports this module for the
        # checkpointed sample types, so a module-level import would
        # cycle.
        from ..streams.checkpoint import (campaign_fingerprint,
                                          clear_checkpoint,
                                          load_checkpoint,
                                          sample_from_state,
                                          sample_to_state,
                                          save_checkpoint)
        from ..streams.spill import (ShardSpillWriter, is_stream_archive,
                                     read_stream_manifest)

        t0 = time.perf_counter()
        root = self.spill_dir
        fingerprint = campaign_fingerprint(self._params())

        samples: List[WeeklySample] = []
        sent: Dict[str, int] = {}
        received: Dict[str, int] = {}
        start_week = 0
        writer: Optional[ShardSpillWriter] = None

        state = load_checkpoint(root, fingerprint) \
            if self.resume else None
        if state is not None:
            samples = [sample_from_state(s) for s in state["samples"]]
            sent = {k: int(v) for k, v in state["sent"].items()}
            received = {k: int(v)
                        for k, v in state["received"].items()}
            start_week = int(state["weeks_done"])
            writer = ShardSpillWriter.resume(root, state["writer"])
        elif self.resume and is_stream_archive(root):
            manifest = read_stream_manifest(root)
            if manifest.get("fingerprint") == fingerprint:
                # Archive already complete: nothing to recompute.
                meta = manifest.get("meta", {})
                return LongitudinalResult(
                    samples=[sample_from_state(s)
                             for s in meta.get("samples", [])],
                    archive_dir=str(root), manifest=manifest)

        if writer is None:
            # Fresh run: the new writer clears any earlier archive, so
            # only a stale checkpoint is left to remove.
            clear_checkpoint(root)
            writer = ShardSpillWriter(
                root, rows_per_shard=self.rows_per_shard,
                fingerprint=fingerprint)

        executor = ShardExecutor(self.workers)
        outcomes = []
        for outcome in executor.imap(_week_worker,
                                     self._week_shards(start_week)):
            sample, blocks, counters = outcome.result
            for block in blocks:
                writer.write(block)
            blocks.clear()  # written: the kept outcome must not pin them
            outcomes.append(outcome)
            for key, value in counters["sent"].items():
                sent[key] = sent.get(key, 0) + value
            for key, value in counters["received"].items():
                received[key] = received.get(key, 0) + value
            samples.append(sample)
            save_checkpoint(root, {
                "fingerprint": fingerprint,
                "weeks_done": sample.week + 1,
                "samples": [sample_to_state(s) for s in samples],
                "sent": sent,
                "received": received,
                "writer": writer.snapshot_state(),
            })

        manifest = writer.finalize(meta={
            "engine": "longitudinal",
            "params": self._params(),
            "span_s": self.weeks * self.period_days * 86400.0,
            "observed_s": self.weeks * self.sample_days * 86400.0,
            "sent": sent,
            "received": received,
            "samples": [sample_to_state(s) for s in samples],
        })
        clear_checkpoint(root)

        telemetry = _week_telemetry(executor, outcomes, t0)
        telemetry.spilled_shards = writer.shards_written
        telemetry.spilled_bytes = writer.bytes_spilled
        return LongitudinalResult(samples=samples,
                                  archive_dir=str(root),
                                  manifest=manifest,
                                  telemetry=telemetry)
