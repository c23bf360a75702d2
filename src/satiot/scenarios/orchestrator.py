"""Scenario matrix execution and KPI extraction.

The orchestrator expands a scenario into its cell matrix, runs every
cell through :class:`~satiot.runtime.ShardExecutor` (cells are the unit
of parallelism; campaigns inside a cell run serially so a cell is a
pure function of its spec), extracts KPIs into one
:class:`~satiot.scenarios.kpi.KpiStore`, and writes a run directory::

    <out>/manifest.json   # spec, seed, git revision, fingerprints
    <out>/kpis.npz        # byte-reproducible columnar KPI store

Because each cell is pure and the store is written deterministically,
the same spec and seed produce a byte-identical ``kpis.npz`` whatever
the worker count — ``satiot scenario diff`` of two such runs reports
zero deltas.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import __version__
from ..core.campaign import (DEFAULT_CACHE, PassiveCampaign,
                             _cache_spec_for_worker, _resolve_cache)
from ..runtime.executor import Shard, ShardExecutor
from ..runtime.telemetry import (CampaignTelemetry, ShardTelemetry,
                                 render_fixed_table)
from .compiler import (CompiledCell, build_cell_constellations,
                       compile_cells)
from .kpi import KpiDiff, KpiRow, KpiStore, diff_stores
from .spec import (ScenarioError, ScenarioSpec, canonical_json,
                   parse_scenario, scenario_fingerprint)

__all__ = ["RUN_FORMAT", "ScenarioRun", "run_scenario",
           "smoke_document", "load_run", "diff_runs",
           "render_diff_report", "render_grid", "render_kpi_table"]

RUN_FORMAT = "satiot-scenario-run-v1"

MANIFEST_NAME = "manifest.json"
STORE_NAME = "kpis.npz"


# ----------------------------------------------------------------------
@dataclass
class ScenarioRun:
    """Everything one scenario execution produced."""

    spec: ScenarioSpec
    cells: List[CompiledCell]
    store: KpiStore
    manifest: Dict[str, Any]
    telemetry: Optional[CampaignTelemetry] = None

    @property
    def cell_ids(self) -> List[str]:
        return [cell.cell_id for cell in self.cells]

    def cell_params(self, cell_id: str) -> Dict[str, Any]:
        for cell in self.cells:
            if cell.cell_id == cell_id:
                return dict(cell.sweep_params)
        raise KeyError(f"no cell {cell_id!r}")

    def save(self, out_dir: Union[str, Path]) -> Path:
        """Write ``manifest.json`` + ``kpis.npz`` under ``out_dir``."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / MANIFEST_NAME).write_text(
            json.dumps(self.manifest, indent=2, sort_keys=True) + "\n")
        self.store.save(out / STORE_NAME)
        return out


# ----------------------------------------------------------------------
# Cell execution (module level: shard workers must pickle).
# ----------------------------------------------------------------------
def _params_json(cell: CompiledCell) -> str:
    return canonical_json(cell.sweep_params)


def _rows(cell: CompiledCell,
          triples: Sequence[Tuple[str, str, float]]) -> List[KpiRow]:
    params = _params_json(cell)
    return [KpiRow(cell=cell.cell_id, params=params, kpi=kpi,
                   subject=subject, value=float(value))
            for kpi, subject, value in triples]


def _run_passive_cell(cell: CompiledCell, cache,
                      ) -> Tuple[List[KpiRow], Dict[str, str]]:
    from ..core.contacts import analyze_contacts
    result = PassiveCampaign(cell.config, workers=1,
                             ephemeris_cache=cache).run()
    triples: List[Tuple[str, str, float]] = []
    fingerprints = _fleet_fingerprints(result.constellations)
    for name in sorted(result.constellations):
        display = result.constellations[name].name
        for site in cell.config.sites:
            receptions = result.receptions(site, name)
            stats = analyze_contacts(receptions, result.duration_s)
            subject = f"{display}@{site}"
            sent = sum(r.beacons_sent for r in receptions)
            received = sum(r.beacons_received for r in receptions)
            triples += [
                ("theoretical_daily_hours", subject,
                 stats.theoretical_daily_hours),
                ("effective_daily_hours", subject,
                 stats.effective_daily_hours),
                ("duration_shrinkage", subject,
                 stats.duration_shrinkage),
                ("mean_duration_shrinkage", subject,
                 stats.mean_duration_shrinkage),
                ("interval_inflation", subject,
                 stats.interval_inflation),
                ("contacts", subject,
                 len(stats.theoretical_durations_s)),
                ("beacons_sent", subject, sent),
                ("beacons_received", subject, received),
                ("beacon_loss_rate", subject,
                 1.0 - received / sent if sent else float("nan")),
            ]
    for site in cell.config.sites:
        triples.append(("traces", site,
                        result.site_results[site].trace_count))
    triples.append(("total_traces", "", result.total_traces))
    return _rows(cell, triples), fingerprints


def _fleet_fingerprints(constellations) -> Dict[str, str]:
    from ..runtime.ephemeris_cache import constellation_fingerprint
    out = {}
    for constellation in constellations.values():
        out[constellation.name] = constellation_fingerprint(
            [sat.tle for sat in constellation])
    return out


#: Per-process memo of active-campaign ground segments; building one is
#: deterministic, so sharing it across sweep cells is purely a speedup
#: and never changes results.
_SEGMENT_MEMO: Dict[Tuple[int, float], Any] = {}


def _shared_segment(seed: int, duration_s: float):
    from ..constellations.catalog import build_constellation
    from ..network.store_forward import (TIANQI_GROUND_STATIONS,
                                         GroundSegment)
    key = (seed, duration_s)
    if key not in _SEGMENT_MEMO:
        constellation = build_constellation("tianqi", seed=seed)
        epoch = constellation.satellites[0].tle.epoch
        _SEGMENT_MEMO[key] = GroundSegment(
            constellation, epoch, duration_s, TIANQI_GROUND_STATIONS)
    return _SEGMENT_MEMO[key]


def _run_active_cell(cell: CompiledCell,
                     ) -> Tuple[List[KpiRow], Dict[str, str]]:
    from ..core.active import ActiveCampaign
    from ..core.energy_analysis import compare_energy
    from ..core.performance import compare_systems
    from ..econ.comparison import tco_crossover_months, tco_usd
    from ..network.server import (latency_decomposition_minutes,
                                  reliability_report)
    config = cell.config
    segment = _shared_segment(config.seed, config.duration_s)
    result = ActiveCampaign(config, ground_segment=segment).run()
    records = result.all_satellite_records()
    report = reliability_report(records)
    latency = latency_decomposition_minutes(records)
    comparison = compare_systems(records,
                                 result.all_terrestrial_records())
    attempts = sum(len(r.attempts) for r in records)
    triples: List[Tuple[str, str, float]] = [
        ("reliability", "", report.reliability),
        ("generated", "", report.generated),
        ("delivered", "", report.delivered),
        ("reached_satellite", "", report.reached_satellite),
        ("abandoned", "", report.abandoned),
        ("tx_attempts_per_packet", "",
         attempts / max(report.generated, 1)),
        ("terrestrial_reliability", "",
         comparison.terrestrial_reliability),
        ("satellite_latency_min", "",
         comparison.satellite_latency_min),
        ("terrestrial_latency_min", "",
         comparison.terrestrial_latency_min),
        ("latency_ratio", "", comparison.latency_ratio),
    ]
    triples += [(f"{segment_name}", "", value)
                for segment_name, value in latency.items()]
    if result.tianqi_energy and result.terrestrial_energy:
        energy = compare_energy(
            next(iter(result.tianqi_energy.values())),
            next(iter(result.terrestrial_energy.values())))
        triples += [
            ("tianqi_avg_power_mw", "", energy.tianqi_avg_power_mw),
            ("terrestrial_avg_power_mw", "",
             energy.terrestrial_avg_power_mw),
            ("tianqi_battery_days", "", energy.tianqi_battery_days),
            ("terrestrial_battery_days", "",
             energy.terrestrial_battery_days),
            ("battery_drain_ratio", "", energy.drain_ratio),
        ]
    packets_per_day = 86400.0 / config.reading_interval_s
    # Cost KPIs priced under the cell's provider (spec key
    # traffic.provider, registry-validated at compile time; the
    # default "tianqi" resolves to the identical TIANQI_COSTS object,
    # so existing specs keep byte-identical KPI rows).
    provider = (cell.params or {}).get("provider") or "tianqi"
    tco = tco_usd(12.0, config.node_count, packets_per_day,
                  config.payload_bytes, satellite=provider)
    flips, crossover = tco_crossover_months(
        config.node_count, packets_per_day, config.payload_bytes,
        satellite=provider)
    triples += [
        ("tco_12mo_satellite_usd", "", tco["satellite_usd"]),
        ("tco_12mo_terrestrial_usd", "", tco["terrestrial_usd"]),
        ("tco_crossover_months", "",
         crossover if flips else float("inf")),
    ]
    fingerprints = _fleet_fingerprints(
        {"tianqi": result.constellation})
    return _rows(cell, triples), fingerprints


def _stream_triples(result) -> List[Tuple[str, str, float]]:
    """Extra KPI rows computed by folding the spilled archive.

    These never materialise the dataset: the reducers stream shard
    blocks and keep O(passes) state.  Spilled cells therefore emit the
    *same* standard rows as in-RAM cells plus this ``stream_*`` family,
    so resumed and uninterrupted spill runs stay byte-identical while
    spill vs no-spill differs only by the extra rows.
    """
    from ..streams.reducers import StreamingKpiReducer
    from ..streams.spill import ShardedTraceReader
    reader = ShardedTraceReader(result.archive_dir)
    meta = reader.meta
    reducer = StreamingKpiReducer()
    for block in reader.iter_blocks():
        reducer.update(block)
    sent = {key: int(value)
            for key, value in meta.get("sent", {}).items()}
    kpis = reducer.finalize(float(meta["span_s"]), sent=sent)
    triples: List[Tuple[str, str, float]] = [
        ("stream_shards", "", reader.shard_count),
        ("stream_rows", "", reader.total_rows),
    ]
    for (site, constellation), values in sorted(kpis.items()):
        subject = f"{constellation}@{site}"
        for kpi in ("effective_daily_hours", "contacts",
                    "mean_rssi_dbm", "beacon_loss_rate", "max_gap_s",
                    "packets_per_day", "tco_satellite_usd",
                    "tco_terrestrial_usd"):
            triples.append((f"stream_{kpi}", subject, values[kpi]))
    return triples


def _run_longitudinal_cell(cell: CompiledCell, spill=None,
                           ) -> Tuple[List[KpiRow], Dict[str, str]]:
    from ..core.longitudinal import LongitudinalCampaign
    kwargs = dict(cell.kwargs)
    if spill is not None:
        root, rows_per_shard, resume = spill
        kwargs.update(spill_dir=Path(root) / cell.cell_id,
                      rows_per_shard=rows_per_shard, resume=resume)
    campaign = LongitudinalCampaign(workers=1, **kwargs)
    result = campaign.run()
    triples: List[Tuple[str, str, float]] = []
    for sample in result.samples:
        triples.append(("traces", f"week{sample.week}", sample.traces))
        for name in cell.kwargs["constellations"]:
            stats = sample.stats_by_constellation[name]
            subject = f"{name}@week{sample.week}"
            triples += [
                ("theoretical_daily_hours", subject,
                 stats.theoretical_daily_hours),
                ("effective_daily_hours", subject,
                 stats.effective_daily_hours),
                ("duration_shrinkage", subject,
                 stats.duration_shrinkage),
            ]
    for name in cell.kwargs["constellations"]:
        triples.append(("shrinkage_stability", name,
                        result.shrinkage_stability(name)))
    if spill is not None:
        triples += _stream_triples(result)
    return _rows(cell, triples), {}


def _run_presence_cell(cell: CompiledCell,
                       ) -> Tuple[List[KpiRow], Dict[str, str]]:
    from ..core.sites import SITES
    from ..core.stats import (interval_gaps, merge_intervals,
                              total_length)
    from ..orbits.passes import find_passes_fleet
    params = cell.params
    constellations = build_cell_constellations(cell)
    fingerprints = _fleet_fingerprints(constellations)
    first = next(iter(constellations.values()))
    epoch = first.satellites[0].tle.epoch
    if params["start_day_offset"]:
        epoch = epoch + params["start_day_offset"] * 86400.0
    span_s = params["days"] * 86400.0
    triples: List[Tuple[str, str, float]] = []
    for constellation in constellations.values():
        display = constellation.name
        triples.append(("satellites", display, len(constellation)))
        per_sat = find_passes_fleet(
            [satellite.propagator for satellite in constellation],
            [SITES[code].location for code in params["sites"]], epoch,
            span_s, coarse_step_s=params["coarse_step_s"],
            min_elevation_deg=params["min_elevation_deg"])
        for m, code in enumerate(params["sites"]):
            merged = merge_intervals((window.rise_s, window.set_s)
                                     for rows in per_sat
                                     for window in rows[m])
            hours = total_length(merged) / span_s * 24.0
            gaps = interval_gaps(merged, 0.0, span_s)
            subject = f"{display}@{code}"
            triples += [
                ("presence_h_day", subject, hours),
                ("max_contact_gap_min", subject,
                 max(gaps) / 60.0 if gaps else 0.0),
                ("contacts", subject, len(merged)),
            ]
    return _rows(cell, triples), fingerprints


def _run_reception_cell(cell: CompiledCell,
                        ) -> Tuple[List[KpiRow], Dict[str, str]]:
    from ..core.sites import SITES
    from ..groundstation.receiver import BeaconReceiver
    from ..groundstation.scheduler import Scheduler
    from ..groundstation.station import GroundStation
    from ..sim.rng import RngStreams
    params = cell.params
    constellations = build_cell_constellations(cell)
    fingerprints = _fleet_fingerprints(constellations)
    constellation = next(iter(constellations.values()))
    epoch = constellation.satellites[0].tle.epoch
    code = params["site"]
    site = SITES[code]
    station_count = params["stations"] or site.station_count
    stations = [GroundStation(f"{code}-{i}", code, site.location)
                for i in range(station_count)]
    scheduler = Scheduler(
        stations, min_elevation_deg=params["min_elevation_deg"])
    schedule = scheduler.build_schedule(
        list(constellation), epoch, params["duration_s"],
        coarse_step_s=params["coarse_step_s"])
    receiver = BeaconReceiver()
    streams = RngStreams(cell.seed)
    # RNG streams are keyed by the fleet's beacon period so sweep cells
    # draw decorrelated channel noise (``p{period}/{pass index}``).
    period = constellation.radio.beacon_period_s
    receptions = [
        receiver.receive_pass(scheduled, epoch, f"{code}-{i}",
                              streams.get(f"p{period}/{i}"))
        for i, scheduled in enumerate(schedule.assigned)]
    received = sum(r.beacons_received for r in receptions)
    sent = sum(r.beacons_sent for r in receptions)
    heard = (float(np.mean([r.heard_anything for r in receptions]))
             if receptions else float("nan"))
    blocks = [r.traces.column("time_s") for r in receptions
              if len(r.traces)]
    times = np.sort(np.concatenate(blocks)) if blocks else np.empty(0)
    gaps = np.diff(times) if times.size > 1 else np.array([np.inf])
    triples = [
        ("passes_scheduled", "", len(schedule.assigned)),
        ("beacons_sent", "", sent),
        ("beacons_received", "", received),
        ("beacon_loss_rate", "",
         1.0 - received / sent if sent else float("nan")),
        ("windows_heard_frac", "", heard),
        ("median_rx_gap_s", "", float(np.median(gaps))),
    ]
    return _rows(cell, triples), fingerprints


def _run_downlink_cell(cell: CompiledCell,
                       ) -> Tuple[List[KpiRow], Dict[str, str]]:
    from ..network.downlink import DownlinkConfig, DownlinkSimulator
    from ..network.store_forward import BufferedPacket, SatelliteBuffer
    params = cell.params
    simulator = DownlinkSimulator(DownlinkConfig(
        throughput_bytes_s=params["rate_bytes_s"]))
    backlog = params["fleet_size"] * params["packets_per_node"]
    sessions = simulator.sessions_to_empty(
        backlog, params["payload_bytes"], params["window_s"])
    buffer = SatelliteBuffer(
        44100, capacity_packets=params["buffer_capacity"])
    for seq in range(min(backlog, params["buffer_fill_cap"])):
        buffer.store(BufferedPacket("fleet", seq, 0.0,
                                    params["payload_bytes"]))
    session = simulator.run_session(buffer, (0.0, params["window_s"]))
    triples = [
        ("backlog_packets", "", backlog),
        ("contacts_to_drain", "", sessions),
        ("drained_one_contact", "", session.drained_count),
    ]
    return _rows(cell, triples), {}


def _run_phy_cell(cell: CompiledCell,
                  ) -> Tuple[List[KpiRow], Dict[str, str]]:
    from ..phy.adaptation import sf_trade_table
    from ..phy.link_budget import LinkBudget
    from ..phy.lora import SNR_LIMIT_DB, noise_floor_dbm
    params = cell.params
    table = sf_trade_table(payload_bytes=params["payload_bytes"],
                           bandwidth_hz=params["bandwidth_hz"])
    budget = LinkBudget(eirp_dbm=params["eirp_dbm"],
                        frequency_hz=params["frequency_hz"])
    rssi = budget.mean_rssi_dbm(params["range_km"],
                                params["elevation_deg"],
                                rx_gain_dbi=params["rx_gain_dbi"])
    snr = rssi - noise_floor_dbm(params["bandwidth_hz"])
    triples: List[Tuple[str, str, float]] = [("snr_db", "", snr)]
    for sf, point in sorted(table.items()):
        subject = f"SF{sf}"
        triples += [
            ("snr_limit_db", subject, point.snr_limit_db),
            ("airtime_s", subject, point.airtime_s),
            ("tx_energy_j", subject, point.tx_energy_j),
            ("collision_exposure", subject, point.collision_exposure),
            ("margin_db", subject, snr - SNR_LIMIT_DB[sf]),
        ]
    return _rows(cell, triples), {}


_CELL_RUNNERS = {
    "passive": None,  # takes the cache; dispatched explicitly below
    "active": _run_active_cell,
    "longitudinal": _run_longitudinal_cell,
    "presence": _run_presence_cell,
    "reception": _run_reception_cell,
    "downlink": _run_downlink_cell,
    "phy": _run_phy_cell,
}


def _execute_cell(cell: CompiledCell, cache, spill=None,
                  ) -> Tuple[List[KpiRow], Dict[str, str],
                             ShardTelemetry]:
    t0 = time.perf_counter()
    if cell.kind == "passive":
        rows, fingerprints = _run_passive_cell(cell, cache)
    elif cell.kind == "longitudinal":
        rows, fingerprints = _run_longitudinal_cell(cell, spill)
    else:
        rows, fingerprints = _CELL_RUNNERS[cell.kind](cell)
    telemetry = ShardTelemetry(
        label=f"cell:{cell.cell_id}",
        wall_s=time.perf_counter() - t0, traces=len(rows),
        worker=f"pid:{os.getpid()}")
    return rows, fingerprints, telemetry


def _cell_shard_worker(shard: Shard):
    """Process-pool entry point: run one cell from its payload."""
    cell, cache_spec, spill = shard.payload
    return _execute_cell(cell, _resolve_cache(cache_spec), spill)


# ----------------------------------------------------------------------
def _git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(Path(__file__).resolve().parent),
             "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    revision = out.stdout.strip()
    return revision if out.returncode == 0 and revision else "unknown"


def _build_manifest(spec: ScenarioSpec, cells: Sequence[CompiledCell],
                    store: KpiStore,
                    fingerprints: Dict[str, str]) -> Dict[str, Any]:
    return {
        "format": RUN_FORMAT,
        "scenario": spec.name,
        "kind": spec.kind,
        "seed": spec.seed,
        "scenario_fingerprint": scenario_fingerprint(spec),
        "git_revision": _git_revision(),
        "satiot_version": __version__,
        "cells": [cell.cell_id for cell in cells],
        "sweep": {path: list(values)
                  for path, values in spec.sweep.items()},
        "kpi_rows": len(store),
        "constellation_fingerprints": dict(sorted(
            fingerprints.items())),
        "faults": spec.faults,
    }


def _install_spec_faults(spec: ScenarioSpec) -> None:
    if not spec.faults:
        return
    from ..faults import FAULTS_ENV, FaultPlane, install_plane
    # Export before any pool spawns so shard workers rebuild the same
    # schedule from the environment.
    os.environ[FAULTS_ENV] = spec.faults
    install_plane(FaultPlane.from_spec(spec.faults))


def run_scenario(spec: Union[ScenarioSpec, Dict[str, Any]],
                 workers: Optional[int] = None,
                 ephemeris_cache=DEFAULT_CACHE,
                 out_dir: Union[str, Path, None] = None,
                 spill_dir: Union[str, Path, None] = None,
                 rows_per_shard: int = 100_000,
                 resume: bool = False) -> ScenarioRun:
    """Execute a scenario matrix and extract its KPI store.

    ``workers`` (then the spec's ``workers`` key, then
    ``SATIOT_WORKERS``) sets the cell-level parallelism; campaigns
    inside a cell always run serially, which is what makes the KPI
    store invariant under the worker count.

    ``spill_dir`` streams each longitudinal cell's traces into a
    sharded ``satiot-traces-v2`` archive under
    ``<spill_dir>/<cell_id>/`` (checkpointed per week; ``resume=True``
    continues a killed run) and adds ``stream_*`` KPI rows computed by
    the fold-over-shards reducers.  Other cell kinds are unaffected.
    """
    if isinstance(spec, dict):
        spec = parse_scenario(spec)
    _install_spec_faults(spec)
    cells = compile_cells(spec)
    if workers is None:
        workers = spec.workers
    executor = ShardExecutor(workers)
    t0 = time.perf_counter()

    spill = (str(spill_dir), int(rows_per_shard), bool(resume)) \
        if spill_dir is not None else None
    if executor.workers > 1 and len(cells) > 1:
        cache_spec = _cache_spec_for_worker(ephemeris_cache)
        shards = [Shard(index=cell.index, kind="cell",
                        key=cell.cell_id,
                        payload=(cell, cache_spec, spill))
                  for cell in cells]
        outcomes = executor.map(_cell_shard_worker, shards)
        results = [outcome.result for outcome in outcomes]
    else:
        cache = _resolve_cache(ephemeris_cache)
        results = [_execute_cell(cell, cache, spill)
                   for cell in cells]

    store = KpiStore()
    fingerprints: Dict[str, str] = {}
    shard_telemetry: List[ShardTelemetry] = []
    for rows, cell_fingerprints, telemetry in results:
        store.extend(rows)
        fingerprints.update(cell_fingerprints)
        shard_telemetry.append(telemetry)
    campaign_telemetry = CampaignTelemetry(
        workers=executor.workers, mode=executor.mode,
        wall_s=time.perf_counter() - t0, shards=shard_telemetry,
        retries=executor.retries, fallbacks=executor.fallbacks)

    manifest = _build_manifest(spec, cells, store, fingerprints)
    if spill is not None:
        # Only recorded for spill-backed runs so in-RAM manifests stay
        # byte-stable across this feature.
        manifest["spill"] = {"dir": spill[0],
                             "rows_per_shard": spill[1]}
    run = ScenarioRun(spec=spec, cells=cells, store=store,
                      manifest=manifest,
                      telemetry=campaign_telemetry)
    if out_dir is not None:
        run.save(out_dir)
    return run


# ----------------------------------------------------------------------
def smoke_document(document: Dict[str, Any]) -> Dict[str, Any]:
    """Shrink a scenario document for CI smoke runs.

    Durations are capped (passive-family days to 0.25, active days to
    1.0, longitudinal to 2 weeks sampling 0.25 days) and every sweep
    axis is truncated to its first two values.  The result is a valid
    document of the same shape whose run takes seconds.
    """
    document = json.loads(json.dumps(document))
    kind = document.get("kind")
    duration = dict(document.get("duration") or {})
    cap = 1.0 if kind == "active" else 0.25
    duration["days"] = min(float(duration.get("days", cap)), cap)
    if kind in ("passive", "active", "presence", "reception"):
        document["duration"] = duration
    if kind == "longitudinal":
        section = dict(document.get("longitudinal") or {})
        section["weeks"] = min(int(section.get("weeks", 2)), 2)
        section["sample_days"] = min(
            float(section.get("sample_days", 0.25)), 0.25)
        document["longitudinal"] = section
    sweep = document.get("sweep") or {}
    if sweep:
        document["sweep"] = {path: values[:2]
                             for path, values in sweep.items()}
    return document


# ----------------------------------------------------------------------
def load_run(run_dir: Union[str, Path],
             ) -> Tuple[Dict[str, Any], KpiStore]:
    """Read a run directory's manifest and KPI store."""
    run_dir = Path(run_dir)
    manifest_path = run_dir / MANIFEST_NAME
    store_path = run_dir / STORE_NAME
    if not manifest_path.is_file() or not store_path.is_file():
        raise ScenarioError(
            "", f"{run_dir} is not a scenario run directory "
                f"(expected {MANIFEST_NAME} and {STORE_NAME})")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format") != RUN_FORMAT:
        raise ScenarioError(
            "format", f"{manifest_path}: unsupported run manifest "
                      f"format {manifest.get('format')!r}")
    return manifest, KpiStore.load(store_path)


def diff_runs(run_a: Union[str, Path], run_b: Union[str, Path],
              rtol: float = 0.0, atol: float = 0.0,
              ) -> Tuple[KpiDiff, Dict[str, Any], Dict[str, Any]]:
    """Diff two run directories; returns the diff plus both manifests."""
    manifest_a, store_a = load_run(run_a)
    manifest_b, store_b = load_run(run_b)
    return (diff_stores(store_a, store_b, rtol=rtol, atol=atol),
            manifest_a, manifest_b)


def render_diff_report(diff: KpiDiff, manifest_a: Dict[str, Any],
                       manifest_b: Dict[str, Any]) -> str:
    """Human-readable diff between two scenario runs."""
    lines = [
        f"scenario {manifest_a.get('scenario')} "
        f"(seed {manifest_a.get('seed')}) — "
        f"{manifest_a.get('git_revision', 'unknown')[:12]} vs "
        f"{manifest_b.get('git_revision', 'unknown')[:12]}",
        f"compared {diff.compared} KPI values: "
        f"{len(diff.changed)} changed, {len(diff.only_a)} only in A, "
        f"{len(diff.only_b)} only in B",
    ]
    if diff.identical:
        lines.append("0 deltas — runs are KPI-identical")
        return "\n".join(lines)
    if diff.changed:
        rows = [[d.cell, d.kpi, d.subject, f"{d.a:.6g}",
                 f"{d.b:.6g}", f"{d.delta:+.6g}"]
                for d in diff.changed]
        lines.append(render_fixed_table(
            ["cell", "kpi", "subject", "A", "B", "delta"], rows))
    for label, keys in (("only in A", diff.only_a),
                        ("only in B", diff.only_b)):
        for cell, kpi, subject in keys:
            lines.append(f"  {label}: {cell} / {kpi} / {subject}")
    return "\n".join(lines)


def render_grid(spec: ScenarioSpec,
                cells: Sequence[CompiledCell]) -> str:
    """The expanded matrix as a table (``satiot scenario grid``)."""
    axes = list(spec.sweep)
    header = ["#", "cell"] + [path.rsplit(".", 1)[-1]
                              for path in axes]
    rows = []
    for cell in cells:
        rows.append([cell.index, cell.cell_id]
                    + [cell.sweep_params.get(path, "")
                       for path in axes])
    title = (f"{spec.name} [{spec.kind}]: {len(cells)} cell(s), "
             f"{len(axes)} sweep axis(es), seed {spec.seed}")
    return render_fixed_table(header,
                              [[str(c) for c in row] for row in rows],
                              title=title)


def render_kpi_table(run: ScenarioRun, kpis: Optional[Sequence[str]]
                     = None) -> str:
    """Cells × KPIs summary (cell-level subjects only)."""
    store = run.store
    names = list(kpis) if kpis else store.kpis()
    subjects = {row.kpi: row.subject for row in store
                if row.subject == ""}
    names = [n for n in names if n in subjects] or names[:6]
    header = ["cell"] + names
    rows = []
    for cell_id in store.cells():
        row = [cell_id]
        for name in names:
            try:
                row.append(f"{store.value(cell_id, name):.6g}")
            except KeyError:
                row.append("-")
        rows.append(row)
    title = (f"{run.spec.name}: {len(store)} KPI rows, "
             f"{len(store.cells())} cell(s)")
    return render_fixed_table(header, rows, title=title)
