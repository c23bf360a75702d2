"""Passive measurement campaign orchestration (paper Section 2.2).

Deploys TinyGS-style stations at the configured sites, schedules them
against every satellite of the target constellations with the customized
scheduler, simulates beacon reception through each contact window under
the site's weather, and collects the packet-trace dataset that all of
Section 3.1's analyses consume.

Execution is sharded per site through :mod:`satiot.runtime`: each site's
computation is a pure function of ``(config, site)`` — RNG streams are
keyed by ``(site, norad id, per-site pass index)`` and pass identifiers
are the shard-invariant strings ``"{site}-{norad}-{k}"`` — so shards can
run serially, on a process pool (``workers``/``SATIOT_WORKERS``), or on
any subset of sites, and always produce **bit-identical** traces for the
sites they share — verified at the column level since the trace data
plane went columnar.  Shard results carry compact
:class:`~satiot.groundstation.traces.TraceColumns` blocks over the IPC
boundary (flat arrays pickle far cheaper than row objects) and merge
back in configured site order via array concatenation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..constellations.catalog import (Constellation, Satellite,
                                      build_all_constellations)
from ..groundstation.receiver import BeaconReceiver, PassReception
from ..groundstation.scheduler import PassSchedule, Scheduler
from ..groundstation.station import GroundStation
from ..groundstation.traces import TraceDataset
from ..orbits.timebase import Epoch
from ..phy.channel import ChannelParams
from ..runtime.ephemeris_cache import EphemerisCache, get_default_cache
from ..runtime.executor import Shard, ShardExecutor
from ..runtime.telemetry import CampaignTelemetry
from ..sim.rng import RngStreams
from ..sim.weather import WeatherProcess
from .sites import CONTINENT_SITES, SITES, MeasurementSite

__all__ = ["PassiveCampaignConfig", "SiteResult", "PassiveCampaignResult",
           "PassiveCampaign"]

DEFAULT_CONSTELLATIONS = ("tianqi", "fossa", "pico", "cstp")

#: Sentinel: use the process-default ephemeris cache (see
#: :func:`satiot.runtime.get_default_cache`).
DEFAULT_CACHE = "default"


@dataclass(frozen=True)
class PassiveCampaignConfig:
    """Configuration of one passive campaign run."""

    sites: Sequence[str] = tuple(CONTINENT_SITES)
    constellations: Sequence[str] = DEFAULT_CONSTELLATIONS
    days: float = 3.0
    #: Campaign start, in days after the element-set epoch.  Lets a
    #: longitudinal study sample disjoint weeks of the same catalog.
    start_day_offset: float = 0.0
    seed: int = 42
    min_elevation_deg: float = 0.0
    coarse_step_s: float = 30.0
    channel_params: Optional[ChannelParams] = None

    def __post_init__(self) -> None:
        if self.days <= 0:
            raise ValueError("campaign must span a positive number of days")
        unknown = [s for s in self.sites if s not in SITES]
        if unknown:
            raise ValueError(f"unknown sites: {unknown}")
        from ..constellations.catalog import CONSTELLATION_SPECS
        bad = [c for c in self.constellations
               if c.lower() not in CONSTELLATION_SPECS]
        if bad or not self.constellations:
            raise ValueError(f"unknown constellations: {bad}")

    @property
    def duration_s(self) -> float:
        return self.days * 86400.0


@dataclass
class SiteResult:
    """Everything recorded at one site."""

    site: MeasurementSite
    stations: List[GroundStation]
    schedule: PassSchedule
    receptions: List[PassReception]
    weather: WeatherProcess

    @property
    def trace_count(self) -> int:
        return sum(len(r.traces) for r in self.receptions)

    def receptions_by_constellation(self, name: str) -> List[PassReception]:
        name = name.lower()
        return [r for r in self.receptions
                if r.scheduled.satellite.constellation_name.lower() == name]


@dataclass
class PassiveCampaignResult:
    """Aggregate output of a passive campaign."""

    config: PassiveCampaignConfig
    epoch: Epoch
    constellations: Dict[str, Constellation]
    site_results: Dict[str, SiteResult]
    dataset: TraceDataset = field(default_factory=TraceDataset)
    #: Per-shard runtime telemetry of the run that produced this result.
    telemetry: Optional[CampaignTelemetry] = None

    @property
    def duration_s(self) -> float:
        return self.config.duration_s

    @property
    def total_traces(self) -> int:
        return len(self.dataset)

    def receptions(self, site: str, constellation: str,
                   ) -> List[PassReception]:
        return self.site_results[site].receptions_by_constellation(
            constellation)

    def spill_to(self, root, rows_per_shard: int = 100_000) -> dict:
        """Archive the dataset as sharded ``satiot-traces-v2``.

        Streams the dataset's column blocks through the deterministic
        shard writer (peak memory stays one shard) and records the
        per-(site, constellation) sent/received counters in the
        manifest meta so streaming KPI reducers can compute loss rates
        without the reception objects.  Returns the manifest.
        """
        # Lazy import: satiot.streams depends on this module.
        from ..streams.checkpoint import campaign_fingerprint
        from ..streams.spill import ShardSpillWriter
        cfg = self.config
        fingerprint = campaign_fingerprint({
            "engine": "passive-v1",
            "sites": list(cfg.sites),
            "constellations": list(cfg.constellations),
            "days": cfg.days,
            "start_day_offset": cfg.start_day_offset,
            "seed": cfg.seed,
            "min_elevation_deg": cfg.min_elevation_deg,
            "coarse_step_s": cfg.coarse_step_s,
            "channel_params": repr(cfg.channel_params),
            "rows_per_shard": int(rows_per_shard),
        })
        sent: Dict[str, int] = {}
        received: Dict[str, int] = {}
        for code, site_result in self.site_results.items():
            for reception in site_result.receptions:
                name = reception.scheduled.satellite.constellation_name
                key = f"{code}/{name}".lower()
                sent[key] = sent.get(key, 0) + reception.beacons_sent
                received[key] = (received.get(key, 0)
                                 + len(reception.traces))
        writer = ShardSpillWriter(root, rows_per_shard=rows_per_shard,
                                  fingerprint=fingerprint)
        writer.write_dataset(self.dataset)
        return writer.finalize(meta={
            "engine": "passive",
            "span_s": self.duration_s,
            "sent": sent,
            "received": received,
        })


# ----------------------------------------------------------------------
# Shard-level computation (module-level: must be picklable for the
# process pool; serial runs execute the same shards in-process, so both
# paths are bit-identical by construction).
# ----------------------------------------------------------------------
def _campaign_inputs(cfg: PassiveCampaignConfig,
                     ) -> Tuple[Dict[str, Constellation],
                                List[Satellite], Epoch]:
    """Deterministically rebuild the campaign's orbital inputs."""
    constellations = build_all_constellations(seed=cfg.seed)
    constellations = {k: v for k, v in constellations.items()
                      if k in {c.lower() for c in cfg.constellations}}
    if not constellations:
        raise ValueError("no constellations selected")
    satellites = [sat for con in constellations.values() for sat in con]
    epoch = satellites[0].tle.epoch + cfg.start_day_offset * 86400.0
    return constellations, satellites, epoch


def _deploy_stations(site: MeasurementSite) -> List[GroundStation]:
    return [GroundStation(station_id=f"{site.code}-{i + 1}",
                          site=site.code, location=site.location)
            for i in range(site.station_count)]


def _run_site(cfg: PassiveCampaignConfig, code: str,
              satellites: Sequence[Satellite], epoch: Epoch,
              cache: Optional[EphemerisCache],
              ) -> Tuple[SiteResult, Dict[str, int]]:
    """Simulate one site — a pure function of ``(config, site)``.

    RNG streams are derived from ``(seed, site, norad, per-site pass
    index)``, never from cross-site state, which is what makes the
    result independent of which other sites run, in which order, and in
    which process.  Returns the site's result and its work counters
    (:class:`~satiot.runtime.telemetry.ShardTelemetry` fields); the
    executor times the shard.
    """
    stats0 = cache.stats.snapshot() if cache is not None else (0,) * 8

    streams = RngStreams(cfg.seed)
    site = SITES[code]
    stations = _deploy_stations(site)
    scheduler = Scheduler(stations,
                          min_elevation_deg=cfg.min_elevation_deg)
    schedule = scheduler.build_schedule(
        satellites, epoch, cfg.duration_s,
        coarse_step_s=cfg.coarse_step_s, ephemeris_cache=cache)
    weather = WeatherProcess(site.weather, cfg.duration_s,
                             streams.get(f"weather/{code}"))
    receiver = BeaconReceiver(
        channel_params=cfg.channel_params,
        link_overrides={
            "implementation_loss_db": 1.0 + site.environment_loss_db})

    pass_index: Dict[int, int] = {}
    pass_ids, rngs = [], []
    for scheduled in schedule.assigned:
        norad = scheduled.satellite.norad_id
        k = pass_index.get(norad, 0)
        pass_index[norad] = k + 1
        pass_ids.append(f"{code}-{norad}-{k}")
        rngs.append(streams.get(f"rx/{code}/{norad}/{k}"))
    receptions = receiver.receive_passes(schedule.assigned, epoch,
                                         pass_ids, rngs, weather=weather)

    site_result = SiteResult(site=site, stations=stations,
                             schedule=schedule, receptions=receptions,
                             weather=weather)
    stats1 = cache.stats.snapshot() if cache is not None else stats0
    counters = {
        "passes": len(schedule.assigned),
        "beacons": sum(r.beacons_sent for r in receptions),
        "traces": sum(len(r.traces) for r in receptions),
        # Grid lookups: the cache's only memoized product.
        "cache_hits": stats1[0] - stats0[0],
        "cache_misses": stats1[1] - stats0[1],
        "grid_bytes": (cache.grid_resident_bytes()
                       if cache is not None else 0),
    }
    return site_result, counters


def _resolve_cache(spec) -> Optional[EphemerisCache]:
    """Turn a cache spec (object, sentinel, path or None) into a cache."""
    if spec is None:
        return None
    if isinstance(spec, EphemerisCache):
        return spec
    if spec == DEFAULT_CACHE:
        return get_default_cache()
    return EphemerisCache(disk_dir=spec)


def _site_shard_worker(shard: Shard,
                       ) -> Tuple[SiteResult, Dict[str, int]]:
    """Shard entry point: simulate one site from its payload."""
    return _run_site(*shard.payload)


# ----------------------------------------------------------------------
class PassiveCampaign:
    """Runs the passive measurement campaign.

    Parameters
    ----------
    config:
        Campaign configuration (defaults to the paper's setup).
    workers:
        Shard worker count; ``None`` defers to ``SATIOT_WORKERS`` (and
        then to 1, serial), ``0`` means one worker per CPU.  Parallel
        and serial runs produce bit-identical trace datasets.
    ephemeris_cache:
        ``"default"`` (the process-wide cache), ``None`` (disable
        caching), a directory path (disk-backed cache) or an
        :class:`~satiot.runtime.EphemerisCache` instance.
    """

    def __init__(self, config: Optional[PassiveCampaignConfig] = None,
                 workers: Optional[int] = None,
                 ephemeris_cache=DEFAULT_CACHE) -> None:
        self.config = config or PassiveCampaignConfig()
        self.workers = workers
        self.ephemeris_cache = ephemeris_cache

    # ------------------------------------------------------------------
    def run(self) -> PassiveCampaignResult:
        cfg = self.config
        t0 = time.perf_counter()
        constellations, satellites, epoch = _campaign_inputs(cfg)
        cache = _resolve_cache(self.ephemeris_cache)
        shards = [Shard(index=i, kind="site", key=code,
                        payload=(cfg, code, satellites, epoch, cache))
                  for i, code in enumerate(cfg.sites)]
        executor = ShardExecutor(self.workers)
        outcomes = executor.map(_site_shard_worker, shards)

        result = PassiveCampaignResult(
            config=cfg, epoch=epoch, constellations=constellations,
            site_results={})
        for code, outcome in zip(cfg.sites, outcomes):
            site_result, _ = outcome.result
            result.site_results[code] = site_result
            for reception in site_result.receptions:
                # Column blocks are adopted wholesale (no per-row
                # work); the dataset concatenates arrays lazily on
                # first columnar access.
                result.dataset.extend(reception.traces)
        result.telemetry = CampaignTelemetry.from_outcomes(
            executor, outcomes, time.perf_counter() - t0,
            [outcome.result[1] for outcome in outcomes])
        return result
