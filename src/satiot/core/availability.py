"""Global accessibility analysis (paper Section 3.1, Figure 3).

Computes the daily presence duration of each constellation at each site
(union of its satellites' theoretical windows), and the signal-strength
statistics extracted from the received-beacon traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..constellations.catalog import Constellation
from ..groundstation.receiver import PassReception
from ..orbits.passes import find_passes_fleet
from ..orbits.timebase import Epoch
from ..orbits.frames import GeodeticPoint
from .stats import merge_intervals, total_length


def _traces_column(receptions: Sequence[PassReception],
                   name: str) -> np.ndarray:
    """Concatenate one numeric trace column across receptions.

    Each reception's traces are column-backed, so this is a handful of
    array concatenations — never a per-trace Python loop.
    """
    arrays = [r.traces.column(name) for r in receptions
              if len(r.traces)]
    if not arrays:
        return np.empty(0, dtype=np.float64)
    return np.concatenate(arrays)

__all__ = ["daily_presence_hours", "presence_by_site",
           "RssiStats", "rssi_stats", "rssi_vs_distance"]


def daily_presence_hours(constellation: Constellation,
                         location: GeodeticPoint,
                         epoch: Epoch,
                         days: float = 1.0,
                         min_elevation_deg: float = 0.0,
                         coarse_step_s: float = 30.0) -> float:
    """Hours per day with at least one constellation satellite overhead.

    This is the paper's Figure 3a metric: the theoretical availability
    duration of a constellation at a spot, from TLE propagation.
    """
    if days <= 0:
        raise ValueError("days must be positive")
    span_s = days * 86400.0
    per_sat = find_passes_fleet(
        [satellite.propagator for satellite in constellation], [location],
        epoch, span_s, coarse_step_s=coarse_step_s,
        min_elevation_deg=min_elevation_deg)
    merged = merge_intervals((window.rise_s, window.set_s)
                             for rows in per_sat for window in rows[0])
    return total_length(merged) / span_s * 24.0


def presence_by_site(constellations: Dict[str, Constellation],
                     locations: Dict[str, GeodeticPoint],
                     epoch: Epoch, days: float = 1.0,
                     min_elevation_deg: float = 0.0,
                     ) -> Dict[str, Dict[str, float]]:
    """Daily presence hours for every (constellation, site) pair."""
    return {
        con_name: {
            site: daily_presence_hours(con, loc, epoch, days,
                                       min_elevation_deg)
            for site, loc in locations.items()
        }
        for con_name, con in constellations.items()
    }


@dataclass(frozen=True)
class RssiStats:
    """Signal-strength distribution of received beacons (Figure 3b)."""

    count: int
    mean_dbm: float
    median_dbm: float
    p10_dbm: float
    p90_dbm: float


def rssi_stats(receptions: Sequence[PassReception]) -> RssiStats:
    values = _traces_column(receptions, "rssi_dbm")
    if values.size == 0:
        nan = float("nan")
        return RssiStats(0, nan, nan, nan, nan)
    return RssiStats(
        count=int(values.size),
        mean_dbm=float(values.mean()),
        median_dbm=float(np.median(values)),
        p10_dbm=float(np.percentile(values, 10)),
        p90_dbm=float(np.percentile(values, 90)),
    )


def rssi_vs_distance(receptions: Sequence[PassReception],
                     bin_edges_km: Sequence[float],
                     ) -> List[Tuple[float, float, int]]:
    """Median RSSI per slant-range bin (Figure 3c).

    Returns (bin_center_km, median_rssi_dbm, count) per non-empty bin.
    """
    edges = np.asarray(list(bin_edges_km), dtype=float)
    if len(edges) < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("bin edges must be increasing, length >= 2")
    distances = _traces_column(receptions, "range_km")
    rssi = _traces_column(receptions, "rssi_dbm")
    out: List[Tuple[float, float, int]] = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (distances >= lo) & (distances < hi)
        if not np.any(mask):
            continue
        out.append((float(0.5 * (lo + hi)),
                    float(np.median(rssi[mask])),
                    int(np.sum(mask))))
    return out
