"""Plottable data series for every figure of the paper.

The benchmarks print summary tables; this module exposes the *full*
distributions behind them — CDFs, histograms and bar groups shaped like
the paper's plots — so a notebook can regenerate each figure with two
lines of matplotlib.  Each builder consumes campaign results and returns
a :class:`FigureSeries` of named ``(x, y)`` arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..network.packets import PacketRecord
from ..network.terrestrial import TerrestrialRecord
from .campaign import PassiveCampaignResult
from .contacts import analyze_contacts, trace_distances_km, \
    window_position_fractions
from .sites import CONTINENT_SITES, SITES
from .availability import presence_by_site
from .stats import empirical_cdf

__all__ = ["FigureSeries", "fig3a_presence_bars", "fig3b_rssi_cdfs",
           "fig3c_rssi_vs_distance_curve", "fig4a_duration_cdfs",
           "fig4b_interval_cdfs", "fig5b_retransmission_cdf",
           "fig5c_latency_cdfs", "fig8_distance_cdfs",
           "fig9_window_histogram"]

Series = Tuple[np.ndarray, np.ndarray]


@dataclass
class FigureSeries:
    """Named data series with axis labels, ready for plotting."""

    figure: str
    xlabel: str
    ylabel: str
    series: Dict[str, Series] = field(default_factory=dict)

    def add(self, name: str, x: np.ndarray, y: np.ndarray) -> None:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != y.shape:
            raise ValueError(f"series {name!r}: x/y shape mismatch")
        self.series[name] = (x, y)

    def names(self) -> List[str]:
        return list(self.series)


# ----------------------------------------------------------------------
# Passive campaign figures.
# ----------------------------------------------------------------------
def fig3a_presence_bars(result: PassiveCampaignResult,
                        ) -> FigureSeries:
    """Daily presence per constellation across the continent sites."""
    out = FigureSeries("3a", xlabel="site index", ylabel="hours/day")
    sites = [code for code in CONTINENT_SITES
             if code in result.site_results]
    x = np.arange(len(sites), dtype=float)
    hours = presence_by_site(
        result.constellations,
        {code: SITES[code].location for code in sites}, result.epoch)
    for name, constellation in sorted(result.constellations.items()):
        out.add(constellation.name, x,
                np.asarray([hours[name][code] for code in sites]))
    return out


def fig3b_rssi_cdfs(result: PassiveCampaignResult) -> FigureSeries:
    """CDF of received-beacon RSSI per constellation."""
    out = FigureSeries("3b", xlabel="RSSI (dBm)", ylabel="CDF")
    for name, constellation in sorted(result.constellations.items()):
        values = result.dataset.by_constellation(name) \
            .column("rssi_dbm")
        if values.size == 0:
            continue
        x, p = empirical_cdf(values)
        out.add(constellation.name, x, p)
    return out


def fig3c_rssi_vs_distance_curve(result: PassiveCampaignResult,
                                 bin_width_km: float = 250.0,
                                 ) -> FigureSeries:
    """Median Tianqi RSSI against slant range."""
    out = FigureSeries("3c", xlabel="distance (km)",
                       ylabel="median RSSI (dBm)")
    tianqi = result.dataset.by_constellation("tianqi")
    if not len(tianqi):
        return out
    distance = tianqi.column("range_km")
    rssi = tianqi.column("rssi_dbm")
    edges = np.arange(distance.min(), distance.max() + bin_width_km,
                      bin_width_km)
    centers, medians = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (distance >= lo) & (distance < hi)
        if mask.sum() < 5:
            continue
        centers.append(0.5 * (lo + hi))
        medians.append(np.median(rssi[mask]))
    out.add("Tianqi", np.asarray(centers), np.asarray(medians))
    return out


def _per_constellation_stats(result: PassiveCampaignResult):
    for name, constellation in sorted(result.constellations.items()):
        receptions = [r for code in result.site_results
                      for r in result.receptions(code, name)]
        yield constellation.name, receptions


def fig4a_duration_cdfs(result: PassiveCampaignResult) -> FigureSeries:
    """CDFs of theoretical vs effective contact durations (minutes)."""
    out = FigureSeries("4a", xlabel="contact duration (min)",
                       ylabel="CDF")
    for name, receptions in _per_constellation_stats(result):
        stats = analyze_contacts(receptions, result.duration_s)
        if stats.theoretical_durations_s:
            x, p = empirical_cdf(
                np.asarray(stats.theoretical_durations_s) / 60.0)
            out.add(f"{name} theoretical", x, p)
        if stats.effective_durations_s:
            x, p = empirical_cdf(
                np.asarray(stats.effective_durations_s) / 60.0)
            out.add(f"{name} effective", x, p)
    return out


def fig4b_interval_cdfs(result: PassiveCampaignResult) -> FigureSeries:
    """CDFs of theoretical vs effective contact intervals (minutes)."""
    out = FigureSeries("4b", xlabel="contact interval (min)",
                       ylabel="CDF")
    for name, receptions in _per_constellation_stats(result):
        stats = analyze_contacts(receptions, result.duration_s)
        if stats.theoretical_intervals_s:
            x, p = empirical_cdf(
                np.asarray(stats.theoretical_intervals_s) / 60.0)
            out.add(f"{name} theoretical", x, p)
        if stats.effective_intervals_s:
            x, p = empirical_cdf(
                np.asarray(stats.effective_intervals_s) / 60.0)
            out.add(f"{name} effective", x, p)
    return out


def fig8_distance_cdfs(result: PassiveCampaignResult) -> FigureSeries:
    """CDFs of DtS slant ranges per constellation (km)."""
    out = FigureSeries("8", xlabel="distance (km)", ylabel="CDF")
    for name, receptions in _per_constellation_stats(result):
        distances = trace_distances_km(receptions)
        if len(distances) == 0:
            continue
        x, p = empirical_cdf(distances)
        out.add(name, x, p)
    return out


def fig9_window_histogram(result: PassiveCampaignResult,
                          bins: int = 10) -> FigureSeries:
    """Histogram of reception positions within contact windows."""
    out = FigureSeries("9", xlabel="normalized window position",
                       ylabel="fraction of receptions")
    receptions = [r for sr in result.site_results.values()
                  for r in sr.receptions]
    positions = window_position_fractions(receptions)
    if positions.size == 0:
        return out
    hist, edges = np.histogram(positions, bins=bins, range=(0.0, 1.0))
    centers = 0.5 * (edges[:-1] + edges[1:])
    out.add("all constellations", centers, hist / hist.sum())
    return out


# ----------------------------------------------------------------------
# Active campaign figures.
# ----------------------------------------------------------------------
def fig5b_retransmission_cdf(records: Sequence[PacketRecord],
                             ) -> FigureSeries:
    """CDF of per-packet DtS retransmission counts."""
    out = FigureSeries("5b", xlabel="DtS retransmissions", ylabel="CDF")
    counts = [r.retransmissions for r in records if r.attempts]
    if counts:
        x, p = empirical_cdf(counts)
        out.add("Tianqi", x, p)
    return out


def fig5c_latency_cdfs(satellite_records: Sequence[PacketRecord],
                       terrestrial_records: Sequence[TerrestrialRecord],
                       ) -> FigureSeries:
    """CDFs of end-to-end latency (minutes), both systems."""
    out = FigureSeries("5c", xlabel="latency (min)", ylabel="CDF")
    sat = [r.total_latency_s / 60.0 for r in satellite_records
           if r.delivered]
    terr = [r.total_latency_s / 60.0 for r in terrestrial_records
            if r.delivered]
    if sat:
        x, p = empirical_cdf(sat)
        out.add("satellite", x, p)
    if terr:
        x, p = empirical_cdf(terr)
        out.add("terrestrial", x, p)
    return out
