"""Stochastic DtS channel: shadowing, fast fading, Doppler impairment.

Combines the deterministic :class:`~satiot.phy.link_budget.LinkBudget`
with temporally-correlated log-normal shadowing (AR(1) / Gauss-Markov),
per-packet fast fading, and a Doppler-rate penalty, to produce the
per-packet RSSI/SNR samples and reception outcomes the campaigns record.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Optional, Union

import numpy as np

from .error_model import reception_probability
from .link_budget import LinkBudget
from .lora import LoRaModulation, noise_floor_dbm

__all__ = ["ChannelParams", "PacketSamples", "DtSChannel",
           "ar1_shadowing_db"]

ArrayLike = Union[float, np.ndarray]


def ar1_shadowing_db(times_s: np.ndarray, sigma_db: float,
                     correlation_time_s: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Correlated log-normal shadowing samples along a time series.

    Gauss-Markov process: consecutive samples at spacing ``dt`` have
    correlation ``exp(-dt / correlation_time_s)`` and stationary standard
    deviation ``sigma_db``.  Handles non-uniform spacing.
    """
    t = np.asarray(times_s, dtype=float)
    n = t.shape[0]
    out = np.empty(n)
    if n == 0:
        return out
    if sigma_db < 0 or correlation_time_s <= 0:
        raise ValueError("sigma must be >= 0 and correlation time > 0")
    out[0] = rng.normal(0.0, sigma_db)
    if n == 1:
        return out
    dt = np.diff(t)
    if np.any(dt < 0):
        raise ValueError("times must be non-decreasing")
    rho = np.exp(-dt / correlation_time_s)
    innov = rng.normal(0.0, 1.0, size=n - 1) * sigma_db * np.sqrt(1 - rho**2)
    # The recurrence in Python floats: the same IEEE multiply-then-add
    # as NumPy scalars, without their per-step boxing.
    prev = float(out[0])
    series = []
    for r, e in zip(rho.tolist(), innov.tolist()):
        prev = r * prev + e
        series.append(prev)
    out[1:] = series
    return out


@dataclass(frozen=True)
class ChannelParams:
    """Stochastic channel configuration (calibration knobs)."""

    shadowing_sigma_db: float = 3.0
    shadowing_correlation_s: float = 20.0
    #: Pass-scale shadowing: one draw per pass, modelling azimuth-dependent
    #: blockage (buildings, terrain) that makes entire passes deaf while
    #: leaving others clean — the dominant cause of zero-reception windows.
    pass_sigma_db: float = 7.0
    fast_fading_sigma_db: float = 2.0
    rain_extra_sigma_db: float = 1.5
    doppler_penalty_db_per_bin: float = 1.2
    max_doppler_penalty_db: float = 4.0
    per_slope_db: float = 1.0

    def __post_init__(self) -> None:
        if self.shadowing_sigma_db < 0 or self.fast_fading_sigma_db < 0:
            raise ValueError("fading sigmas must be non-negative")
        if self.shadowing_correlation_s <= 0:
            raise ValueError("shadowing correlation time must be positive")
        if self.per_slope_db <= 0:
            raise ValueError("PER slope must be positive")


@dataclass
class PacketSamples:
    """Vector of simulated packet receptions along a pass."""

    times_s: np.ndarray
    rssi_dbm: np.ndarray
    snr_db: np.ndarray
    received: np.ndarray          # bool
    doppler_shift_hz: np.ndarray

    def __len__(self) -> int:
        return len(self.times_s)

    @property
    def reception_rate(self) -> float:
        if len(self.times_s) == 0:
            return 0.0
        return float(np.mean(self.received))


class DtSChannel:
    """End-to-end stochastic channel for one direction of a DtS link.

    Parameters
    ----------
    budget:
        Deterministic link budget (EIRP, frequency, excess-loss shape).
    modulation:
        LoRa configuration; sets the noise floor and demod threshold.
    params:
        Stochastic knobs.
    """

    def __init__(self, budget: LinkBudget, modulation: LoRaModulation,
                 params: Optional[ChannelParams] = None) -> None:
        self.budget = budget
        self.modulation = modulation
        self.params = params or ChannelParams()
        self._noise_floor = noise_floor_dbm(modulation.bandwidth_hz)

    # ------------------------------------------------------------------
    def doppler_penalty_db(self, doppler_rate_hz_s: ArrayLike,
                           airtime_s: float) -> ArrayLike:
        """SNR penalty from intra-packet Doppler drift.

        Drift during a packet, measured in demodulator bins, degrades the
        chirp correlation peak.  Static offset is tolerated by the SX126x
        front end and is not penalised.
        """
        drift_bins = (np.abs(np.asarray(doppler_rate_hz_s, dtype=float))
                      * airtime_s / self.modulation.bin_width_hz)
        penalty = np.minimum(
            self.params.doppler_penalty_db_per_bin * drift_bins,
            self.params.max_doppler_penalty_db)
        if np.ndim(doppler_rate_hz_s) == 0:
            return float(penalty)
        return penalty

    # ------------------------------------------------------------------
    def simulate_packets(self,
                         times_s: np.ndarray,
                         elevation_deg: np.ndarray,
                         range_km: np.ndarray,
                         doppler_shift_hz: np.ndarray,
                         doppler_rate_hz_s: np.ndarray,
                         payload_bytes: int,
                         rng: np.random.Generator,
                         rx_gain_dbi: ArrayLike = None,
                         raining: ArrayLike = False,
                         pass_offset_db: Optional[float] = None,
                         ) -> PacketSamples:
        """Simulate reception of a train of packets along a pass.

        All array arguments share the same length N; returns per-packet
        RSSI/SNR and reception outcome.  ``pass_offset_db`` overrides
        the internally drawn pass-scale shadowing — co-located receivers
        experiencing the same geometry should share one draw.
        """
        times = np.asarray(times_s, dtype=float)
        n = len(times)
        if n == 0:
            empty = np.empty(0)
            return PacketSamples(empty, empty, empty,
                                 np.empty(0, dtype=bool), empty)

        mean_rssi = self.budget.mean_rssi_dbm(
            np.asarray(range_km, dtype=float),
            np.asarray(elevation_deg, dtype=float),
            rx_gain_dbi=rx_gain_dbi,
            raining=raining)

        sigma_extra = np.where(np.asarray(raining, dtype=bool),
                               self.params.rain_extra_sigma_db, 0.0)
        if pass_offset_db is not None:
            pass_offset = float(pass_offset_db)
        else:
            pass_offset = rng.normal(0.0, self.params.pass_sigma_db) \
                if self.params.pass_sigma_db > 0 else 0.0
        shadowing = pass_offset + ar1_shadowing_db(
            times, self.params.shadowing_sigma_db,
            self.params.shadowing_correlation_s, rng)
        fast = rng.normal(0.0, 1.0, size=n) * (
            self.params.fast_fading_sigma_db + sigma_extra)

        rssi = np.asarray(mean_rssi) + shadowing + fast
        airtime = self.modulation.airtime_s(payload_bytes)
        dop_pen = self.doppler_penalty_db(
            np.asarray(doppler_rate_hz_s, dtype=float), airtime)
        snr = rssi - self._noise_floor - dop_pen

        p_rx = reception_probability(snr, self.modulation.snr_limit_db,
                                     self.params.per_slope_db)
        received = rng.random(n) < p_rx
        return PacketSamples(times_s=times, rssi_dbm=rssi, snr_db=snr,
                             received=received,
                             doppler_shift_hz=np.asarray(doppler_shift_hz,
                                                         dtype=float))
