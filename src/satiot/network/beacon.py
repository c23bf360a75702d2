"""Beacon-train generation.

One satellite transmits one beacon train per pass; both the passive
receiver and the active campaign sample it.  Centralising the train
construction keeps their timing conventions identical: a random phase
within one period (the node does not know the satellite's schedule),
then strictly periodic beacons until the window closes.

:func:`build_beacon_trains` computes the geometry of many passes in one
gather; :func:`build_beacon_train` is its one-pass case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..constellations.catalog import DtSRadioProfile, Satellite
from ..orbits.doppler import doppler_rate_hz_s, doppler_shift_hz
from ..orbits.frames import GeodeticPoint
from ..orbits.passes import ContactWindow, observer_geometry
from ..orbits.sgp4_batch import SGP4Batch
from ..orbits.timebase import Epoch
from ..orbits.topocentric import ecef_states, look_angles_from_ecef

__all__ = ["BeaconTrain", "build_beacon_train", "build_beacon_trains"]


@dataclass(frozen=True)
class BeaconTrain:
    """The beacons of one pass with their link geometry."""

    satellite_norad: int
    frequency_hz: float
    times_s: np.ndarray
    elevation_deg: np.ndarray
    azimuth_deg: np.ndarray
    range_km: np.ndarray
    range_rate_km_s: np.ndarray
    doppler_shift_hz: np.ndarray
    doppler_rate_hz_s: np.ndarray

    def __len__(self) -> int:
        return len(self.times_s)

    def __post_init__(self) -> None:
        n = len(self.times_s)
        for name in ("elevation_deg", "azimuth_deg", "range_km",
                     "range_rate_km_s", "doppler_shift_hz",
                     "doppler_rate_hz_s"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length mismatch")


def _distinct(objects: Sequence) -> Tuple[list, List[int]]:
    """Distinct objects by identity, and each one's row among them."""
    rows: dict = {}
    index = [rows.setdefault(id(o), (len(rows), o))[0] for o in objects]
    return [o for _, o in rows.values()], index


def build_beacon_train(satellite: Satellite, window: ContactWindow,
                       observer: GeodeticPoint, epoch: Epoch,
                       rng: np.random.Generator,
                       radio: Optional[DtSRadioProfile] = None,
                       ) -> BeaconTrain:
    """Beacon times and per-beacon geometry for one pass.

    The phase of the train within the window is drawn from ``rng`` (one
    uniform over a beacon period), so a shared generator reproduces the
    same train for every observer of the pass.  This is the one-pass
    case of :func:`build_beacon_trains`.
    """
    return build_beacon_trains(
        [(satellite, window, observer, rng, radio)], epoch)[0]


def build_beacon_trains(passes: Sequence[tuple],
                        epoch: Epoch) -> List[BeaconTrain]:
    """Beacon trains of ``(satellite, window, observer, rng, radio)``
    passes (``radio`` None for the satellite's own).

    Each pass draws its phase from its own ``rng``, in pass order, even
    when its train is empty; then one SGP4 gather, TEME→ECEF conversion
    and SEZ projection cover every beacon.  All three are element-wise,
    so train ``i`` (and ``rng``) equals the one-pass call's bit for bit,
    and a decayed satellite raises where a pass-by-pass loop would.
    """
    if not passes:
        return []
    radios = [radio or satellite.radio for satellite, *_, radio in passes]
    times = []
    for (_, window, _, rng, _), radio in zip(passes, radios):
        period = radio.beacon_period_s
        phase = float(rng.uniform(0.0, period))
        times.append(np.arange(window.rise_s + phase, window.set_s,
                               period))
    counts = [len(t) for t in times]
    t = np.concatenate(times)
    props, sat_rows = _distinct([p[0].propagator for p in passes])
    observers, obs_rows = _distinct([p[2] for p in passes])
    sat, obs = np.repeat(sat_rows, counts), np.repeat(obs_rows, counts)
    deltas = np.array([float(epoch - p.tle.epoch) for p in props])
    r, v = SGP4Batch.from_propagators(props).propagate_pairs(
        sat, deltas[sat] + t)
    sites, rots = (np.stack(a) for a in zip(*observer_geometry(observers)))
    look = look_angles_from_ecef(
        None, *ecef_states(r, v, epoch.offset_jd(t)), sites[obs], rots[obs])
    columns = (look.elevation_deg, look.azimuth_deg, look.range_km,
               look.range_rate_km_s)

    trains = []
    bounds = np.cumsum([0] + counts)
    for (satellite, *_), radio, times_s, lo, hi in zip(
            passes, radios, times, bounds[:-1], bounds[1:]):
        geometry = [column[lo:hi] for column in columns]
        range_rate = geometry[-1]
        shift = np.asarray(doppler_shift_hz(range_rate, radio.frequency_hz))
        rate = (doppler_rate_hz_s(range_rate, radio.beacon_period_s,
                                  radio.frequency_hz)
                if len(times_s) >= 2 else np.zeros_like(times_s))
        trains.append(BeaconTrain(satellite.norad_id, radio.frequency_hz,
                                  times_s, *geometry, shift,
                                  np.asarray(rate)))
    return trains
