"""Beacon reception simulation for scheduled passes.

For every beacon the satellite broadcasts inside a contact window, the
receiver evaluates the stochastic DtS downlink and logs the decode into
a columnar :class:`~satiot.groundstation.traces.TraceColumns` block —
no per-beacon Python objects are allocated on this hot path.  All
passes share one beacon-geometry gather; each then runs its own
channel.  The per-pass summary (first/last reception) is what defines
the paper's *effective duration* of a contact window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..network.beacon import BeaconTrain, build_beacon_trains
from ..orbits.timebase import Epoch
from ..phy.channel import ChannelParams, DtSChannel
from ..phy.link_budget import LinkBudget
from ..phy.lora import LoRaModulation
from ..sim.weather import WeatherProcess
from .scheduler import ScheduledPass
from .traces import TraceColumns, TraceDataset

__all__ = ["PassReception", "BeaconReceiver"]


@dataclass
class PassReception:
    """Outcome of listening to one scheduled pass."""

    scheduled: ScheduledPass
    #: Shard-invariant identifier ``"{site}-{norad}-{k}"``.
    pass_id: str
    beacons_sent: int
    beacons_received: int
    first_rx_s: Optional[float]
    last_rx_s: Optional[float]
    raining: bool
    #: Column-backed traces of this pass (iterable of
    #: :class:`~satiot.groundstation.traces.BeaconTrace` row views).
    traces: TraceDataset = field(default_factory=TraceDataset)

    @property
    def effective_duration_s(self) -> float:
        """Span between first and last received beacon (paper Sec. 3.1)."""
        if self.first_rx_s is None or self.last_rx_s is None:
            return 0.0
        return self.last_rx_s - self.first_rx_s

    @property
    def reception_rate(self) -> float:
        if self.beacons_sent == 0:
            return 0.0
        return self.beacons_received / self.beacons_sent

    @property
    def heard_anything(self) -> bool:
        return self.beacons_received > 0


class BeaconReceiver:
    """Simulates a ground station listening through scheduled passes."""

    def __init__(self, channel_params: Optional[ChannelParams] = None,
                 link_overrides: Optional[dict] = None) -> None:
        self.channel_params = channel_params or ChannelParams()
        self.link_overrides = dict(link_overrides or {})

    # ------------------------------------------------------------------
    def _build_channel(self, scheduled: ScheduledPass) -> DtSChannel:
        radio = scheduled.satellite.radio
        budget = LinkBudget(
            eirp_dbm=radio.beacon_eirp_dbm,
            frequency_hz=radio.frequency_hz,
            **self.link_overrides)
        modulation = LoRaModulation(
            spreading_factor=radio.spreading_factor,
            bandwidth_hz=radio.bandwidth_hz,
            coding_rate=radio.coding_rate,
            preamble_symbols=radio.preamble_symbols,
            explicit_header=radio.explicit_header,
            low_data_rate_optimize=radio.low_data_rate_optimize)
        return DtSChannel(budget, modulation, self.channel_params)

    # ------------------------------------------------------------------
    def receive_pass(self, scheduled: ScheduledPass, epoch: Epoch,
                     pass_id: str, rng: np.random.Generator,
                     weather: Optional[WeatherProcess] = None,
                     ) -> PassReception:
        """One scheduled pass: the one-pass case of :meth:`receive_passes`."""
        return self.receive_passes([scheduled], epoch, [pass_id], [rng],
                                   weather)[0]

    def receive_passes(self, scheduled: Sequence[ScheduledPass],
                       epoch: Epoch, pass_ids: Sequence[str],
                       rngs: Sequence[np.random.Generator],
                       weather: Optional[WeatherProcess] = None,
                       ) -> List[PassReception]:
        """Simulate many passes, pass ``i`` with ``rngs[i]``: one
        :func:`~satiot.network.beacon.build_beacon_trains` gather, then
        each pass's channel, so reception ``i`` equals
        :meth:`receive_pass` on pass ``i`` byte for byte."""
        if not len(scheduled) == len(pass_ids) == len(rngs):
            raise ValueError("need one pass id and one generator per pass")
        trains = build_beacon_trains(
            [(sp.satellite, sp.window, sp.station.location, rng, None)
             for sp, rng in zip(scheduled, rngs)], epoch)
        return [self._listen(sp, train, pass_id, rng, weather)
                for sp, train, pass_id, rng in zip(scheduled, trains,
                                                   pass_ids, rngs)]

    def _listen(self, scheduled: ScheduledPass, train: BeaconTrain,
                pass_id: str, rng: np.random.Generator,
                weather: Optional[WeatherProcess]) -> PassReception:
        """Run one pass's beacon train through its channel."""
        radio = scheduled.satellite.radio
        window = scheduled.window
        station = scheduled.station
        times = train.times_s
        raining = bool(weather.is_raining(window.midpoint_s)) \
            if weather is not None else False
        if len(times) == 0:
            return PassReception(scheduled, pass_id, 0, 0, None, None,
                                 raining)

        elevation = train.elevation_deg
        rng_km = train.range_km
        shift = train.doppler_shift_hz

        channel = self._build_channel(scheduled)
        samples = channel.simulate_packets(
            times_s=times,
            elevation_deg=elevation,
            range_km=rng_km,
            doppler_shift_hz=shift,
            doppler_rate_hz_s=train.doppler_rate_hz_s,
            payload_bytes=radio.beacon_payload_bytes,
            rng=rng,
            rx_gain_dbi=station.rx_gain_dbi(elevation),
            raining=raining)

        received_idx = np.nonzero(samples.received)[0]
        # Emit a column block directly from the packet samples: pure
        # array gathers plus broadcast scalars — no per-beacon objects.
        block = TraceColumns.from_arrays(
            n=int(received_idx.size),
            time_s=times[received_idx],
            station_id=station.station_id,
            site=station.site,
            constellation=scheduled.satellite.constellation_name,
            satellite=scheduled.satellite.name,
            norad_id=scheduled.satellite.norad_id,
            frequency_hz=radio.frequency_hz,
            rssi_dbm=samples.rssi_dbm[received_idx],
            snr_db=samples.snr_db[received_idx],
            elevation_deg=elevation[received_idx],
            azimuth_deg=train.azimuth_deg[received_idx],
            range_km=rng_km[received_idx],
            doppler_hz=shift[received_idx],
            raining=raining,
            pass_id=pass_id,
        )
        first_rx = float(times[received_idx[0]]) if len(received_idx) else None
        last_rx = float(times[received_idx[-1]]) if len(received_idx) else None
        return PassReception(
            scheduled=scheduled, pass_id=pass_id,
            beacons_sent=len(times),
            beacons_received=int(len(received_idx)),
            first_rx_s=first_rx, last_rx_s=last_rx,
            raining=raining, traces=TraceDataset(block))
