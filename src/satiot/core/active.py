"""Active measurement campaign with the Tianqi constellation
(paper Sections 2.3 and 3.2, Appendices B and E).

Three battery-powered Tianqi nodes at a Yunnan coffee plantation send a
20-byte reading every 30 minutes through the Tianqi constellation to an
application server; a terrestrial LoRaWAN with LTE backhaul carries the
same readings for comparison.  The campaign produces everything the
paper's Figures 5, 6, 11 and 12 are drawn from: per-packet delivery
records with full timestamp decomposition, retransmission counts,
per-mode energy timelines, and payload/concurrency sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..constellations.catalog import Constellation, Satellite, \
    build_constellation
from ..energy.accounting import EnergyBreakdown
from ..energy.behavior import TerrestrialBehavior, TianqiBehavior
from ..network.beacon import build_beacon_trains
from ..network.mac import BeaconOpportunity, DtSMac, MacConfig
from ..network.packets import PacketRecord, SensorReading
from ..network.server import finalize_deliveries
from ..network.store_forward import (TIANQI_GROUND_STATIONS, GroundSegment,
                                     SatelliteBuffer)
from ..network.terrestrial import TerrestrialLoRaWAN, TerrestrialRecord
from ..orbits.frames import GeodeticPoint
from ..orbits.passes import ContactWindow, find_passes_fleet
from ..orbits.timebase import Epoch
from ..phy.antennas import ANTENNAS_BY_NAME, Antenna
from ..phy.channel import ChannelParams, DtSChannel
from ..phy.error_model import reception_probability
from ..phy.link_budget import LinkBudget
from ..phy.lora import LoRaModulation
from ..sim.rng import RngStreams
from ..sim.weather import WeatherParams, WeatherProcess
from .stats import merge_intervals, total_length

__all__ = ["ActiveCampaignConfig", "ActiveCampaignResult", "ActiveCampaign",
           "YUNNAN_PLANTATION"]

#: Coffee plantation in Yunnan near the Chinese border (paper Appendix B).
YUNNAN_PLANTATION = GeodeticPoint(21.95, 100.85, 1.2)


@dataclass(frozen=True)
class ActiveCampaignConfig:
    """Configuration of the active Tianqi campaign."""

    days: float = 10.0
    node_count: int = 3
    payload_bytes: int = 20
    reading_interval_s: float = 1800.0
    max_retransmissions: int = 5
    antenna_name: str = "five_eighths_wave"
    site: GeodeticPoint = YUNNAN_PLANTATION
    seed: int = 42
    weather: WeatherParams = WeatherParams(mean_dry_hours=30.0,
                                           mean_rain_hours=10.0)
    channel_params: Optional[ChannelParams] = None
    mac_config: Optional[MacConfig] = None
    #: Receiver deficit of the low-cost IoT node versus a TinyGS station
    #: (paper Appendix C factor 3: limited device capability).
    node_rx_penalty_db: float = 6.0
    #: Net SNR advantage of the data uplink over the beacon downlink.
    #: Negative by default: the node's PA gain is outweighed by the
    #: satellite-side noise/interference floor across its huge footprint
    #: (collisions, congestion — paper Section 3.1 takeaways).
    uplink_advantage_db: float = -7.5
    #: ACKs are short unsolicited downlink frames and decode a few dB
    #: worse than the periodic beacons the receiver synchronises to.
    ack_penalty_db: float = 2.0
    #: Airtime vulnerability: longer packets stay on air through more
    #: fading/Doppler drift, so uplink success decays with time-on-air
    #: (p -> p^(airtime/reference)).  Drives paper Fig. 12a.
    airtime_vulnerability_ref_s: float = 0.40
    #: Link-margin gate: the node only treats a beacon as a transmit
    #: opportunity when its SNR clears the demod threshold by this much
    #: (firmware saves the expensive DtS PA for workable links).
    min_beacon_margin_db: float = 1.5

    def __post_init__(self) -> None:
        if self.days <= 0:
            raise ValueError("campaign must span a positive number of days")
        if self.node_count <= 0:
            raise ValueError("need at least one node")
        if self.antenna_name not in ANTENNAS_BY_NAME:
            raise ValueError(f"unknown antenna {self.antenna_name!r}; "
                             f"choose from {sorted(ANTENNAS_BY_NAME)}")
        if self.reading_interval_s <= 0:
            raise ValueError("reading interval must be positive")

    @property
    def duration_s(self) -> float:
        return self.days * 86400.0

    @property
    def antenna(self) -> Antenna:
        return ANTENNAS_BY_NAME[self.antenna_name]


@dataclass
class ActiveCampaignResult:
    """All raw outputs of one active campaign run."""

    config: ActiveCampaignConfig
    epoch: Epoch
    constellation: Constellation
    readings: Dict[str, List[SensorReading]]
    satellite_records: Dict[str, List[PacketRecord]]
    terrestrial_records: Dict[str, List[TerrestrialRecord]]
    heard_beacons: Dict[str, List[BeaconOpportunity]]
    weather: WeatherProcess
    ground_segment: GroundSegment
    monitoring_rx_s: float
    tianqi_energy: Dict[str, EnergyBreakdown] = field(default_factory=dict)
    terrestrial_energy: Dict[str, EnergyBreakdown] = \
        field(default_factory=dict)

    # ------------------------------------------------------------------
    def all_satellite_records(self) -> List[PacketRecord]:
        return [r for records in self.satellite_records.values()
                for r in records]

    def all_terrestrial_records(self) -> List[TerrestrialRecord]:
        return [r for records in self.terrestrial_records.values()
                for r in records]

    def retransmission_counts(self) -> List[int]:
        """DtS retransmission count of every packet that was attempted."""
        return [r.retransmissions for r in self.all_satellite_records()
                if r.attempts]


class ActiveCampaign:
    """Runs the joint satellite/terrestrial active measurement.

    Parameters
    ----------
    config:
        Campaign configuration.
    ground_segment:
        Optional pre-built operator ground segment; sweeps that vary
        only node-side parameters can share one and skip its (orbital)
        reconstruction.  Must cover at least ``config.duration_s`` for
        the same constellation seed.
    """

    def __init__(self, config: Optional[ActiveCampaignConfig] = None,
                 ground_segment: Optional[GroundSegment] = None) -> None:
        self.config = config or ActiveCampaignConfig()
        self._shared_ground_segment = ground_segment
        if ground_segment is not None \
                and ground_segment.duration_s < self.config.duration_s:
            raise ValueError(
                "shared ground segment does not cover the campaign span")

    # ------------------------------------------------------------------
    def run(self) -> ActiveCampaignResult:
        cfg = self.config
        streams = RngStreams(cfg.seed)
        constellation = build_constellation("tianqi", seed=cfg.seed)
        epoch = constellation.satellites[0].tle.epoch
        weather = WeatherProcess(cfg.weather, cfg.duration_s,
                                 streams.get("weather/active"))

        readings = self._generate_readings(streams)
        windows = self._predict_windows(constellation, epoch)
        heard = self._hear_beacons(constellation, epoch, windows, weather,
                                   streams)

        buffers = {sat.norad_id: SatelliteBuffer(sat.norad_id)
                   for sat in constellation}
        mac = DtSMac(cfg.mac_config
                     or MacConfig(max_retransmissions=cfg.max_retransmissions),
                     buffers)
        records = mac.run(readings, heard, streams.get("mac"),
                          cfg.duration_s)

        ground_segment = self._shared_ground_segment
        if ground_segment is None:
            ground_segment = GroundSegment(constellation, epoch,
                                           cfg.duration_s,
                                           TIANQI_GROUND_STATIONS)
        finalize_deliveries(
            (r for node in records.values() for r in node), ground_segment)

        terrestrial = TerrestrialLoRaWAN().run(
            readings, streams.get("terrestrial"))

        monitoring_rx_s = self._monitoring_time(windows)
        result = ActiveCampaignResult(
            config=cfg, epoch=epoch, constellation=constellation,
            readings=readings, satellite_records=records,
            terrestrial_records=terrestrial, heard_beacons=heard,
            weather=weather, ground_segment=ground_segment,
            monitoring_rx_s=monitoring_rx_s)
        self._account_energy(result)
        return result

    # ------------------------------------------------------------------
    def _generate_readings(self, streams: RngStreams,
                           ) -> Dict[str, List[SensorReading]]:
        cfg = self.config
        out: Dict[str, List[SensorReading]] = {}
        for i in range(cfg.node_count):
            node_id = f"TQ-node-{i + 1}"
            # Sensors sample on the same wall-clock schedule (paper
            # Appendix E observes genuinely simultaneous transmissions).
            times = np.arange(0.0, cfg.duration_s - 3600.0,
                              cfg.reading_interval_s)
            out[node_id] = [
                SensorReading(node_id=node_id, seq=seq,
                              created_s=float(t),
                              payload_bytes=cfg.payload_bytes)
                for seq, t in enumerate(times)
            ]
        return out

    def _predict_windows(self, constellation: Constellation, epoch: Epoch,
                         ) -> List[Tuple[Satellite, ContactWindow]]:
        cfg = self.config
        satellites = list(constellation)
        per_sat = find_passes_fleet([sat.propagator for sat in satellites],
                                    [cfg.site], epoch, cfg.duration_s)
        windows = [(sat, window)
                   for sat, rows in zip(satellites, per_sat)
                   for window in rows[0]]
        windows.sort(key=lambda pair: pair[1].rise_s)
        return windows

    def _monitoring_time(self, windows: Sequence[Tuple[Satellite,
                                                       ContactWindow]],
                         ) -> float:
        """Receiver-on time: any Tianqi satellite predicted overhead."""
        merged = merge_intervals(
            (w.rise_s, w.set_s) for _s, w in windows)
        return total_length(merged)

    # ------------------------------------------------------------------
    def _hear_beacons(self, constellation: Constellation, epoch: Epoch,
                      windows: Sequence[Tuple[Satellite, ContactWindow]],
                      weather: WeatherProcess, streams: RngStreams,
                      ) -> Dict[str, List[BeaconOpportunity]]:
        """Per-node decoded beacons with uplink/ACK success probabilities.

        Beacon *times* are shared across nodes (one satellite transmits
        one beacon train per pass); each node's reception, and the
        channel state behind its uplink/ACK probabilities, is sampled
        per node.  Channel reciprocity within the coherence time lets us
        derive both probabilities from the sampled beacon SNR:

        * the data uplink enjoys the node's PA advantage over the
          satellite beacon EIRP;
        * the ACK travels the same downlink as the beacon.
        """
        cfg = self.config
        radio = constellation.radio
        modulation = LoRaModulation(
            spreading_factor=radio.spreading_factor,
            bandwidth_hz=radio.bandwidth_hz,
            coding_rate=radio.coding_rate)
        # The sampled beacon SNR embeds the node's receiver deficit; the
        # channel itself (reciprocal within the coherence time) is that
        # much better, and the uplink then gets the configured net
        # advantage on top of it.
        # Transmit-side antenna efficiency: longer whips couple the PA
        # better and keep their gain over ground planes; this benefit is
        # not visible in the receive-side beacon sample, so it enters
        # the uplink margin explicitly (relative to a dipole baseline).
        antenna_tx_bonus_db = cfg.antenna.peak_gain_dbi - 2.15
        uplink_delta_db = (cfg.node_rx_penalty_db + cfg.uplink_advantage_db
                           + antenna_tx_bonus_db)
        uplink_airtime_s = modulation.airtime_s(cfg.payload_bytes)
        vulnerability = max(uplink_airtime_s
                            / cfg.airtime_vulnerability_ref_s, 1e-6)
        heard: Dict[str, List[BeaconOpportunity]] = {
            f"TQ-node-{i + 1}": [] for i in range(cfg.node_count)}

        passes = [(sat, window, cfg.site,
                   streams.get(f"beacontrain/{i}"), radio)
                  for i, (sat, window) in enumerate(windows)]
        for pass_index, ((sat, window, _, pass_rng, _), train) in enumerate(
                zip(passes, build_beacon_trains(passes, epoch))):
            times = train.times_s
            if len(times) == 0:
                continue
            elevation = train.elevation_deg
            rng_km = train.range_km
            shift = train.doppler_shift_hz
            rate = train.doppler_rate_hz_s
            raining = bool(weather.is_raining(window.midpoint_s))
            budget = LinkBudget(eirp_dbm=radio.beacon_eirp_dbm,
                                frequency_hz=radio.frequency_hz)
            channel = DtSChannel(budget, modulation, cfg.channel_params)
            rx_gain = (cfg.antenna.gain_dbi(elevation)
                       - cfg.node_rx_penalty_db)
            # Pass-scale shadowing is a property of the pass geometry
            # over the site: the three co-located nodes share one draw,
            # which is what makes truly simultaneous transmissions
            # possible (paper Appendix E).
            shared_pass_offset = float(pass_rng.normal(
                0.0, channel.params.pass_sigma_db))

            for node_id in heard:
                node_rng = streams.get(f"dl/{node_id}/{pass_index}")
                samples = channel.simulate_packets(
                    times_s=times, elevation_deg=elevation,
                    range_km=rng_km, doppler_shift_hz=shift,
                    doppler_rate_hz_s=rate,
                    payload_bytes=radio.beacon_payload_bytes,
                    rng=node_rng, rx_gain_dbi=rx_gain, raining=raining,
                    pass_offset_db=shared_pass_offset)
                usable = samples.received & (
                    samples.snr_db >= modulation.snr_limit_db
                    + cfg.min_beacon_margin_db)
                idx = np.nonzero(usable)[0]
                for i in idx:
                    snr = float(samples.snr_db[i])
                    p_up = float(reception_probability(
                        snr + uplink_delta_db, modulation.snr_limit_db)
                        ** vulnerability)
                    p_ack = float(reception_probability(
                        snr - cfg.ack_penalty_db,
                        modulation.snr_limit_db))
                    heard[node_id].append(BeaconOpportunity(
                        time_s=float(times[i]),
                        satellite_norad=sat.norad_id,
                        p_uplink=p_up, p_ack=p_ack,
                        pass_index=pass_index))
        for node_id in heard:
            heard[node_id].sort(key=lambda b: b.time_s)
        return heard

    # ------------------------------------------------------------------
    def _account_energy(self, result: ActiveCampaignResult) -> None:
        cfg = self.config
        tianqi_behavior = TianqiBehavior()
        terrestrial_behavior = TerrestrialBehavior()
        for node_id, records in result.satellite_records.items():
            attempts = [(a.time_s, r.reading.payload_bytes)
                        for r in records for a in r.attempts]
            timeline = tianqi_behavior.timeline(
                cfg.duration_s, result.monitoring_rx_s, attempts)
            result.tianqi_energy[node_id] = timeline.breakdown()
        for node_id, records in result.terrestrial_records.items():
            payloads = [r.reading.payload_bytes for r in records]
            timeline = terrestrial_behavior.timeline(cfg.duration_s,
                                                     payloads)
            result.terrestrial_energy[node_id] = timeline.breakdown()
