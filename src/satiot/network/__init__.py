"""DtS network substrate: packets, MAC, store-and-forward, terrestrial."""

from .beacon import BeaconTrain, build_beacon_train, build_beacon_trains
from .downlink import DownlinkConfig, DownlinkSession, DownlinkSimulator
from .frames import (AckFrame, BeaconFrame, FrameError, UplinkFrame,
                     crc16_ccitt, decode_frame)
from .mac import BeaconOpportunity, DtSMac, MacConfig, NodeState
from .policies import (AlohaPolicy, BackpressurePolicy,
                       ElevationGatePolicy, SlottedPolicy,
                       TransmitPolicy)
from .packets import AttemptOutcome, PacketRecord, SensorReading
from .server import (ReliabilityReport, finalize_deliveries,
                     latency_decomposition_minutes, reliability_report)
from .store_forward import (TIANQI_GROUND_STATIONS, BufferedPacket,
                            GroundSegment, OperatorGroundStation,
                            SatelliteBuffer)
from .terrestrial import (TerrestrialConfig, TerrestrialLoRaWAN,
                          TerrestrialRecord)

__all__ = [
    "BeaconOpportunity", "DtSMac", "MacConfig", "NodeState",
    "BeaconTrain", "build_beacon_train", "build_beacon_trains",
    "DownlinkConfig", "DownlinkSession", "DownlinkSimulator",
    "AckFrame", "BeaconFrame", "FrameError", "UplinkFrame",
    "crc16_ccitt", "decode_frame",
    "AlohaPolicy", "BackpressurePolicy", "ElevationGatePolicy",
    "SlottedPolicy", "TransmitPolicy",
    "AttemptOutcome", "PacketRecord", "SensorReading",
    "ReliabilityReport", "finalize_deliveries",
    "latency_decomposition_minutes", "reliability_report",
    "TIANQI_GROUND_STATIONS", "BufferedPacket", "GroundSegment",
    "OperatorGroundStation", "SatelliteBuffer",
    "TerrestrialConfig", "TerrestrialLoRaWAN", "TerrestrialRecord",
]
