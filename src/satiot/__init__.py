"""satiot — a simulation-based reproduction of
"Satellite IoT in Practice: A First Measurement Study on Network
Availability, Performance, and Costs" (IMC 2025).

The package provides every substrate the study depends on — an SGP4/TLE
astrodynamics stack, a LoRa PHY and channel model, ground-station and
constellation models, a discrete-event network simulator implementing the
Direct-to-Satellite (DtS) store-and-forward paradigm, and energy/cost
models — plus the measurement campaigns and analyses that regenerate the
paper's tables and figures.

Quickstart::

    from satiot import PassiveCampaign, PassiveCampaignConfig
    result = PassiveCampaign(PassiveCampaignConfig(days=1.0)).run()
    print(result.total_traces, "beacons received")
"""

from .constellations import (Constellation, DtSRadioProfile, Satellite,
                             build_all_constellations, build_constellation)
from .core import (ActiveCampaign, ActiveCampaignConfig,
                   ActiveCampaignResult, PassiveCampaign,
                   PassiveCampaignConfig, PassiveCampaignResult,
                   analyze_contacts, compare_energy, compare_systems,
                   daily_presence_hours)
from .groundstation import (BeaconReceiver, BeaconTrace, GroundStation,
                            Scheduler, TraceColumns, TraceDataset)
from .orbits import (SGP4, TLE, ContactWindow, Epoch, GeodeticPoint,
                     PassPredictor, parse_tle)
from .phy import DtSChannel, LinkBudget, LoRaModulation
from .runtime import (CampaignTelemetry, EphemerisCache, Shard,
                      ShardError, ShardExecutor, ShardTelemetry)

__version__ = "1.0.0"

__all__ = [
    "Constellation", "DtSRadioProfile", "Satellite",
    "build_all_constellations", "build_constellation",
    "ActiveCampaign", "ActiveCampaignConfig", "ActiveCampaignResult",
    "PassiveCampaign", "PassiveCampaignConfig", "PassiveCampaignResult",
    "analyze_contacts", "compare_energy", "compare_systems",
    "daily_presence_hours",
    "BeaconReceiver", "BeaconTrace", "GroundStation", "Scheduler",
    "TraceColumns", "TraceDataset",
    "SGP4", "TLE", "ContactWindow", "Epoch", "GeodeticPoint",
    "PassPredictor", "parse_tle",
    "DtSChannel", "LinkBudget", "LoRaModulation",
    "CampaignTelemetry", "EphemerisCache", "Shard", "ShardError",
    "ShardExecutor", "ShardTelemetry",
    "__version__",
]
