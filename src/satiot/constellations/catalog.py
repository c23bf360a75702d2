"""Catalog of the four constellations measured by the paper (Table 3).

The orbital structure (satellite counts, altitude bands, inclinations,
DtS frequencies) comes straight from paper Table 3; the radio-link
parameters are the calibration knobs of the reproduction, chosen so the
simulated beacon statistics match the paper's measured availability
numbers (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from functools import cached_property
from typing import Dict, List, Optional, Tuple


from ..orbits.sgp4 import SGP4
from ..orbits.tle import TLE
from ..phy.lora import LoRaModulation
from .footprint import footprint_area_km2
from .shells import ShellSpec, generate_shell_tles

__all__ = [
    "DtSRadioProfile",
    "Satellite",
    "Constellation",
    "CONSTELLATION_SPECS",
    "build_constellation",
    "build_all_constellations",
]


@dataclass(frozen=True)
class DtSRadioProfile:
    """LoRa radio configuration of a constellation's DtS link."""

    frequency_hz: float
    spreading_factor: int = 10
    bandwidth_hz: float = 125_000.0
    coding_rate: int = 5               # 4/5
    beacon_period_s: float = 10.0
    beacon_payload_bytes: int = 24
    beacon_eirp_dbm: float = 12.0      # effective beacon EIRP (incl. pointing loss)
    uplink_max_eirp_dbm: float = 22.0  # ground-node transmit EIRP budget
    preamble_symbols: int = 8
    explicit_header: bool = True
    low_data_rate_optimize: bool = True

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        if not 5 <= self.spreading_factor <= 12:
            raise ValueError("LoRa spreading factor must be in 5..12")
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth must be positive")
        if not 5 <= self.coding_rate <= 8:
            raise ValueError("coding rate denominator must be in 5..8")
        if self.beacon_period_s <= 0:
            raise ValueError("beacon period must be positive")

    def modulation(self, spreading_factor: Optional[int] = None,
                   ) -> LoRaModulation:
        """This radio's LoRa modulation, at ``spreading_factor``
        (None: the profile's own)."""
        return LoRaModulation(
            spreading_factor=self.spreading_factor
            if spreading_factor is None else spreading_factor,
            bandwidth_hz=self.bandwidth_hz,
            coding_rate=self.coding_rate,
            preamble_symbols=self.preamble_symbols,
            explicit_header=self.explicit_header,
            low_data_rate_optimize=self.low_data_rate_optimize)


@dataclass(frozen=True)
class Satellite:
    """One satellite: element set plus the constellation's radio profile."""

    tle: TLE
    constellation_name: str
    radio: DtSRadioProfile
    shell_name: str = ""

    @cached_property
    def propagator(self) -> SGP4:
        return SGP4(self.tle)

    @property
    def name(self) -> str:
        return self.tle.name

    @property
    def norad_id(self) -> int:
        return self.tle.norad_id

    @property
    def mean_altitude_km(self) -> float:
        from ..orbits.kepler import semi_major_axis_km
        from ..orbits.constants import EARTH_RADIUS_KM
        return (semi_major_axis_km(self.tle.mean_motion_rev_day)
                - EARTH_RADIUS_KM)


@dataclass(frozen=True)
class ConstellationSpec:
    """Static description of one constellation (one block of Table 3)."""

    name: str
    operator_region: str
    shells: Tuple[ShellSpec, ...]
    radio: DtSRadioProfile
    norad_base: int

    @property
    def satellite_count(self) -> int:
        return sum(shell.count for shell in self.shells)


@dataclass(frozen=True)
class Constellation:
    """A concrete constellation: generated satellites plus metadata."""

    spec: ConstellationSpec
    satellites: Tuple[Satellite, ...]

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def radio(self) -> DtSRadioProfile:
        return self.spec.radio

    def __len__(self) -> int:
        return len(self.satellites)

    def __iter__(self):
        return iter(self.satellites)

    def satellite_by_norad(self, norad_id: int) -> Satellite:
        for sat in self.satellites:
            if sat.norad_id == norad_id:
                return sat
        raise KeyError(f"no satellite {norad_id} in {self.name}")

    def footprint_areas_km2(self) -> Dict[str, float]:
        """Mean footprint area per shell (reproduces Table 3 column 5)."""
        return {shell.name: footprint_area_km2(shell.mean_altitude_km)
                for shell in self.spec.shells}


# ----------------------------------------------------------------------
# Paper Table 3, verbatim orbital structure.
# ----------------------------------------------------------------------
CONSTELLATION_SPECS: Dict[str, ConstellationSpec] = {
    "tianqi": ConstellationSpec(
        name="Tianqi",
        operator_region="China",
        shells=(
            ShellSpec("TQ-A", count=16, altitude_min_km=815.7,
                      altitude_max_km=897.5, inclination_deg=49.97),
            ShellSpec("TQ-B", count=4, altitude_min_km=544.0,
                      altitude_max_km=556.9, inclination_deg=35.00),
            ShellSpec("TQ-C", count=2, altitude_min_km=441.9,
                      altitude_max_km=493.0, inclination_deg=97.61),
        ),
        radio=DtSRadioProfile(frequency_hz=400.45e6, spreading_factor=10,
                              beacon_period_s=5.0, beacon_eirp_dbm=10.5,
                              uplink_max_eirp_dbm=25.0),
        norad_base=44100,
    ),
    "fossa": ConstellationSpec(
        name="FOSSA",
        operator_region="EU",
        shells=(
            ShellSpec("FOSSA", count=3, altitude_min_km=508.7,
                      altitude_max_km=512.0, inclination_deg=97.36),
        ),
        radio=DtSRadioProfile(frequency_hz=401.7e6, spreading_factor=11,
                              beacon_period_s=30.0, beacon_eirp_dbm=9.5),
        norad_base=52700,
    ),
    "pico": ConstellationSpec(
        name="PICO",
        operator_region="US",
        shells=(
            ShellSpec("PICO", count=9, altitude_min_km=507.9,
                      altitude_max_km=522.1, inclination_deg=97.72),
        ),
        radio=DtSRadioProfile(frequency_hz=436.26e6, spreading_factor=10,
                              beacon_period_s=20.0, beacon_eirp_dbm=9.5),
        norad_base=51000,
    ),
    "cstp": ConstellationSpec(
        name="CSTP",
        operator_region="Russia",
        shells=(
            ShellSpec("CSTP", count=5, altitude_min_km=468.3,
                      altitude_max_km=523.7, inclination_deg=97.45),
        ),
        radio=DtSRadioProfile(frequency_hz=437.985e6, spreading_factor=10,
                              beacon_period_s=25.0, beacon_eirp_dbm=9.0),
        norad_base=53500,
    ),
}


def build_constellation(name: str,
                        epochyr: int = 24,
                        epochdays: float = 245.0,
                        seed: int = 7,
                        spec: Optional[ConstellationSpec] = None,
                        ) -> Constellation:
    """Instantiate a constellation's satellites from its spec.

    ``name`` is case-insensitive and must be one of
    ``tianqi | fossa | pico | cstp`` unless an explicit ``spec`` is given.
    """
    if spec is None:
        key = name.lower()
        if key not in CONSTELLATION_SPECS:
            raise KeyError(
                f"unknown constellation {name!r}; "
                f"choose from {sorted(CONSTELLATION_SPECS)}")
        spec = CONSTELLATION_SPECS[key]

    satellites: List[Satellite] = []
    norad = spec.norad_base
    for shell in spec.shells:
        tles = generate_shell_tles(shell, epochyr=epochyr,
                                   epochdays=epochdays,
                                   norad_base=norad, seed=seed)
        for tle in tles:
            satellites.append(Satellite(
                tle=tle.with_name(f"{spec.name}-{tle.name}"),
                constellation_name=spec.name,
                radio=spec.radio,
                shell_name=shell.name))
        norad += shell.count
    return Constellation(spec=spec, satellites=tuple(satellites))


def build_all_constellations(epochyr: int = 24, epochdays: float = 245.0,
                             seed: int = 7) -> Dict[str, Constellation]:
    """Build the four measured constellations (39 satellites total)."""
    return {key: build_constellation(key, epochyr=epochyr,
                                     epochdays=epochdays, seed=seed)
            for key in CONSTELLATION_SPECS}
