"""Shared campaign fixtures for the benchmark suite.

Campaign simulation is the expensive part, so each distinct campaign is
run once per benchmark session and shared; the benchmarked (timed)
callables are the analyses that regenerate each paper table/figure.

All campaign inputs are built through the scenario compiler
(:mod:`satiot.scenarios`): fixtures lower inline scenario documents,
and the converted benchmarks run committed spec files from
``benchmarks/scenarios/`` through :func:`run_bench_scenario` — one
shared harness instead of per-script setup code.

Every benchmark writes its reproduced table to ``benchmarks/output/`` so
the regenerated numbers are inspectable after a captured pytest run.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Optional

import pytest

from satiot.core.active import ActiveCampaign
from satiot.core.campaign import PassiveCampaign
from satiot.constellations.catalog import build_constellation
from satiot.network.store_forward import (TIANQI_GROUND_STATIONS,
                                          GroundSegment)
from satiot.runtime.ephemeris_cache import CACHE_ENV, EphemerisCache
from satiot.scenarios import (SCENARIO_FORMAT, ScenarioRun,
                              compile_cells, load_scenario,
                              parse_scenario, run_scenario)

SEED = 42
PASSIVE_DAYS = 2.0
ACTIVE_DAYS = 4.0

OUTPUT_DIR = Path(__file__).parent / "output"

#: Committed scenario specs driven by :func:`run_bench_scenario`.
SCENARIO_DIR = Path(__file__).parent / "scenarios"

#: Disk-backed ephemeris cache shared by every benchmark invocation (and
#: restored between CI runs via actions/cache) — warm runs map the
#: coarse SGP4 grids from its segments instead of propagating them.
#: Override the location with SATIOT_EPHEMERIS_CACHE_DIR; disable with
#: SATIOT_EPHEMERIS_CACHE=0.
CACHE_DIR = Path(os.environ.get("SATIOT_EPHEMERIS_CACHE_DIR")
                 or Path(__file__).parent / ".ephemeris-cache")

_bench_cache = None


def bench_ephemeris_cache() -> Optional[EphemerisCache]:
    """The session-wide disk-backed ephemeris cache, or ``None`` (no
    caching) when ``SATIOT_EPHEMERIS_CACHE`` is 0/false/off/no."""
    global _bench_cache
    if os.environ.get(CACHE_ENV, "1").strip().lower() in (
            "0", "false", "off", "no"):
        return None
    if _bench_cache is None:
        _bench_cache = EphemerisCache(disk_dir=CACHE_DIR)
    return _bench_cache


def compile_single(document: dict):
    """Lower an inline single-cell scenario document to its cell."""
    cells = compile_cells(parse_scenario(document))
    if len(cells) != 1:
        raise ValueError(f"expected a single cell, got {len(cells)}")
    return cells[0]


_scenario_runs: dict = {}


def run_bench_scenario(name: str) -> ScenarioRun:
    """Run a committed ``benchmarks/scenarios/<name>.json`` spec.

    The run is memoized for the benchmark session (matching the old
    session-scoped campaign fixtures) and executes on the shared
    ephemeris cache, with workers taken from ``SATIOT_WORKERS``.
    """
    if name not in _scenario_runs:
        spec = load_scenario(SCENARIO_DIR / f"{name}.json")
        _scenario_runs[name] = run_scenario(
            spec, ephemeris_cache=bench_ephemeris_cache())
    return _scenario_runs[name]


def run_passive(config):
    """Run a passive campaign on the shared cache, workers from env."""
    return PassiveCampaign(
        config, ephemeris_cache=bench_ephemeris_cache()).run()


def write_output(name: str, text: str) -> None:
    """Print a reproduced table and persist it under benchmarks/output."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}")


def write_json(name: str, payload) -> None:
    """Persist machine-readable benchmark metrics (CI uploads these)."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / f"{name}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _passive_document(name: str, sites, days: float) -> dict:
    return {
        "format": SCENARIO_FORMAT, "name": name, "kind": "passive",
        "seed": SEED,
        "constellation": {"names": ["tianqi", "fossa", "pico", "cstp"]},
        "sites": list(sites),
        "duration": {"days": days},
    }


@pytest.fixture(scope="session")
def passive_continent():
    """Passive campaign over the four continent sites (Sec. 3.1)."""
    cell = compile_single(_passive_document(
        "passive-continent", ("HK", "SYD", "LDN", "PGH"), PASSIVE_DAYS))
    return run_passive(cell.config)


@pytest.fixture(scope="session")
def passive_all_sites():
    """Short passive campaign over all eight sites (Table 1)."""
    cell = compile_single(_passive_document(
        "passive-all-sites",
        sorted({"HK", "SYD", "LDN", "PGH", "SH", "GZ", "NC", "YC"}),
        1.0))
    return run_passive(cell.config)


@pytest.fixture(scope="session")
def shared_ground_segment():
    """One operator ground segment reused by every active-campaign run."""
    constellation = build_constellation("tianqi", seed=SEED)
    epoch = constellation.satellites[0].tle.epoch
    return GroundSegment(constellation, epoch, ACTIVE_DAYS * 86400.0,
                         TIANQI_GROUND_STATIONS)


def run_active(shared_segment, **overrides):
    """Run an active campaign variant, lowered through the compiler.

    Scalar overrides are expressed as scenario-document sections and go
    through spec validation; richer objects with no JSON spelling (a
    full ``MacConfig``) are applied onto the compiled config directly.
    """
    document: dict = {
        "format": SCENARIO_FORMAT, "name": "active-bench",
        "kind": "active", "seed": SEED,
        "duration": {"days": ACTIVE_DAYS},
    }
    traffic = {key: overrides.pop(key)
               for key in ("node_count", "payload_bytes",
                           "reading_interval_s")
               if key in overrides}
    if traffic:
        document["traffic"] = traffic
    if "max_retransmissions" in overrides:
        document["mac"] = {
            "max_retransmissions": overrides.pop("max_retransmissions")}
    if "antenna_name" in overrides:
        document["antenna"] = overrides.pop("antenna_name")
    config = compile_single(document).config
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return ActiveCampaign(config, ground_segment=shared_segment).run()


@pytest.fixture(scope="session")
def active_default(shared_ground_segment):
    """The paper's deployment: 20 B / 30 min, 5 retransmissions."""
    return run_active(shared_ground_segment)


@pytest.fixture(scope="session")
def active_no_retx(shared_ground_segment):
    """Retransmissions disabled (paper Fig. 5a left bars)."""
    return run_active(shared_ground_segment, max_retransmissions=0)


@pytest.fixture(scope="session")
def active_quarter_wave(shared_ground_segment):
    """1/4-wavelength antenna variant (paper Fig. 5b)."""
    return run_active(shared_ground_segment,
                      antenna_name="quarter_wave")


@pytest.fixture(scope="session")
def active_payload_sweep(shared_ground_segment):
    """Payload sizes 10/60/120 bytes (paper Fig. 12a).

    Retransmissions are disabled so the sweep isolates the DtS link's
    payload sensitivity (with the full retry budget the protocol masks
    most of the single-attempt difference).
    """
    return {
        payload: run_active(shared_ground_segment, payload_bytes=payload,
                            max_retransmissions=0)
        for payload in (10, 60, 120)
    }
