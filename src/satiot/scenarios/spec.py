"""Declarative scenario documents (``satiot-scenario-v1``).

A scenario is a versioned JSON document that describes one workload —
constellation, ground segment, traffic, weather, fault spec, duration,
seed — plus an optional ``sweep`` block that turns single values into
axes of a deterministic scenario matrix.  The document is pure data: the
compiler (:mod:`satiot.scenarios.compiler`) lowers it onto the existing
campaign configs, and the orchestrator
(:mod:`satiot.scenarios.orchestrator`) executes the matrix and extracts
KPIs.

Validation is strict: every error is a :class:`ScenarioError` carrying
the dotted path of the offending key (``ground.min_elevation_deg``), so
a typo in a committed spec file fails with a message naming exactly what
to fix rather than a distant ``KeyError``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

__all__ = ["SCENARIO_FORMAT", "SCENARIO_KINDS", "ScenarioError",
           "ScenarioSpec", "parse_scenario", "load_scenario",
           "expand_grid", "canonical_json", "scenario_fingerprint"]

SCENARIO_FORMAT = "satiot-scenario-v1"

#: Workload families the compiler knows how to lower.
SCENARIO_KINDS = ("passive", "active", "longitudinal", "presence",
                  "reception", "downlink", "phy")


class ScenarioError(ValueError):
    """A scenario document failed validation.

    ``path`` is the dotted location of the offending key (empty for
    document-level problems); the message always embeds it.
    """

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        where = f"scenario key {path!r}: " if path else "scenario: "
        super().__init__(where + message)


# ----------------------------------------------------------------------
# Section schemas: {key: (types, default)}.  ``None`` as default means
# "no default" — the compiler decides; ``required`` marks keys that must
# be present when the section is given.
# ----------------------------------------------------------------------
_SCALARS = (int, float)


def _is_number(value: Any) -> bool:
    return isinstance(value, _SCALARS) and not isinstance(value, bool)


@dataclass(frozen=True)
class _Field:
    types: tuple
    default: Any = None
    required: bool = False
    positive: bool = False


def _number_field(default=None, required=False, positive=False) -> _Field:
    return _Field((int, float), default, required, positive)


def _int_field(default=None, required=False, positive=False) -> _Field:
    return _Field((int,), default, required, positive)


def _str_field(default=None, required=False) -> _Field:
    return _Field((str,), default, required)


_SECTION_SCHEMAS: Dict[str, Dict[str, _Field]] = {
    "duration": {
        "days": _number_field(default=1.0, positive=True),
        "start_day_offset": _number_field(default=0.0),
    },
    "ground": {
        "min_elevation_deg": _number_field(default=0.0),
        "coarse_step_s": _number_field(default=30.0, positive=True),
        "stations": _int_field(default=None, positive=True),
    },
    "traffic": {
        "node_count": _int_field(default=3, positive=True),
        "payload_bytes": _int_field(default=20, positive=True),
        "reading_interval_s": _number_field(default=1800.0,
                                            positive=True),
        # Cost-model provider (satiot.econ.providers registry name);
        # the measured Tianqi tariff unless the spec says otherwise.
        "provider": _str_field(default="tianqi"),
    },
    "mac": {
        "max_retransmissions": _int_field(default=5),
    },
    "weather": {
        "mean_dry_hours": _number_field(default=30.0, positive=True),
        "mean_rain_hours": _number_field(default=10.0, positive=True),
    },
    "longitudinal": {
        "weeks": _int_field(default=4, positive=True),
        "site": _str_field(default="HK"),
        "sample_days": _number_field(default=1.0, positive=True),
        "period_days": _number_field(default=7.0, positive=True),
    },
    "downlink": {
        "rate_bytes_s": _number_field(required=True, positive=True),
        "fleet_size": _int_field(required=True, positive=True),
        "window_s": _number_field(default=420.0, positive=True),
        "packets_per_node": _int_field(default=2, positive=True),
        "payload_bytes": _int_field(default=20, positive=True),
        "buffer_capacity": _int_field(default=10_000_000, positive=True),
        "buffer_fill_cap": _int_field(default=120_000, positive=True),
    },
    "phy": {
        "payload_bytes": _int_field(default=20, positive=True),
        "range_km": _number_field(default=1400.0, positive=True),
        "elevation_deg": _number_field(default=35.0),
        "eirp_dbm": _number_field(default=10.5),
        "frequency_hz": _number_field(default=400.45e6, positive=True),
        "rx_gain_dbi": _number_field(default=2.0),
        "bandwidth_hz": _number_field(default=125_000.0, positive=True),
    },
}

#: Sections each kind accepts beyond the always-allowed document keys.
_KIND_SECTIONS: Dict[str, Tuple[str, ...]] = {
    "passive": ("duration", "ground", "constellation", "sites"),
    "active": ("duration", "traffic", "mac", "weather", "antenna"),
    "longitudinal": ("longitudinal", "constellation"),
    "presence": ("duration", "ground", "constellation", "sites"),
    "reception": ("duration", "ground", "constellation", "sites"),
    "downlink": ("downlink",),
    "phy": ("phy",),
}

_DOCUMENT_KEYS = ("format", "name", "title", "kind", "seed", "workers",
                  "faults", "sweep", "kpis") \
    + tuple(sorted({s for ss in _KIND_SECTIONS.values() for s in ss}))


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioSpec:
    """A parsed, validated scenario document.

    ``document`` is the normalized dict (defaults filled in, sweep
    removed for cells); ``sweep`` keeps the sweep axes in declaration
    order so the grid expansion is a deterministic function of the
    document alone.
    """

    name: str
    kind: str
    seed: int
    document: Dict[str, Any]
    title: str = ""
    workers: Optional[int] = None
    faults: Optional[str] = None
    sweep: Dict[str, List[Any]] = field(default_factory=dict)
    kpis: Optional[Tuple[str, ...]] = None

    def section(self, name: str) -> Dict[str, Any]:
        """The normalized section dict (defaults applied)."""
        return dict(self.document.get(name) or {})


# ----------------------------------------------------------------------
def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ScenarioError(path, message)


def _check_mapping(value: Any, path: str) -> Dict[str, Any]:
    _require(isinstance(value, dict), path,
             f"expected an object, got {type(value).__name__}")
    return value


def _validate_fields(raw: Dict[str, Any], schema: Dict[str, _Field],
                     prefix: str) -> Dict[str, Any]:
    """Type/range-check the mapping ``raw`` against ``schema``; returns
    it with defaults filled.  Error paths read ``{prefix}.{key}``."""
    for key in raw:
        _require(key in schema, f"{prefix}.{key}",
                 f"unknown key; expected one of {sorted(schema)}")
    out: Dict[str, Any] = {}
    for key, spec in schema.items():
        path = f"{prefix}.{key}"
        if key not in raw:
            _require(not spec.required, path,
                     "required key is missing")
            out[key] = spec.default
            continue
        value = raw[key]
        if value is None and spec.default is None and not spec.required:
            out[key] = None  # optional key, explicit null
            continue
        if spec.types == (int,):
            _require(isinstance(value, int)
                     and not isinstance(value, bool), path,
                     f"expected an integer, got {value!r}")
        elif spec.types == (str,):
            _require(isinstance(value, str), path,
                     f"expected a string, got {value!r}")
        else:
            _require(_is_number(value), path,
                     f"expected a number, got {value!r}")
            value = float(value)
        if spec.positive and spec.types != (str,):
            _require(value > 0, path,
                     f"must be positive, got {value!r}")
        out[key] = value
    return out


def _validate_section(document: Dict[str, Any], section: str) -> None:
    """Type/range-check one section in place, filling defaults."""
    document[section] = _validate_fields(
        _check_mapping(document.get(section) or {}, section),
        _SECTION_SCHEMAS[section], section)


_CONSTELLATION_MODES = ("names", "name", "walker", "catalog")

_WALKER_SCHEMA: Dict[str, _Field] = {
    "count": _int_field(required=True, positive=True),
    "altitude_km": _number_field(default=600.0, positive=True),
    "altitude_spread_km": _number_field(default=20.0),
    "inclination_deg": _number_field(default=97.5),
    "name": _str_field(default=None),
    "norad_base": _int_field(default=None, positive=True),
    "frequency_hz": _number_field(default=400.45e6, positive=True),
}

#: Radio-profile fields a scenario may override on a named
#: constellation (kind ``reception``); values are coerced to float.
_RADIO_OVERRIDE_KEYS = ("beacon_period_s", "beacon_eirp_dbm",
                        "frequency_hz", "beacon_payload_bytes")


def _validate_constellation(document: Dict[str, Any], kind: str) -> None:
    raw = document.get("constellation")
    if raw is None:
        if kind == "reception":
            document["constellation"] = {"name": "tianqi",
                                         "overrides": {}}
        else:
            document["constellation"] = {"names": ["tianqi", "fossa",
                                                   "pico", "cstp"]}
        return
    raw = _check_mapping(raw, "constellation")
    modes = [m for m in _CONSTELLATION_MODES if m in raw]
    _require(len(modes) == 1, "constellation",
             f"give exactly one of {list(_CONSTELLATION_MODES)}, "
             f"got {sorted(raw) or 'nothing'}")
    mode = modes[0]
    if kind in ("passive", "longitudinal"):
        _require(mode == "names", f"constellation.{mode}",
                 f"kind {kind!r} selects constellations by Table-3 "
                 f"name list ('names')")
    if kind == "reception":
        _require(mode == "name", f"constellation.{mode}",
                 "kind 'reception' builds exactly one constellation "
                 "('name', optionally with radio 'overrides')")
    extra = [k for k in raw
             if k not in (mode, "overrides", "select",
                          "catalog_name")]
    _require(not extra, f"constellation.{extra[0]}" if extra else "",
             "unknown key")
    if mode == "names":
        names = raw["names"]
        _require(isinstance(names, list) and names
                 and all(isinstance(n, str) for n in names),
                 "constellation.names",
                 f"expected a non-empty list of strings, got {names!r}")
        from ..constellations.catalog import CONSTELLATION_SPECS
        unknown = [n for n in names
                   if n.lower() not in CONSTELLATION_SPECS]
        _require(not unknown, "constellation.names",
                 f"unknown constellations {unknown}; choose from "
                 f"{sorted(CONSTELLATION_SPECS)}")
    elif mode == "name":
        name = raw["name"]
        _require(isinstance(name, str), "constellation.name",
                 f"expected a string, got {name!r}")
        from ..constellations.catalog import CONSTELLATION_SPECS
        _require(name.lower() in CONSTELLATION_SPECS,
                 "constellation.name",
                 f"unknown constellation {name!r}; choose from "
                 f"{sorted(CONSTELLATION_SPECS)}")
        overrides = _check_mapping(raw.get("overrides") or {},
                                   "constellation.overrides")
        cleaned = {}
        for key, value in overrides.items():
            path = f"constellation.overrides.{key}"
            _require(key in _RADIO_OVERRIDE_KEYS, path,
                     f"unknown radio override; expected one of "
                     f"{list(_RADIO_OVERRIDE_KEYS)}")
            _require(_is_number(value), path,
                     f"expected a number, got {value!r}")
            cleaned[key] = float(value)
        raw["overrides"] = cleaned
    elif mode == "walker":
        raw["walker"] = _validate_fields(
            _check_mapping(raw["walker"], "constellation.walker"),
            _WALKER_SCHEMA, "constellation.walker")
    else:  # catalog
        _require(isinstance(raw["catalog"], str),
                 "constellation.catalog",
                 f"expected a path string, got {raw['catalog']!r}")
        select = raw.get("select") or []
        _require(isinstance(select, list)
                 and all(isinstance(s, str) for s in select),
                 "constellation.select",
                 "expected a list of selector strings")
        _require(kind in ("presence",), "constellation.catalog",
                 f"catalog constellations are only supported for "
                 f"kind 'presence' (got kind {kind!r}); campaign "
                 f"kinds need a Table-3 name")
    if mode != "name" and "overrides" in raw:
        raise ScenarioError("constellation.overrides",
                            "radio overrides need constellation.name")
    document["constellation"] = raw


def _validate_sites(document: Dict[str, Any], kind: str) -> None:
    from ..core.sites import CONTINENT_SITES, SITES
    raw = document.get("sites")
    if raw is None:
        raw = ["HK"] if kind == "reception" \
            else list(CONTINENT_SITES)
    _require(isinstance(raw, list) and raw
             and all(isinstance(s, str) for s in raw), "sites",
             f"expected a non-empty list of site codes, got {raw!r}")
    unknown = [s for s in raw if s not in SITES]
    _require(not unknown, "sites",
             f"unknown sites {unknown}; choose from {sorted(SITES)}")
    if kind == "reception":
        _require(len(raw) == 1, "sites",
                 "kind 'reception' runs at exactly one site")
    document["sites"] = list(raw)


def _validate_sweep(document: Dict[str, Any]) -> Dict[str, List[Any]]:
    raw = document.get("sweep") or {}
    raw = _check_mapping(raw, "sweep")
    sweep: Dict[str, List[Any]] = {}
    for path, values in raw.items():
        _require(isinstance(path, str) and path, f"sweep.{path}",
                 "sweep keys are dotted document paths")
        _require(isinstance(values, list) and values,
                 f"sweep.{path}",
                 f"expected a non-empty list of values, got {values!r}")
        _require(all(_is_number(v) or isinstance(v, str)
                     for v in values), f"sweep.{path}",
                 "sweep values must be numbers or strings")
        # The target must exist in the document skeleton so a typo in
        # the axis path fails here, not as a silently ignored knob.
        _probe_path(document, path)
        sweep[path] = list(values)
    return sweep


def _probe_path(document: Dict[str, Any], path: str) -> None:
    """Verify a dotted sweep path lands on a known scenario key."""
    parts = path.split(".")
    section = parts[0]
    kind = document["kind"]
    allowed = _KIND_SECTIONS[kind]
    _require(section in allowed, f"sweep.{path}",
             f"section {section!r} is not part of kind {kind!r} "
             f"(allowed: {sorted(allowed)})")
    if section in _SECTION_SCHEMAS:
        _require(len(parts) == 2, f"sweep.{path}",
                 f"expected '{section}.<key>'")
        _require(parts[1] in _SECTION_SCHEMAS[section],
                 f"sweep.{path}",
                 f"unknown key {parts[1]!r}; expected one of "
                 f"{sorted(_SECTION_SCHEMAS[section])}")
    elif section == "constellation":
        tail = ".".join(parts[1:])
        ok = tail in ("name",) \
            or (parts[1:2] == ["overrides"] and len(parts) == 3
                and parts[2] in _RADIO_OVERRIDE_KEYS) \
            or (parts[1:2] == ["walker"] and len(parts) == 3
                and parts[2] in _WALKER_SCHEMA)
        _require(ok, f"sweep.{path}",
                 "sweepable constellation keys are 'name', "
                 "'overrides.<radio key>' and 'walker.<key>'")
    else:
        raise ScenarioError(f"sweep.{path}",
                            f"section {section!r} has no sweepable keys")


def _set_path(document: Dict[str, Any], path: str, value: Any) -> None:
    parts = path.split(".")
    node = document
    for part in parts[:-1]:
        nxt = node.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            node[part] = nxt
        node = nxt
    node[parts[-1]] = value


# ----------------------------------------------------------------------
def parse_scenario(document: Dict[str, Any]) -> ScenarioSpec:
    """Validate a scenario document and return the parsed spec.

    The input dict is not mutated; defaults are filled into the parsed
    copy.  Raises :class:`ScenarioError` naming the offending key.
    """
    document = _check_mapping(document, "")
    document = json.loads(json.dumps(document))  # deep, JSON-clean copy

    fmt = document.get("format")
    _require(fmt == SCENARIO_FORMAT, "format",
             f"expected {SCENARIO_FORMAT!r}, got {fmt!r}")
    name = document.get("name")
    _require(isinstance(name, str) and name, "name",
             f"expected a non-empty string, got {name!r}")
    _require(all(c.isalnum() or c in "_-" for c in name), "name",
             f"{name!r} may only contain letters, digits, '_' and '-'")
    kind = document.get("kind")
    _require(kind in SCENARIO_KINDS, "kind",
             f"expected one of {list(SCENARIO_KINDS)}, got {kind!r}")

    for key in document:
        _require(key in _DOCUMENT_KEYS, key,
                 f"unknown document key; expected one of "
                 f"{sorted(_DOCUMENT_KEYS)}")
    allowed = _KIND_SECTIONS[kind]
    for section in _KIND_SECTIONS["passive"] + ("traffic", "mac",
                                                "weather", "antenna",
                                                "longitudinal",
                                                "downlink", "phy"):
        if section in document and section not in allowed:
            raise ScenarioError(
                section, f"section not allowed for kind {kind!r} "
                         f"(allowed: {sorted(allowed)})")

    seed = document.get("seed", 42)
    _require(isinstance(seed, int) and not isinstance(seed, bool),
             "seed", f"expected an integer, got {seed!r}")
    workers = document.get("workers")
    _require(workers is None or (isinstance(workers, int)
                                 and not isinstance(workers, bool)
                                 and workers >= 0), "workers",
             f"expected a non-negative integer or null, got {workers!r}")
    title = document.get("title", "")
    _require(isinstance(title, str), "title",
             f"expected a string, got {title!r}")

    faults = document.get("faults")
    if faults is not None:
        _require(isinstance(faults, str), "faults",
                 f"expected a fault-spec string, got {faults!r}")
        from ..faults import FaultPlane
        try:
            FaultPlane.from_spec(faults)
        except ValueError as error:
            raise ScenarioError("faults", str(error))

    kpis = document.get("kpis")
    if kpis is not None:
        _require(isinstance(kpis, list)
                 and all(isinstance(k, str) for k in kpis), "kpis",
                 f"expected a list of KPI names, got {kpis!r}")

    for section in allowed:
        if section in _SECTION_SCHEMAS:
            _validate_section(document, section)
    if "constellation" in allowed:
        _validate_constellation(document, kind)
    if "sites" in allowed:
        _validate_sites(document, kind)
    if "antenna" in allowed:
        antenna = document.get("antenna", "five_eighths_wave")
        from ..phy.antennas import ANTENNAS_BY_NAME
        _require(isinstance(antenna, str)
                 and antenna in ANTENNAS_BY_NAME, "antenna",
                 f"unknown antenna {antenna!r}; choose from "
                 f"{sorted(ANTENNAS_BY_NAME)}")
        document["antenna"] = antenna
    if kind == "downlink":
        _require("downlink" in document, "downlink",
                 "kind 'downlink' requires a downlink section")

    sweep = _validate_sweep(document)
    document.pop("sweep", None)

    # Sweep cells must themselves validate; probe each axis value
    # independently (cheap: one parse per value, axes are short).
    for path, values in sweep.items():
        for value in values:
            probe = json.loads(json.dumps(document))
            _set_path(probe, path, value)
            probe["sweep"] = {}
            try:
                _parse_cell(probe)
            except ScenarioError as error:
                raise ScenarioError(f"sweep.{path}",
                                    f"substituting {value!r} fails "
                                    f"validation: {error}")

    return ScenarioSpec(name=name, kind=kind, seed=seed,
                        document=document, title=title, workers=workers,
                        faults=faults, sweep=sweep,
                        kpis=tuple(kpis) if kpis is not None else None)


def _parse_cell(document: Dict[str, Any]) -> ScenarioSpec:
    """Parse a single already-substituted cell document."""
    spec = parse_scenario(document)
    return spec


def load_scenario(path: Union[str, Path]) -> ScenarioSpec:
    """Read and validate a scenario file (JSON)."""
    text = Path(path).read_text()
    try:
        document = json.loads(text)
    except json.JSONDecodeError as error:
        raise ScenarioError("", f"{path}: not valid JSON ({error})")
    try:
        return parse_scenario(document)
    except ScenarioError as error:
        raise ScenarioError(error.path, f"{path}: {error}") from None


# ----------------------------------------------------------------------
def _cell_value_repr(value: Any) -> str:
    if isinstance(value, str):
        return value
    return json.dumps(value)


def expand_grid(spec: ScenarioSpec) -> List[Tuple[str,
                                                  Dict[str, Any],
                                                  ScenarioSpec]]:
    """Expand the sweep into an ordered list of cells.

    Returns ``(cell_id, params, cell_spec)`` triples.  Axes iterate in
    document declaration order with the **first** axis outermost, and
    values in their declared order, so the matrix — and therefore every
    downstream KPI store — is a deterministic function of the document.
    A sweepless scenario is a single cell whose id is the scenario name.
    """
    if not spec.sweep:
        return [(spec.name, {}, spec)]
    axes = list(spec.sweep.items())
    cells = []
    for combo in itertools.product(*(values for _p, values in axes)):
        params = {path: value
                  for (path, _v), value in zip(axes, combo)}
        document = json.loads(json.dumps(spec.document))
        for path, value in params.items():
            _set_path(document, path, value)
        document["sweep"] = {}
        cell_spec = parse_scenario(document)
        cell_id = ",".join(
            f"{path.rsplit('.', 1)[-1]}={_cell_value_repr(value)}"
            for path, value in params.items())
        cells.append((cell_id, params, cell_spec))
    return cells


# ----------------------------------------------------------------------
def canonical_json(document: Dict[str, Any]) -> str:
    """Canonical serialization used for fingerprints and manifests."""
    return json.dumps(document, sort_keys=True,
                      separators=(",", ":"))


def scenario_fingerprint(spec: ScenarioSpec) -> str:
    """Stable 16-hex-digit fingerprint of the normalized document."""
    payload = dict(spec.document)
    payload["sweep"] = {k: list(v) for k, v in spec.sweep.items()}
    digest = hashlib.sha256(canonical_json(payload).encode("utf-8"))
    return digest.hexdigest()[:16]
