"""Domain logic behind the serving endpoints (batch-first API).

:class:`ConstellationService` answers three question shapes, each as a
*batch* handler (lists in, lists out) so the micro-batcher can coalesce
concurrent requests into shared array work:

* ``passes_batch`` — upcoming contact windows per observer;
* ``presence_batch`` — availability statistics (coverage fraction,
  window/gap structure) derived from the same windows;
* ``link_budget_batch`` — instantaneous per-satellite geometry, RSSI
  breakdown, link margin, Doppler and airtime at one instant.

Batched requests that share query parameters are grouped, and every
group — a lone observer too — is answered by one fleet pass search
(:meth:`satiot.runtime.EphemerisCache.find_passes_fleet`): the whole
constellation is one cached ``(N, T, 3)`` grid, propagated as one
struct-of-arrays :class:`~satiot.orbits.sgp4_batch.SGP4Batch` call,
with GMST and the TEME→ECEF conversion computed once per group rather
than once per satellite.  A pair's windows do not depend on the other
pairs searched, so a response is the same whichever requests shared
its batch.  ``link_budget_batch`` reads the same grid tier at its one
instant.

All handlers are synchronous and thread-safe under the serving layer's
single-worker executor (one batch in flight at a time per batcher).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..constellations.catalog import (CONSTELLATION_SPECS, Constellation,
                                      build_constellation)
from ..core.stats import merge_intervals, total_length
from ..econ.providers import ProviderSpec, get_provider, provider_names
from ..orbits.doppler import doppler_shift_hz
from ..orbits.frames import GeodeticPoint
from ..orbits.passes import ContactWindow, check_elevation_mask
from ..orbits.timebase import Epoch
from ..orbits.topocentric import ecef_states, look_angles_from_ecef
from ..phy.link_budget import LinkBudget
from ..phy.lora import LoRaModulation, sensitivity_dbm
from ..runtime.ephemeris_cache import EphemerisCache
from ..twin.clock import SimClock, parse_time_query
from .cache import quantize_coord

__all__ = ["CompareRequest", "ConstellationService", "LinkBudgetRequest",
           "PassesRequest", "PresenceRequest", "DEFAULT_CONSTELLATION"]

DEFAULT_CONSTELLATION = "tianqi"
MAX_HORIZON_S = 7 * 86400.0


def _get_float(params: dict, key: str, default: float) -> float:
    value = params.get(key, default)
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"parameter {key!r} must be a number, "
                         f"got {value!r}") from exc


def _get_int(params: dict, key: str, default: int) -> int:
    value = params.get(key, default)
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"parameter {key!r} must be an integer, "
                         f"got {value!r}") from exc


@dataclass(frozen=True)
class _SiteRequest:
    """The observer site every query shape carries."""

    latitude_deg: float
    longitude_deg: float
    altitude_km: float = 0.0

    def observer(self) -> GeodeticPoint:
        return GeodeticPoint(self.latitude_deg, self.longitude_deg,
                             self.altitude_km)

    def site_dict(self) -> dict:
        return {"latitude_deg": self.latitude_deg,
                "longitude_deg": self.longitude_deg,
                "altitude_km": self.altitude_km}

    @staticmethod
    def _site_kwargs(params: dict) -> dict:
        """Parse and range-check ``lat``, ``lon`` and ``alt_km``."""
        if "lat" not in params or "lon" not in params:
            raise ValueError("parameters 'lat' and 'lon' are required")
        kwargs = {
            "latitude_deg": _get_float(params, "lat", 0.0),
            "longitude_deg": _get_float(params, "lon", 0.0),
            "altitude_km": _get_float(params, "alt_km", 0.0),
        }
        if not -90.0 <= kwargs["latitude_deg"] <= 90.0:
            raise ValueError("lat must be within [-90, 90]")
        if not -180.0 <= kwargs["longitude_deg"] <= 180.0:
            raise ValueError("lon must be within [-180, 180]")
        if not -0.5 <= kwargs["altitude_km"] <= 50.0:
            raise ValueError("alt_km must be within [-0.5, 50]")
        return kwargs

    def _quantized_site(self, decimals: int) -> Tuple[float, float, float]:
        return (quantize_coord(self.latitude_deg, decimals),
                quantize_coord(self.longitude_deg, decimals),
                quantize_coord(self.altitude_km, decimals))


@dataclass(frozen=True)
class _ObserverRequest(_SiteRequest):
    """A site plus the loaded constellation the query is about."""

    constellation: str = DEFAULT_CONSTELLATION

    @classmethod
    def _base_kwargs(cls, params: dict,
                     known: Optional[Sequence[str]] = None) -> dict:
        constellation = str(params.get("constellation",
                                       DEFAULT_CONSTELLATION)).lower()
        # With ``known`` (the serving layer passes its loaded names,
        # which may include catalog-built constellations), validate
        # against what can actually be answered; without it, fall back
        # to the built-in Table-3 specs.
        valid = sorted(known) if known is not None \
            else sorted(CONSTELLATION_SPECS)
        if constellation not in valid:
            raise ValueError(
                f"unknown constellation {constellation!r}; choose from "
                f"{valid}")
        return dict(cls._site_kwargs(params), constellation=constellation)


def _resolve_start(params: dict, constellation: str,
                   clock: Optional[SimClock],
                   epochs: Optional[Dict[str, Epoch]],
                   horizon_s: float,
                   allow_next: bool = True) -> Tuple[float, str]:
    """Resolve the ``start=`` parameter of a time-windowed query.

    The resulting window ``[start, start + horizon]`` must stay inside
    the serving horizon, so the offset itself is bounded by what is
    left after the horizon — the parser enforces it in one place.
    """
    epoch = (epochs or {}).get(constellation)
    return parse_time_query(params.get("start"), clock=clock,
                            epoch=epoch,
                            horizon_s=MAX_HORIZON_S - horizon_s,
                            allow_next=allow_next)


@dataclass(frozen=True)
class PassesRequest(_ObserverRequest):
    """``/v1/passes``: contact windows over a prediction horizon."""

    horizon_s: float = 86400.0
    min_elevation_deg: float = 10.0
    max_passes: int = 0          # 0 = unlimited
    start_s: float = 0.0         # window start, seconds past the epoch

    @classmethod
    def from_params(cls, params: dict,
                    known: Optional[Sequence[str]] = None,
                    clock: Optional[SimClock] = None,
                    epochs: Optional[Dict[str, Epoch]] = None,
                    ) -> "PassesRequest":
        kwargs = cls._base_kwargs(params, known=known)
        kwargs["horizon_s"] = _get_float(params, "horizon_s", 86400.0)
        kwargs["min_elevation_deg"] = _get_float(
            params, "min_elevation_deg", 10.0)
        kwargs["max_passes"] = _get_int(params, "max_passes", 0)
        if not 0.0 < kwargs["horizon_s"] <= MAX_HORIZON_S:
            raise ValueError(
                f"horizon_s must be in (0, {MAX_HORIZON_S:.0f}]")
        check_elevation_mask(kwargs["min_elevation_deg"])
        if kwargs["max_passes"] < 0:
            raise ValueError("max_passes must be non-negative")
        kwargs["start_s"], mode = _resolve_start(
            params, kwargs["constellation"], clock, epochs,
            kwargs["horizon_s"])
        if mode == "next":
            # "the next pass from now": one window, from the clock.
            kwargs["max_passes"] = 1
        return cls(**kwargs)

    def group_key(self) -> tuple:
        return ("passes", self.constellation, self.horizon_s,
                self.min_elevation_deg, self.start_s)

    def cache_key(self, decimals: int = 2) -> tuple:
        return ("passes", self.constellation,
                self._quantized_site(decimals), self.horizon_s,
                self.min_elevation_deg, self.max_passes, self.start_s)


@dataclass(frozen=True)
class PresenceRequest(_ObserverRequest):
    """``/v1/presence``: availability statistics over a horizon."""

    horizon_s: float = 86400.0
    min_elevation_deg: float = 10.0
    start_s: float = 0.0

    @classmethod
    def from_params(cls, params: dict,
                    known: Optional[Sequence[str]] = None,
                    clock: Optional[SimClock] = None,
                    epochs: Optional[Dict[str, Epoch]] = None,
                    ) -> "PresenceRequest":
        kwargs = cls._base_kwargs(params, known=known)
        kwargs["horizon_s"] = _get_float(params, "horizon_s", 86400.0)
        kwargs["min_elevation_deg"] = _get_float(
            params, "min_elevation_deg", 10.0)
        if not 0.0 < kwargs["horizon_s"] <= MAX_HORIZON_S:
            raise ValueError(
                f"horizon_s must be in (0, {MAX_HORIZON_S:.0f}]")
        check_elevation_mask(kwargs["min_elevation_deg"])
        kwargs["start_s"], _ = _resolve_start(
            params, kwargs["constellation"], clock, epochs,
            kwargs["horizon_s"], allow_next=False)
        return cls(**kwargs)

    def group_key(self) -> tuple:
        return ("presence", self.constellation, self.horizon_s,
                self.min_elevation_deg, self.start_s)

    def cache_key(self, decimals: int = 2) -> tuple:
        return ("presence", self.constellation,
                self._quantized_site(decimals), self.horizon_s,
                self.min_elevation_deg, self.start_s)


@dataclass(frozen=True)
class LinkBudgetRequest(_ObserverRequest):
    """``/v1/link_budget``: instantaneous per-satellite link state."""

    t_offset_s: float = 0.0
    min_elevation_deg: float = 0.0
    spreading_factor: int = 0    # 0 = constellation default
    payload_bytes: int = 0       # 0 = constellation beacon payload
    raining: bool = False

    @classmethod
    def from_params(cls, params: dict,
                    known: Optional[Sequence[str]] = None,
                    clock: Optional[SimClock] = None,
                    epochs: Optional[Dict[str, Epoch]] = None,
                    ) -> "LinkBudgetRequest":
        kwargs = cls._base_kwargs(params, known=known)
        if str(params.get("t_offset_s", "")).strip().lower() == "now":
            if clock is None:
                raise ValueError(
                    "t_offset_s='now' needs the server's real-time "
                    "clock; start it with --realtime")
            params = dict(params, t_offset_s=clock.query_offset_s())
        kwargs["t_offset_s"] = _get_float(params, "t_offset_s", 0.0)
        kwargs["min_elevation_deg"] = _get_float(
            params, "min_elevation_deg", 0.0)
        kwargs["spreading_factor"] = _get_int(
            params, "spreading_factor", 0)
        kwargs["payload_bytes"] = _get_int(params, "payload_bytes", 0)
        raining = params.get("raining", False)
        if isinstance(raining, str):
            raining = raining.strip().lower() in ("1", "true", "yes")
        kwargs["raining"] = bool(raining)
        if not 0.0 <= kwargs["t_offset_s"] <= MAX_HORIZON_S:
            raise ValueError(
                f"t_offset_s must be in [0, {MAX_HORIZON_S:.0f}]")
        if not -10.0 <= kwargs["min_elevation_deg"] < 90.0:
            raise ValueError("min_elevation_deg must be in [-10, 90)")
        if kwargs["spreading_factor"] and \
                not 5 <= kwargs["spreading_factor"] <= 12:
            raise ValueError("spreading_factor must be in 5..12 (or 0)")
        if not 0 <= kwargs["payload_bytes"] <= 255:
            raise ValueError("payload_bytes must be in 0..255")
        return cls(**kwargs)

    def group_key(self) -> tuple:
        return ("link_budget", self.constellation, self.t_offset_s)

    def cache_key(self, decimals: int = 2) -> tuple:
        return ("link_budget", self.constellation,
                self._quantized_site(decimals), self.t_offset_s,
                self.min_elevation_deg, self.spreading_factor,
                self.payload_bytes, self.raining)


@dataclass(frozen=True)
class CompareRequest(_SiteRequest):
    """``/v1/compare``: one deployment question, several providers.

    Not an :class:`_ObserverRequest` — the selector is a *provider*
    list (registry names), not a loaded constellation name.
    """

    providers: Tuple[str, ...] = ()
    horizon_s: float = 86400.0
    min_elevation_deg: float = 10.0
    start_s: float = 0.0
    packets_per_day: float = 48.0
    payload_bytes: int = 20

    @classmethod
    def from_params(cls, params: dict,
                    known: Optional[Sequence[str]] = None,
                    clock: Optional[SimClock] = None,
                    epochs: Optional[Dict[str, Epoch]] = None,
                    ) -> "CompareRequest":
        valid = sorted(known) if known is not None \
            else sorted(provider_names())
        raw = str(params.get("providers", "")).strip()
        if raw:
            names: List[str] = []
            for token in raw.split(","):
                name = token.strip().lower()
                if not name:
                    continue
                if name not in valid:
                    raise ValueError(
                        f"unknown provider {name!r}; choose from "
                        f"{valid}")
                if name not in names:
                    names.append(name)
            if not names:
                raise ValueError("providers list is empty")
        else:
            names = list(valid)
        kwargs = dict(cls._site_kwargs(params), providers=tuple(names))
        kwargs["horizon_s"] = _get_float(params, "horizon_s", 86400.0)
        kwargs["min_elevation_deg"] = _get_float(
            params, "min_elevation_deg", 10.0)
        kwargs["packets_per_day"] = _get_float(
            params, "packets_per_day", 48.0)
        kwargs["payload_bytes"] = _get_int(params, "payload_bytes", 20)
        if not 0.0 < kwargs["horizon_s"] <= MAX_HORIZON_S:
            raise ValueError(
                f"horizon_s must be in (0, {MAX_HORIZON_S:.0f}]")
        check_elevation_mask(kwargs["min_elevation_deg"])
        if not 0.0 < kwargs["packets_per_day"] <= 86400.0:
            raise ValueError("packets_per_day must be in (0, 86400]")
        if not 1 <= kwargs["payload_bytes"] <= 1024:
            raise ValueError("payload_bytes must be in 1..1024")
        # Providers are all built on one shared synthetic epoch, so an
        # ISO start has no single constellation to resolve against —
        # numeric offsets and 'now' cover the compare use cases.
        kwargs["start_s"], _ = parse_time_query(
            params.get("start"), clock=clock,
            horizon_s=MAX_HORIZON_S - kwargs["horizon_s"],
            allow_next=False)
        return cls(**kwargs)

    def group_key(self) -> tuple:
        return ("compare", self.providers, self.horizon_s,
                self.min_elevation_deg, self.start_s,
                self.packets_per_day, self.payload_bytes)

    def cache_key(self, decimals: int = 2) -> tuple:
        return ("compare", self.providers,
                self._quantized_site(decimals), self.horizon_s,
                self.min_elevation_deg, self.start_s,
                self.packets_per_day, self.payload_bytes)


class ConstellationService:
    """Answers pass/presence/link-budget queries over shared ephemerides."""

    def __init__(self,
                 constellations: Sequence[str] = (DEFAULT_CONSTELLATION,),
                 ephemeris: Optional[EphemerisCache] = None,
                 coarse_step_s: float = 30.0,
                 refine: str = "interp",
                 refine_tol_s: float = 0.5,
                 epochyr: int = 24, epochdays: float = 245.0,
                 seed: int = 7,
                 extra: Sequence[Constellation] = (),
                 providers: Optional[Sequence[str]] = None) -> None:
        if coarse_step_s <= 0:
            raise ValueError("coarse_step_s must be positive")
        self.coarse_step_s = float(coarse_step_s)
        self.refine = refine
        self.refine_tol_s = float(refine_tol_s)
        self.ephemeris = ephemeris or EphemerisCache()
        self._epochyr = int(epochyr)
        self._epochdays = float(epochdays)
        self._seed = int(seed)
        self._constellations: Dict[str, Constellation] = {}
        self._epochs: Dict[str, Epoch] = {}
        # Providers the /v1/compare endpoint may select (None = every
        # registered one).  Kept strictly apart from the constellation
        # map: loading the swarm provider must not make "swarm" a valid
        # /v1/passes constellation nor appear in /healthz.  Their
        # constellations are synthesized lazily on first comparison.
        names = provider_names() if providers is None else \
            [str(p).strip().lower() for p in providers]
        self._providers: Dict[str, ProviderSpec] = {
            name: get_provider(name) for name in names}
        self._provider_consts: Dict[str,
                                    Tuple[Constellation, Epoch]] = {}
        for name in constellations:
            const = build_constellation(name, epochyr=epochyr,
                                        epochdays=epochdays, seed=seed)
            key = const.name.lower()
            self._constellations[key] = const
            self._epochs[key] = const.satellites[0].tle.epoch
        # Pre-built constellations (e.g. catalog selections via
        # satiot.catalog.constellation_from_catalog) served alongside
        # the named Table-3 builds.  Their reference instant is the
        # newest member epoch — catalog element sets need not share one.
        for const in extra:
            key = const.name.lower()
            if key in self._constellations:
                raise ValueError(
                    f"constellation name {const.name!r} already loaded")
            self._constellations[key] = const
            self._epochs[key] = Epoch(
                max(sat.tle.epoch.jd for sat in const.satellites))
        if not self._constellations:
            raise ValueError("no constellations loaded")

    # ------------------------------------------------------------------
    @property
    def constellation_names(self) -> List[str]:
        return sorted(self._constellations)

    @property
    def provider_names(self) -> List[str]:
        return sorted(self._providers)

    @property
    def epochs(self) -> Dict[str, Epoch]:
        """Per-constellation reference epochs (for time-query parsing)."""
        return dict(self._epochs)

    def constellation(self, name: str) -> Constellation:
        try:
            return self._constellations[name.lower()]
        except KeyError as exc:
            raise ValueError(
                f"constellation {name!r} not loaded; available: "
                f"{self.constellation_names}") from exc

    def epoch(self, name: str) -> Epoch:
        self.constellation(name)
        return self._epochs[name.lower()]

    def _provider_constellation(self, name: str,
                                ) -> Tuple[Constellation, Epoch]:
        """The (lazily synthesized) fleet of one registered provider.

        A provider whose constellation is already loaded for regular
        serving (tianqi, typically) reuses that build — identical
        objects, shared ephemeris cache entries.
        """
        cached = self._provider_consts.get(name)
        if cached is not None:
            return cached
        prov = self._providers[name]
        key = prov.constellation.name.lower()
        if key in self._constellations:
            built = (self._constellations[key], self._epochs[key])
        else:
            const = build_constellation(
                prov.constellation.name, epochyr=self._epochyr,
                epochdays=self._epochdays, seed=self._seed,
                spec=prov.constellation)
            built = (const, const.satellites[0].tle.epoch)
        self._provider_consts[name] = built
        return built

    # ------------------------------------------------------------------
    # Shared pass computation
    # ------------------------------------------------------------------
    def _windows_for_group(self, constellation: str,
                           observers: Sequence[GeodeticPoint],
                           horizon_s: float, min_elevation_deg: float,
                           start_s: float = 0.0,
                           ) -> List[List[ContactWindow]]:
        const = self.constellation(constellation)
        epoch = self.epoch(constellation)
        return self._windows_for(const, epoch, observers, horizon_s,
                                 min_elevation_deg, start_s)

    def _windows_for(self, const: Constellation, epoch: Epoch,
                     observers: Sequence[GeodeticPoint],
                     horizon_s: float, min_elevation_deg: float,
                     start_s: float = 0.0,
                     ) -> List[List[ContactWindow]]:
        """Merged, rise-sorted windows of the whole constellation for
        each observer of a parameter-homogeneous group.

        A non-zero ``start_s`` widens the predicted span to
        ``[0, start_s + horizon_s]``: window times stay relative to the
        constellation epoch (the payload layer clips), and consecutive
        ``now`` queries keep extending the *same* coarse grid — the
        ephemeris tier serves them via incremental extension instead
        of recomputing per quantum.
        """
        horizon_s = float(start_s) + float(horizon_s)
        per_observer: List[List[ContactWindow]] = \
            [[] for _ in observers]
        # All N satellites x M observers through one cached
        # constellation grid, one GMST/ECEF pass and one
        # observer-geometry precompute.  Extension is satellite-major
        # and the rise-time sort stable, so ties keep satellite order.
        per_sat = self.ephemeris.find_passes_fleet(
            [sat.propagator for sat in const], observers, epoch,
            horizon_s, coarse_step_s=self.coarse_step_s,
            min_elevation_deg=min_elevation_deg,
            refine_tol_s=self.refine_tol_s, refine=self.refine)
        for rows in per_sat:
            for windows, acc in zip(rows, per_observer):
                acc.extend(windows)
        for acc in per_observer:
            acc.sort(key=lambda w: w.rise_s)
        return per_observer

    @staticmethod
    def _group_indices(requests: Sequence[object]) -> Dict[tuple,
                                                           List[int]]:
        groups: Dict[tuple, List[int]] = {}
        for index, request in enumerate(requests):
            groups.setdefault(request.group_key(), []).append(index)
        return groups

    # ------------------------------------------------------------------
    # /v1/passes
    # ------------------------------------------------------------------
    def passes_batch(self, requests: Sequence[PassesRequest],
                     ) -> List[dict]:
        results: List[Optional[dict]] = [None] * len(requests)
        for _, indices in self._group_indices(requests).items():
            group = [requests[i] for i in indices]
            observers = [r.observer() for r in group]
            per_observer = self._windows_for_group(
                group[0].constellation, observers, group[0].horizon_s,
                group[0].min_elevation_deg, group[0].start_s)
            for request, index, windows in zip(group, indices,
                                               per_observer):
                results[index] = self._passes_payload(request, windows)
        return results  # type: ignore[return-value]

    def _passes_payload(self, request: PassesRequest,
                        windows: Sequence[ContactWindow]) -> dict:
        const = self.constellation(request.constellation)
        epoch = self.epoch(request.constellation)
        if request.start_s:
            # Windows are computed over [0, start + horizon]; keep the
            # ones still in progress (or later) at the start instant.
            windows = [w for w in windows if w.set_s > request.start_s]
        if request.max_passes:
            windows = windows[:request.max_passes]
        names = {sat.tle.norad_id: sat.name for sat in const}
        passes = [{
            "satellite": names.get(w.norad_id, str(w.norad_id)),
            "norad_id": w.norad_id,
            "rise_s": round(w.rise_s, 3),
            "set_s": round(w.set_s, 3),
            "duration_s": round(w.duration_s, 3),
            "culmination_s": round(w.culmination_s, 3),
            "max_elevation_deg": round(w.max_elevation_deg, 3),
        } for w in windows]
        payload = {
            "site": request.site_dict(),
            "constellation": const.name,
            "epoch": epoch.isoformat(),
            "horizon_s": request.horizon_s,
            "min_elevation_deg": request.min_elevation_deg,
            "count": len(passes),
            "next_pass": passes[0] if passes else None,
            "passes": passes,
        }
        if request.start_s:
            payload["start_s"] = round(request.start_s, 3)
        return payload

    # ------------------------------------------------------------------
    # /v1/presence
    # ------------------------------------------------------------------
    def presence_batch(self, requests: Sequence[PresenceRequest],
                       ) -> List[dict]:
        results: List[Optional[dict]] = [None] * len(requests)
        for _, indices in self._group_indices(requests).items():
            group = [requests[i] for i in indices]
            observers = [r.observer() for r in group]
            per_observer = self._windows_for_group(
                group[0].constellation, observers, group[0].horizon_s,
                group[0].min_elevation_deg, group[0].start_s)
            for request, index, windows in zip(group, indices,
                                               per_observer):
                results[index] = self._presence_payload(request, windows)
        return results  # type: ignore[return-value]

    @staticmethod
    def _coverage(windows: Sequence[ContactWindow], start_s: float,
                  horizon_s: float,
                  ) -> Tuple[List[Tuple[float, float]], float,
                             List[float]]:
        """Merged coverage of ``[start, start + horizon]``: the merged
        interval list, the covered seconds, and the gap lengths —
        shared by presence and compare so the two endpoints can never
        disagree on availability."""
        end = start_s + horizon_s
        merged = merge_intervals(
            (max(start_s, w.rise_s), min(end, w.set_s))
            for w in windows if w.set_s > start_s and w.rise_s < end)
        covered = total_length(merged)
        gaps: List[float] = []
        cursor = start_s
        for lo, hi in merged:
            if lo > cursor:
                gaps.append(lo - cursor)
            cursor = max(cursor, hi)
        if cursor < end:
            gaps.append(end - cursor)
        return merged, covered, gaps

    def _presence_payload(self, request: PresenceRequest,
                          windows: Sequence[ContactWindow]) -> dict:
        horizon = request.horizon_s
        merged, covered, gaps = self._coverage(windows,
                                               request.start_s, horizon)
        payload = {
            "site": request.site_dict(),
            "constellation": request.constellation,
            "horizon_s": horizon,
            "min_elevation_deg": request.min_elevation_deg,
            "coverage_fraction": round(covered / horizon, 6),
            "covered_s": round(covered, 3),
            "windows": len(merged),
            "raw_passes": len(windows),
            "mean_window_s": round(covered / len(merged), 3)
            if merged else 0.0,
            "max_gap_s": round(max(gaps), 3) if gaps else 0.0,
            "mean_gap_s": round(sum(gaps) / len(gaps), 3)
            if gaps else 0.0,
        }
        if request.start_s:
            payload["start_s"] = round(request.start_s, 3)
        return payload

    # ------------------------------------------------------------------
    # /v1/compare
    # ------------------------------------------------------------------
    def compare_batch(self, requests: Sequence[CompareRequest],
                      ) -> List[dict]:
        """One geometry pass per provider, shared across the group.

        Requests with identical comparison parameters coalesce: each
        selected provider's fleet is propagated **once** for all
        observers of the group (the same fleet fast path the other
        endpoints use), then per-request payloads are derived from the
        shared windows.
        """
        results: List[Optional[dict]] = [None] * len(requests)
        for _, indices in self._group_indices(requests).items():
            group = [requests[i] for i in indices]
            observers = [r.observer() for r in group]
            lead = group[0]
            per_provider: Dict[str, List[List[ContactWindow]]] = {}
            for name in lead.providers:
                const, epoch = self._provider_constellation(name)
                per_provider[name] = self._windows_for(
                    const, epoch, observers, lead.horizon_s,
                    lead.min_elevation_deg, lead.start_s)
            for pos, (request, index) in enumerate(zip(group, indices)):
                results[index] = self._compare_payload(
                    request,
                    {name: per_provider[name][pos]
                     for name in lead.providers})
        return results  # type: ignore[return-value]

    def _compare_payload(self, request: CompareRequest,
                         windows_by_provider: Dict[
                             str, List[ContactWindow]]) -> dict:
        horizon = request.horizon_s
        entries: List[dict] = []
        for name in request.providers:
            prov = self._providers[name]
            const, _ = self._provider_constellation(name)
            merged, covered, gaps = self._coverage(
                windows_by_provider[name], request.start_s, horizon)

            # Latency: a reading born at a uniformly random instant
            # waits (gap remaining)/2; averaging over the horizon gives
            # sum(g^2)/(2*H).  Retransmission overhead follows the MAC:
            # a geometric retry chain with per-packet loss p costs
            # p/(1-p) expected extra attempts (capped by the retry
            # budget), each a full backoff period.
            mean_wait = sum(g * g for g in gaps) / (2.0 * horizon)
            loss = prov.mac.satellite_loss_probability
            expected_retx = min(loss / (1.0 - loss),
                                float(prov.mac.max_retransmissions))
            retx_overhead = expected_retx * prov.mac.retry_backoff_s
            mean_uplink = (mean_wait + prov.mac.turnaround_s
                           + retx_overhead)

            # Energy: airtime of one maximally-packed frame times the
            # frames actually transmitted per day (billing fragments +
            # expected retries) at the radio's max uplink EIRP.
            radio = prov.constellation.radio
            modulation = LoRaModulation(
                spreading_factor=radio.spreading_factor,
                bandwidth_hz=radio.bandwidth_hz,
                coding_rate=radio.coding_rate,
                preamble_symbols=radio.preamble_symbols,
                explicit_header=radio.explicit_header,
                low_data_rate_optimize=radio.low_data_rate_optimize)
            frame_bytes = min(request.payload_bytes,
                              prov.costs.max_payload_bytes)
            airtime = modulation.airtime_s(frame_bytes)
            frames = prov.costs.packets_for_payload(
                request.payload_bytes)
            tx_per_day = (request.packets_per_day * frames
                          * (1.0 + expected_retx))
            tx_power_w = 10.0 ** ((radio.uplink_max_eirp_dbm
                                   - 30.0) / 10.0)
            energy_j_per_day = tx_power_w * airtime * tx_per_day

            monthly = prov.costs.monthly_data_cost_usd(
                request.packets_per_day, request.payload_bytes)
            entries.append({
                "provider": name,
                "display_name": prov.display_name,
                "constellation": prov.constellation.name,
                "satellites": sum(shell.count for shell
                                  in prov.constellation.shells),
                "availability": {
                    "coverage_fraction": round(covered / horizon, 6),
                    "covered_s": round(covered, 3),
                    "windows": len(merged),
                    "mean_window_s": round(covered / len(merged), 3)
                    if merged else 0.0,
                    "max_gap_s": round(max(gaps), 3) if gaps else 0.0,
                    "mean_gap_s": round(sum(gaps) / len(gaps), 3)
                    if gaps else 0.0,
                },
                "latency": {
                    "mean_wait_s": round(mean_wait, 3),
                    "max_wait_s": round(max(gaps), 3) if gaps else 0.0,
                    "retx_overhead_s": round(retx_overhead, 3),
                    "mean_uplink_latency_s": round(mean_uplink, 3),
                },
                "energy": {
                    "airtime_s": round(airtime, 6),
                    "tx_per_day": round(tx_per_day, 3),
                    "energy_j_per_day": round(energy_j_per_day, 6),
                },
                "cost": {
                    "device_usd": round(prov.costs.device_cost_usd, 4),
                    "monthly_usd": round(monthly, 4),
                    "usd_per_thousand_packets": round(
                        prov.costs.usd_per_thousand_packets, 4),
                    "tco_12mo_usd": round(
                        prov.costs.device_cost_usd + 12.0 * monthly, 4),
                },
            })
        cheapest = min(entries,
                       key=lambda e: e["cost"]["monthly_usd"])
        most_available = max(
            entries,
            key=lambda e: e["availability"]["coverage_fraction"])
        payload = {
            "site": request.site_dict(),
            "horizon_s": horizon,
            "min_elevation_deg": request.min_elevation_deg,
            "packets_per_day": request.packets_per_day,
            "payload_bytes": request.payload_bytes,
            "providers": entries,
            "cheapest": cheapest["provider"],
            "most_available": most_available["provider"],
        }
        if request.start_s:
            payload["start_s"] = round(request.start_s, 3)
        return payload

    # ------------------------------------------------------------------
    # /v1/link_budget
    # ------------------------------------------------------------------
    def link_budget_batch(self, requests: Sequence[LinkBudgetRequest],
                          ) -> List[dict]:
        results: List[Optional[dict]] = [None] * len(requests)
        for _, indices in self._group_indices(requests).items():
            group = [requests[i] for i in indices]
            const = self.constellation(group[0].constellation)
            epoch = self.epoch(group[0].constellation)
            t = group[0].t_offset_s
            # Observer-independent work, once per group: the fleet's
            # states at t (one cached grid of one instant), converted
            # to ECEF in one vectorized call (shared instant → shared
            # GMST).
            r, v = self.ephemeris.constellation_grid(
                [sat.propagator for sat in const], epoch, [t])
            r_ecef, v_ecef = ecef_states(r[:, 0], v[:, 0],
                                         epoch.offset_jd(t))
            for request, index in zip(group, indices):
                results[index] = self._link_budget_payload(
                    request, const, r_ecef, v_ecef)
        return results  # type: ignore[return-value]

    def _link_budget_payload(self, request: LinkBudgetRequest,
                             const: Constellation,
                             r_ecef: np.ndarray,
                             v_ecef: np.ndarray) -> dict:
        radio = const.radio
        sf = request.spreading_factor or radio.spreading_factor
        payload_bytes = request.payload_bytes or \
            radio.beacon_payload_bytes
        budget = LinkBudget(eirp_dbm=radio.beacon_eirp_dbm,
                            frequency_hz=radio.frequency_hz)
        modulation = LoRaModulation(
            spreading_factor=sf, bandwidth_hz=radio.bandwidth_hz,
            coding_rate=radio.coding_rate,
            preamble_symbols=radio.preamble_symbols,
            explicit_header=radio.explicit_header,
            low_data_rate_optimize=radio.low_data_rate_optimize)
        sensitivity = sensitivity_dbm(sf, radio.bandwidth_hz)
        airtime = modulation.airtime_s(payload_bytes)

        angles = look_angles_from_ecef(request.observer(),
                                       r_ecef, v_ecef)
        elevation = np.atleast_1d(np.asarray(angles.elevation_deg))
        visible = np.flatnonzero(
            elevation >= request.min_elevation_deg)
        sats = const.satellites
        entries: List[dict] = []
        if visible.size:
            azimuth = np.atleast_1d(np.asarray(angles.azimuth_deg))
            rng = np.atleast_1d(np.asarray(angles.range_km))
            rate = np.atleast_1d(np.asarray(angles.range_rate_km_s))
            parts = budget.components(rng[visible], elevation[visible],
                                      raining=request.raining)
            rssi = np.atleast_1d(np.asarray(parts["rssi_dbm"], float))
            # Components may be scalar (e.g. rain when not raining):
            # broadcast them to one value per visible satellite.
            fspl = np.broadcast_to(
                np.asarray(parts["fspl_db"], float), rssi.shape)
            excess = np.broadcast_to(
                np.asarray(parts["excess_db"], float), rssi.shape)
            rain = np.broadcast_to(
                np.asarray(parts["rain_db"], float), rssi.shape)
            doppler = np.atleast_1d(np.asarray(doppler_shift_hz(
                rate[visible], radio.frequency_hz)))
            for pos, sat_index in enumerate(visible):
                sat = sats[int(sat_index)]
                entries.append({
                    "satellite": sat.name,
                    "norad_id": sat.tle.norad_id,
                    "elevation_deg": round(float(
                        elevation[sat_index]), 3),
                    "azimuth_deg": round(float(azimuth[sat_index]), 3),
                    "range_km": round(float(rng[sat_index]), 3),
                    "range_rate_km_s": round(float(
                        rate[sat_index]), 6),
                    "rssi_dbm": round(float(rssi[pos]), 3),
                    "fspl_db": round(float(fspl[pos]), 3),
                    "excess_loss_db": round(float(excess[pos]), 3),
                    "rain_loss_db": round(float(rain[pos]), 3),
                    "link_margin_db": round(float(rssi[pos])
                                            - sensitivity, 3),
                    "doppler_hz": round(float(doppler[pos]), 1),
                })
            entries.sort(key=lambda e: e["rssi_dbm"], reverse=True)
        return {
            "site": request.site_dict(),
            "constellation": const.name,
            "t_offset_s": request.t_offset_s,
            "min_elevation_deg": request.min_elevation_deg,
            "spreading_factor": sf,
            "payload_bytes": payload_bytes,
            "sensitivity_dbm": round(sensitivity, 3),
            "airtime_s": round(airtime, 6),
            "raining": request.raining,
            "visible_count": len(entries),
            "best": entries[0] if entries else None,
            "satellites": entries,
        }
