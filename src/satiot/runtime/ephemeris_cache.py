"""Memoizing cache for SGP4 ephemeris grids and pass predictions.

The passive campaign's dominant cost is orbital geometry: every site
re-propagates every satellite over the full campaign span, and the same
position/velocity grid is recomputed for all eight sites even though the
TEME-frame ephemeris does not depend on the observer at all.  This
module removes that redundancy with two memoized products:

* **propagation grids** — the ``(r, v)`` TEME state sampled on the
  coarse time grid, keyed by ``(TLE fingerprint, epoch, grid shape)``
  and shared across *all* sites of a campaign;
* **pass predictions** — the refined :class:`ContactWindow` list of one
  satellite over one observer, keyed by ``(TLE fingerprint, epoch,
  duration, step, elevation mask, quantized location, refine
  tolerance)`` and shared across repeated campaign and benchmark
  invocations.

Both live in an in-memory LRU tier; an optional on-disk ``.npz`` tier
(shared between worker processes and across benchmark runs) can be
enabled with ``disk_dir=`` or the ``SATIOT_EPHEMERIS_CACHE_DIR``
environment variable.  Cache lookups are exact — keys incorporate every
input that influences the cached value — so a hit returns arrays that
are bit-identical to a fresh computation, preserving the runtime's
determinism contract.

Whole-fleet **constellation grids** get a third representation: a
*segment* — the ``(N, T, 3)`` position/velocity stacks written once as
raw ``.npy`` files (plus a SHA-256 sidecar) with a deterministic
layout.  Unlike ``.npz`` entries (zip archives, which must be
decompressed into private memory), segments are opened with
``np.load(mmap_mode="r")``: every process that loads the same segment
maps the *same* physical pages, so N serving workers share one
resident copy of the fleet ephemeris instead of holding N private
copies.  ``readonly=True`` (the default; disable with
``SATIOT_EPHEMERIS_MMAP=0``) hands these mmap-backed read-only views
directly to consumers — zero copies on the serving hot path.

The disk tier is **checksummed and self-healing**: every ``.npz`` entry
carries a SHA-256 digest of its arrays, and a corrupted, truncated or
otherwise unreadable entry is detected on load, quarantined next to the
store (``<entry>.npz.bad``) and treated as a cache miss — the value is
recomputed and rewritten.  Disk-tier I/O errors (read-only or vanished
cache directories, full disks) are counted, warned about once, and
degrade the cache to compute-through, never to wrong answers.  The
:mod:`satiot.faults` plane exercises exactly these paths via the
``cache.disk_read`` / ``cache.disk_write`` injection sites.

Set ``SATIOT_EPHEMERIS_CACHE=0`` to disable the process-default cache.
"""

from __future__ import annotations

import hashlib
import os
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..faults import fault_fires
from ..orbits.frames import GeodeticPoint, teme_to_ecef
from ..orbits.passes import ContactWindow, PassPredictor, _PassSearch
from ..orbits.sgp4 import SGP4
from ..orbits.sgp4_batch import SGP4Batch
from ..orbits.timebase import Epoch
from ..orbits.tle import TLE, format_tle

__all__ = ["CacheStats", "EphemerisCache", "get_default_cache",
           "reset_default_cache", "tle_fingerprint",
           "constellation_fingerprint"]

#: Disable the process-default cache entirely when set to 0/false/off.
CACHE_ENV = "SATIOT_EPHEMERIS_CACHE"
#: Directory for the shared on-disk tier of the process-default cache.
CACHE_DIR_ENV = "SATIOT_EPHEMERIS_CACHE_DIR"
#: Set to 0/false/off to materialize constellation-grid segments into
#: private memory instead of serving mmap-backed read-only views.
MMAP_ENV = "SATIOT_EPHEMERIS_MMAP"

_PASS_FIELDS = ("rise_s", "set_s", "culmination_s", "max_elevation_deg",
                "norad_id", "clipped_start", "clipped_end")


@lru_cache(maxsize=4096)
def tle_fingerprint(tle: TLE) -> str:
    """Stable 16-hex-digit fingerprint of an element set.

    Computed over the *formatted* two-line representation, so the
    fingerprint is invariant under a parse → format → parse round-trip
    (the canonical form is a fixed-point function of the orbital
    fields).  Memoized: the serving layer fingerprints the same element
    sets on every cache lookup of every request.
    """
    line1, line2 = format_tle(tle)
    digest = hashlib.sha256(f"{line1}\n{line2}".encode("ascii"))
    return digest.hexdigest()[:16]


def constellation_fingerprint(tles: Sequence[TLE]) -> str:
    """Joint 16-hex-digit fingerprint of an *ordered* fleet.

    Built over the member fingerprints, so it changes whenever any
    element set changes, a satellite is added/removed, or the order
    differs (order matters: the constellation-grid entry stacks rows in
    fleet order).
    """
    digest = hashlib.sha256(
        "\n".join(tle_fingerprint(t) for t in tles).encode("ascii"))
    return digest.hexdigest()[:16]


def _quantize_location(observer: GeodeticPoint,
                       decimals: int = 9) -> Tuple[float, float, float]:
    """Observer location quantized to ~0.1 mm so float noise can't split
    otherwise-identical cache keys."""
    return (round(float(observer.latitude_deg), decimals),
            round(float(observer.longitude_deg), decimals),
            round(float(observer.altitude_km), decimals))


@dataclass
class CacheStats:
    """Hit/miss counters, split by cached product and tier."""

    grid_hits: int = 0
    grid_misses: int = 0
    pass_hits: int = 0
    pass_misses: int = 0
    disk_hits: int = 0
    disk_writes: int = 0
    #: Corrupt/unreadable disk entries quarantined (``*.bad``) and
    #: treated as misses.
    disk_corrupt: int = 0
    #: Disk-tier I/O errors swallowed (read-only dir, full disk, ...).
    disk_errors: int = 0
    #: Approximate resident bytes of the in-memory grid tier, refreshed
    #: by :meth:`EphemerisCache.grid_resident_bytes` (views into a
    #: shared constellation stack are counted once).
    grid_bytes: int = 0
    #: Of :attr:`grid_bytes`: bytes owned privately by this process.
    grid_private_bytes: int = 0
    #: Of :attr:`grid_bytes`: bytes backed by mmap'd segments — resident
    #: once machine-wide no matter how many workers map them.
    grid_mmap_bytes: int = 0
    #: Constellation-grid fills served by the incremental extension
    #: fast path (prefix reused, only the suffix propagated).  Each is
    #: also counted in :attr:`grid_misses` — the fleet entry did miss.
    grid_extensions: int = 0

    @property
    def hits(self) -> int:
        return self.grid_hits + self.pass_hits

    @property
    def misses(self) -> int:
        return self.grid_misses + self.pass_misses

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> Tuple[int, ...]:
        return (self.grid_hits, self.grid_misses, self.pass_hits,
                self.pass_misses, self.disk_hits, self.disk_writes,
                self.disk_corrupt, self.disk_errors)


class EphemerisCache:
    """Two-tier (memory LRU + optional disk) ephemeris memoizer.

    Parameters
    ----------
    max_grids:
        In-memory LRU capacity for propagation grids.  A 3-day campaign
        at 30 s steps is ~8.6 k samples → ~400 kB per satellite, so the
        default comfortably holds every satellite of the study.
    max_pass_lists:
        In-memory LRU capacity for per-(satellite, site) pass lists;
        these are tiny (a few windows each).
    disk_dir:
        Optional directory for the shared ``.npz`` tier.  Created on
        demand; safe to share between concurrent worker processes
        (writes go through a per-pid temp file + atomic rename).
    readonly:
        When True (the default; ``SATIOT_EPHEMERIS_MMAP=0`` flips it),
        constellation-grid segments are served as mmap-backed
        *read-only* views straight off the disk tier — no
        materializing copy, one resident copy shared across every
        process that maps the same segment.  Pass False when callers
        need private writable arrays.
    """

    def __init__(self, max_grids: int = 256, max_pass_lists: int = 4096,
                 disk_dir: Union[str, Path, None] = None,
                 readonly: Optional[bool] = None) -> None:
        if max_grids < 1 or max_pass_lists < 1:
            raise ValueError("cache capacities must be positive")
        self.max_grids = int(max_grids)
        self.max_pass_lists = int(max_pass_lists)
        self.disk_dir = Path(disk_dir) if disk_dir else None
        if readonly is None:
            readonly = os.environ.get(MMAP_ENV, "1").strip().lower() \
                not in ("0", "false", "off", "no")
        self.readonly = bool(readonly)
        self.stats = CacheStats()
        self._warned_disk = False
        self._grids: "OrderedDict[tuple, Tuple[np.ndarray, np.ndarray]]" \
            = OrderedDict()
        self._pass_lists: "OrderedDict[tuple, Tuple[ContactWindow, ...]]" \
            = OrderedDict()
        # Most recent offsets grid served per (fleet, epoch) — the
        # candidate prefix for the incremental extension fast path.
        self._extents: "OrderedDict[tuple, np.ndarray]" = OrderedDict()

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    @staticmethod
    def grid_key(tle: TLE, epoch: Epoch,
                 offsets: np.ndarray) -> tuple:
        offsets = np.ascontiguousarray(offsets, dtype=float)
        content = hashlib.sha1(offsets.tobytes()).hexdigest()[:16]
        return ("grid", tle_fingerprint(tle), round(float(epoch.jd), 9),
                int(offsets.size), content)

    @staticmethod
    def constellation_key(tles: Sequence[TLE], epoch: Epoch,
                          offsets: np.ndarray) -> tuple:
        """Key of one whole-fleet ``(N, T, 3)`` propagation stack.

        Mirrors :meth:`grid_key` (same epoch rounding and offsets
        digest) with the joint fleet fingerprint, so the constellation
        entry and its per-satellite row entries always agree on the
        grid they describe.
        """
        offsets = np.ascontiguousarray(offsets, dtype=float)
        content = hashlib.sha1(offsets.tobytes()).hexdigest()[:16]
        return ("cgrid", constellation_fingerprint(tles),
                round(float(epoch.jd), 9), int(offsets.size), content)

    @staticmethod
    def pass_key(tle: TLE, observer: GeodeticPoint, epoch: Epoch,
                 duration_s: float, coarse_step_s: float,
                 min_elevation_deg: float, refine_tol_s: float,
                 refine: str = "bisect") -> tuple:
        return ("passes", tle_fingerprint(tle),
                round(float(epoch.jd), 9), round(float(duration_s), 6),
                round(float(coarse_step_s), 6),
                round(float(min_elevation_deg), 6),
                _quantize_location(observer),
                round(float(refine_tol_s), 6), str(refine))

    # ------------------------------------------------------------------
    # Propagation grids
    # ------------------------------------------------------------------
    def propagation_grid(self, propagator: SGP4, epoch: Epoch,
                         offsets_s: Sequence[float],
                         ) -> Tuple[np.ndarray, np.ndarray]:
        """TEME ``(r, v)`` of ``propagator`` at ``epoch + offsets_s``.

        Bit-identical to ``propagator.propagate(...)`` on the same
        instants; hits skip the SGP4 evaluation entirely.
        """
        offsets = np.asarray(offsets_s, dtype=float)
        key = self.grid_key(propagator.tle, epoch, offsets)
        cached = self._lru_get(self._grids, key)
        if cached is not None:
            self.stats.grid_hits += 1
            return cached
        disk = self._disk_load_grid(key)
        if disk is not None:
            self.stats.grid_hits += 1
            self.stats.disk_hits += 1
            self._lru_put(self._grids, key, disk, self.max_grids)
            return disk
        self.stats.grid_misses += 1
        tsince = float(epoch - propagator.tle.epoch) + offsets
        r, v = propagator.propagate(tsince)
        r = np.asarray(r, dtype=float)
        v = np.asarray(v, dtype=float)
        self._lru_put(self._grids, key, (r, v), self.max_grids)
        self._disk_store(key, {"r": r, "v": v})
        return r, v

    def grid_provider(self, propagator: SGP4,
                      ) -> Callable[[Epoch, np.ndarray],
                                    Tuple[np.ndarray, np.ndarray]]:
        """A ``PassPredictor``-compatible coarse-grid provider."""
        def provider(epoch: Epoch, offsets: np.ndarray):
            return self.propagation_grid(propagator, epoch, offsets)
        return provider

    # ------------------------------------------------------------------
    # Constellation grids
    # ------------------------------------------------------------------
    def constellation_grid(self, propagators: Sequence[SGP4],
                           epoch: Epoch, offsets_s: Sequence[float],
                           ) -> Tuple[np.ndarray, np.ndarray]:
        """Whole-fleet TEME ``(r, v)`` stacks of shape ``(N, T, 3)``.

        Row ``n`` is bit-identical to
        ``propagators[n].propagate(...)`` on the same instants (the
        :class:`~satiot.orbits.sgp4_batch.SGP4Batch` contract).  The
        stack is cached under the constellation key **and** every row
        is published as a view under the corresponding single-satellite
        :meth:`grid_key` — so later single-satellite lookups hit the
        fleet fill, and previously cached single-satellite grids are
        adopted into the stack instead of being re-propagated.  Rows
        actually propagated here are written to the disk tier (as
        ordinary single-satellite entries), and the whole stack is
        written **once** as an mmap-able segment: with
        ``readonly=True`` every later load (in this or any other
        process) returns read-only views into one shared mapping
        instead of a private copy.
        """
        offsets = np.asarray(offsets_s, dtype=float)
        propagators = list(propagators)
        tles = [p.tle for p in propagators]
        ckey = self.constellation_key(tles, epoch, offsets)
        cached = self._lru_get(self._grids, ckey)
        if cached is not None:
            self.stats.grid_hits += 1
            self._record_extent(tles, epoch, offsets)
            return cached
        segment = self._segment_load(ckey)
        if segment is not None:
            r, v = segment
            self.stats.grid_hits += 1
            self.stats.disk_hits += 1
            sat_keys = [self.grid_key(t, epoch, offsets) for t in tles]
            for i, key in enumerate(sat_keys):
                self._lru_put(self._grids, key, (r[i], v[i]),
                              self.max_grids)
            self._lru_put(self._grids, ckey, (r, v), self.max_grids)
            self._record_extent(tles, epoch, offsets)
            return r, v
        extended = self._extend_from_prefix(propagators, tles, ckey,
                                            epoch, offsets)
        if extended is not None:
            self._record_extent(tles, epoch, offsets)
            return extended

        n = len(propagators)
        sat_keys = [self.grid_key(t, epoch, offsets) for t in tles]
        r = np.empty((n, offsets.size, 3), dtype=float)
        v = np.empty((n, offsets.size, 3), dtype=float)
        missing: List[int] = []
        for i, key in enumerate(sat_keys):
            hit = self._lru_get(self._grids, key)
            if hit is None:
                disk = self._disk_load_grid(key)
                if disk is not None:
                    self.stats.disk_hits += 1
                    hit = disk
            if hit is not None:
                self.stats.grid_hits += 1
                r[i], v[i] = hit
            else:
                missing.append(i)
        if missing:
            self.stats.grid_misses += len(missing)
            batch = SGP4Batch.from_propagators(
                [propagators[i] for i in missing])
            r_new, v_new = batch.propagate_offsets(epoch, offsets)
            for j, i in enumerate(missing):
                r[i] = r_new[j]
                v[i] = v_new[j]
        missing_set = frozenset(missing)
        for i, key in enumerate(sat_keys):
            # Row views share the stack's memory: the grid tier holds
            # one (N, T, 3) buffer, not N+1 copies (grid_resident_bytes
            # counts the base buffer once).
            self._lru_put(self._grids, key, (r[i], v[i]),
                          self.max_grids)
            if i in missing_set:
                self._disk_store(key, {"r": r[i], "v": v[i]})
        self._segment_store(ckey, r, v)
        self._lru_put(self._grids, ckey, (r, v), self.max_grids)
        self._record_extent(tles, epoch, offsets)
        return r, v

    # ------------------------------------------------------------------
    # Incremental extension (digital-twin serving)
    # ------------------------------------------------------------------
    @staticmethod
    def _extent_key(tles: Sequence[TLE], epoch: Epoch) -> tuple:
        """One extent slot per (fleet, epoch): the prefix candidate."""
        return (constellation_fingerprint(tles),
                round(float(epoch.jd), 9))

    def _record_extent(self, tles: Sequence[TLE], epoch: Epoch,
                       offsets: np.ndarray) -> None:
        """Remember the offsets grid just served for this fleet+epoch.

        The twin's advancing clock issues monotonically growing grids,
        so "the grid most recently served" is exactly the prefix the
        next request can extend from.  Stored as a private copy so a
        caller mutating their offsets array can't corrupt the record.
        """
        self._lru_put(self._extents, self._extent_key(tles, epoch),
                      np.array(offsets, dtype=float), self.max_grids)

    def _extend_from_prefix(self, propagators: Sequence[SGP4],
                            tles: Sequence[TLE], ckey: tuple,
                            epoch: Epoch, offsets: np.ndarray,
                            ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Serve ``offsets`` by extending the recorded prefix grid.

        Applies only when the recorded extent is a strict byte-level
        prefix of ``offsets`` and its ``(N, T, 3)`` stack is still
        reachable (memory LRU or mmap'd segment).  Only the suffix
        instants are propagated; SGP4 is memoryless in ``tsince``, so
        the concatenated stack is bit-identical to a cold full-range
        propagation (property-tested in tests/twin).  The combined
        stack is republished under the full key — including a new
        segment, which is how a restarted fleet worker re-attaches to
        grids its siblings extended.  The ``twin.extend`` fault site
        abandons the fast path (full recompute; output unchanged).
        """
        if fault_fires("twin.extend"):
            return None
        prev = self._extents.get(self._extent_key(tles, epoch))
        if prev is None or not 0 < prev.size < offsets.size:
            return None
        t = int(prev.size)
        if offsets[:t].tobytes() != prev.tobytes():
            return None
        prev_key = self.constellation_key(tles, epoch, prev)
        prefix = self._lru_get(self._grids, prev_key)
        if prefix is None:
            prefix = self._segment_load(prev_key)
            if prefix is not None:
                self.stats.disk_hits += 1
        if prefix is None:
            return None
        r_prev, v_prev = prefix
        n = len(propagators)
        if r_prev.shape != (n, t, 3) or v_prev.shape != (n, t, 3):
            return None
        batch = SGP4Batch.from_propagators(propagators)
        r_suf, v_suf = batch.propagate_offsets(epoch, offsets[t:])
        # concatenate materializes a fresh private C-contiguous stack —
        # an mmap'd prefix is copied out, never written through.
        r = np.concatenate([r_prev, r_suf], axis=1)
        v = np.concatenate([v_prev, v_suf], axis=1)
        self.stats.grid_misses += 1
        self.stats.grid_extensions += 1
        for i, tle in enumerate(tles):
            self._lru_put(self._grids,
                          self.grid_key(tle, epoch, offsets),
                          (r[i], v[i]), self.max_grids)
        self._segment_store(ckey, r, v)
        self._lru_put(self._grids, ckey, (r, v), self.max_grids)
        return r, v

    def extend_constellation_grid(self, propagators: Sequence[SGP4],
                                  epoch: Epoch,
                                  offsets_s: Sequence[float],
                                  prefix_offsets_s: Optional[
                                      Sequence[float]] = None,
                                  ) -> Tuple[np.ndarray, np.ndarray]:
        """Whole-fleet grid over ``offsets_s``, extending incrementally.

        Identical contract (and bit-identical output) to
        :meth:`constellation_grid`; the difference is purely how the
        answer is produced.  When the previously served grid for this
        fleet — or the explicit ``prefix_offsets_s`` — is a strict
        prefix of ``offsets_s``, only the new suffix instants are
        propagated and the stacks are concatenated.  A cache that
        cannot see the prefix (evicted, no disk tier) degrades to a
        full fill, never to a wrong answer.

        ``prefix_offsets_s`` seeds the extent record explicitly: a
        process that did not itself serve the prefix (a restarted
        fleet worker, a fresh cache over an existing ``disk_dir``) can
        name the grid it expects to find in the shared segment tier.
        """
        if prefix_offsets_s is not None:
            offsets = np.asarray(offsets_s, dtype=float)
            prefix = np.asarray(prefix_offsets_s, dtype=float)
            if 0 < prefix.size < offsets.size and \
                    offsets[:prefix.size].tobytes() == prefix.tobytes():
                tles = [p.tle for p in propagators]
                self._record_extent(tles, epoch, prefix)
        return self.constellation_grid(propagators, epoch, offsets_s)

    def fleet_grid_provider(self, propagators: Sequence[SGP4],
                            ) -> Callable[[Epoch, np.ndarray],
                                          Tuple[np.ndarray, np.ndarray]]:
        """A ``find_passes_fleet``-compatible fleet grid provider."""
        propagators = list(propagators)

        def provider(epoch: Epoch, offsets: np.ndarray):
            return self.constellation_grid(propagators, epoch, offsets)
        return provider

    # ------------------------------------------------------------------
    # Pass predictions
    # ------------------------------------------------------------------
    def find_passes(self, propagator: SGP4, observer: GeodeticPoint,
                    epoch: Epoch, duration_s: float,
                    coarse_step_s: float = 30.0,
                    min_elevation_deg: float = 0.0,
                    refine_tol_s: float = 0.5,
                    refine: str = "bisect") -> List[ContactWindow]:
        """Cached equivalent of ``PassPredictor.find_passes``."""
        key = self.pass_key(propagator.tle, observer, epoch, duration_s,
                            coarse_step_s, min_elevation_deg,
                            refine_tol_s, refine)
        cached = self._lookup_passes(key)
        if cached is not None:
            return list(cached)
        self.stats.pass_misses += 1
        predictor = PassPredictor(propagator, observer,
                                  min_elevation_deg,
                                  grid_provider=self.grid_provider(
                                      propagator))
        windows = tuple(predictor.find_passes(
            epoch, duration_s, coarse_step_s=coarse_step_s,
            refine_tol_s=refine_tol_s, refine=refine))
        self._store_passes(key, windows)
        return list(windows)

    def find_passes_fleet(self, propagators: Sequence[SGP4],
                          observers: Sequence[GeodeticPoint],
                          epoch: Epoch, duration_s: float,
                          coarse_step_s: float = 30.0,
                          min_elevation_deg: float = 0.0,
                          refine_tol_s: float = 0.5,
                          refine: str = "bisect",
                          geometry: Optional[Sequence[tuple]] = None,
                          ) -> List[List[List[ContactWindow]]]:
        """Cached fleet pass prediction: ``results[sat][observer]``.

        Every (satellite, observer) window list hits the **same** cache
        entries as serial :meth:`find_passes` calls — key compatibility
        rests on a pair's windows not depending on the search that
        computed them.  Missing pairs are computed by one pass search:
        one cached :meth:`constellation_grid` fill, one shared
        TEME→ECEF conversion (GMST evaluated once) restricted to the
        satellites that actually miss, and lockstep refinement of every
        missing pair's crossings.
        """
        propagators = list(propagators)
        observers = list(observers)
        n_obs = len(observers)
        results: List[List[Optional[List[ContactWindow]]]] = \
            [[None] * n_obs for _ in propagators]
        keys: List[List[tuple]] = []
        missing_by_sat: List[List[int]] = []
        for i, propagator in enumerate(propagators):
            sat_keys: List[tuple] = []
            missing: List[int] = []
            for m, observer in enumerate(observers):
                key = self.pass_key(propagator.tle, observer, epoch,
                                    duration_s, coarse_step_s,
                                    min_elevation_deg, refine_tol_s,
                                    refine)
                sat_keys.append(key)
                cached = self._lookup_passes(key)
                if cached is not None:
                    results[i][m] = list(cached)
                else:
                    missing.append(m)
            keys.append(sat_keys)
            missing_by_sat.append(missing)

        miss_sats = [i for i, missing in enumerate(missing_by_sat)
                     if missing]
        if miss_sats:
            self.stats.pass_misses += sum(
                len(missing_by_sat[i]) for i in miss_sats)
            offsets = PassPredictor.coarse_offsets(duration_s,
                                                   coarse_step_s)
            r, _ = self.constellation_grid(propagators, epoch, offsets)
            jd = epoch.offset_jd(offsets)
            # One GMST + rotation for all satellites that miss.
            r_ecef = teme_to_ecef(r[miss_sats], jd)
            pairs = [(row, m) for row, i in enumerate(miss_sats)
                     for m in missing_by_sat[i]]
            search = _PassSearch(
                epoch, offsets, [propagators[i] for i in miss_sats],
                observers, min_elevation_deg, refine_tol_s, refine,
                geometry=geometry)
            search.add_pairs(r_ecef, [row for row, _ in pairs],
                             [m for _, m in pairs])
            for (row, m), windows in zip(pairs, search.windows()):
                i = miss_sats[row]
                self._store_passes(keys[i][m], tuple(windows))
                results[i][m] = windows
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _lookup_passes(self, key: tuple,
                       ) -> Optional[Tuple[ContactWindow, ...]]:
        """Memory-then-disk lookup of one pass list (stats updated)."""
        cached = self._lru_get(self._pass_lists, key)
        if cached is not None:
            self.stats.pass_hits += 1
            return cached
        disk = self._disk_load_passes(key)
        if disk is not None:
            self.stats.pass_hits += 1
            self.stats.disk_hits += 1
            self._lru_put(self._pass_lists, key, disk,
                          self.max_pass_lists)
            return disk
        return None

    def _store_passes(self, key: tuple,
                      windows: Tuple[ContactWindow, ...]) -> None:
        self._lru_put(self._pass_lists, key, windows,
                      self.max_pass_lists)
        self._disk_store(key, self._passes_to_arrays(windows))

    # ------------------------------------------------------------------
    # Memory LRU tier
    # ------------------------------------------------------------------
    @staticmethod
    def _lru_get(store: OrderedDict, key: tuple):
        try:
            value = store[key]
        except KeyError:
            return None
        store.move_to_end(key)
        return value

    @staticmethod
    def _lru_put(store: OrderedDict, key: tuple, value,
                 capacity: int) -> None:
        store[key] = value
        store.move_to_end(key)
        while len(store) > capacity:
            store.popitem(last=False)

    def clear_memory(self) -> None:
        """Drop the in-memory tier (the disk tier is untouched)."""
        self._grids.clear()
        self._pass_lists.clear()
        self._extents.clear()

    def grid_resident_bytes(self) -> int:
        """Approximate resident bytes of the in-memory grid tier.

        Sums ``nbytes`` over the distinct *base* buffers of every
        cached array, so the N row views published by
        :meth:`constellation_grid` and their shared ``(N, T, 3)`` stack
        count once.  Buffers backed by mmap'd segments are tallied
        separately (:attr:`CacheStats.grid_mmap_bytes`): those pages
        are resident **once machine-wide**, no matter how many worker
        processes map them, while :attr:`CacheStats.grid_private_bytes`
        is paid per process.  Refreshes :attr:`CacheStats.grid_bytes`.
        """
        seen = set()
        private = 0
        shared = 0
        for r, v in self._grids.values():
            for arr in (r, v):
                base = arr
                while isinstance(base.base, np.ndarray):
                    base = base.base
                if id(base) in seen:
                    continue
                seen.add(id(base))
                if isinstance(base, np.memmap):
                    shared += base.nbytes
                else:
                    private += base.nbytes
        self.stats.grid_private_bytes = private
        self.stats.grid_mmap_bytes = shared
        self.stats.grid_bytes = private + shared
        return private + shared

    # ------------------------------------------------------------------
    # Disk tier (checksummed, quarantining, fault-aware)
    # ------------------------------------------------------------------
    #: Reserved entry name carrying the SHA-256 digest of every array.
    CHECKSUM_KEY = "__satiot_checksum__"

    def _disk_path(self, key: tuple) -> Optional[Path]:
        if self.disk_dir is None:
            return None
        name = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()[:32]
        return self.disk_dir / f"{key[0]}-{name}.npz"

    @staticmethod
    def _arrays_checksum(arrays: dict) -> str:
        """SHA-256 over every array's name, dtype, shape and bytes.

        Hashes through a flat memoryview rather than ``tobytes()`` so
        verifying a large mmap'd segment never materializes a private
        copy of it (the pages stream through the OS page cache).
        """
        digest = hashlib.sha256()
        for name in sorted(arrays):
            arr = np.ascontiguousarray(arrays[name])
            digest.update(name.encode("utf-8"))
            digest.update(str(arr.dtype).encode("ascii"))
            digest.update(str(arr.shape).encode("ascii"))
            digest.update(memoryview(arr).cast("B"))
        return digest.hexdigest()

    def _disk_degraded(self, error: BaseException) -> None:
        """Count (and warn once about) a swallowed disk-tier error."""
        self.stats.disk_errors += 1
        if not self._warned_disk:
            self._warned_disk = True
            warnings.warn(
                f"ephemeris disk cache at {self.disk_dir} is "
                f"unavailable ({type(error).__name__}: {error}); "
                f"degrading to compute-through", RuntimeWarning,
                stacklevel=4)

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a corrupt entry aside (``*.bad``) and count it."""
        try:
            path.replace(path.with_name(path.name + ".bad"))
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass  # can't even remove it: the miss still recomputes
        self.stats.disk_corrupt += 1
        warnings.warn(
            f"quarantined corrupt ephemeris cache entry {path.name} "
            f"({reason}); recomputing", RuntimeWarning, stacklevel=4)

    @staticmethod
    def _corrupt_file(path: Path) -> None:
        """``cache.disk_read`` fault action: garble the entry on disk.

        The injected fault damages *real* state so the detection path
        (checksum verify → quarantine → miss) is exercised end to end.
        """
        try:
            if not path.exists():
                return
            size = path.stat().st_size
            with path.open("r+b") as fh:
                fh.truncate(max(0, size // 2))
                fh.seek(0)
                fh.write(b"\x00satiot-chaos\x00")
        except OSError:
            pass

    def _disk_store(self, key: tuple, arrays: dict) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        payload = dict(arrays)
        payload[self.CHECKSUM_KEY] = np.array(
            self._arrays_checksum(arrays))
        try:
            if fault_fires("cache.disk_write"):
                raise OSError("injected fault at site 'cache.disk_write'")
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp{os.getpid()}")
            with tmp.open("wb") as fh:
                np.savez(fh, **payload)
            tmp.replace(path)
            self.stats.disk_writes += 1
        except OSError as error:
            self._disk_degraded(error)  # degradation, never an error

    def _disk_load(self, key: tuple) -> Optional[dict]:
        path = self._disk_path(key)
        if path is None:
            return None
        if fault_fires("cache.disk_read"):
            self._corrupt_file(path)
        if not path.exists():
            return None
        try:
            with np.load(path) as data:
                # NpzFile already decompresses each member into a fresh
                # array; wrapping it in np.array() again would double
                # the copy for every disk hit.
                arrays = {name: data[name] for name in data.files}
        except Exception:
            # Truncated zip, zero-byte file, garbage bytes, OS error:
            # anything unreadable is quarantined and recomputed.
            self._quarantine(path, "unreadable entry")
            return None
        stored = arrays.pop(self.CHECKSUM_KEY, None)
        if stored is None:
            self._quarantine(path, "missing checksum")
            return None
        if str(stored[()]) != self._arrays_checksum(arrays):
            self._quarantine(path, "checksum mismatch")
            return None
        return arrays

    def _disk_load_grid(self, key: tuple,
                        ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        data = self._disk_load(key)
        if data is None or "r" not in data or "v" not in data:
            return None
        return data["r"], data["v"]

    # ------------------------------------------------------------------
    # Segment tier (mmap-able whole-fleet grids)
    # ------------------------------------------------------------------
    #: On-disk layout of one constellation-grid segment: two raw
    #: ``.npy`` stacks plus a checksum sidecar.  Raw ``.npy`` (not
    #: ``.npz``) is what makes ``np.load(mmap_mode="r")`` possible —
    #: a zip archive has to be decompressed into private memory, a
    #: flat array file can be mapped and its pages shared.
    SEGMENT_SUFFIXES = (".r.npy", ".v.npy", ".sha256")

    def _segment_paths(self, key: tuple) -> Optional[Tuple[Path, ...]]:
        if self.disk_dir is None:
            return None
        name = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()[:32]
        base = f"{key[0]}-{name}"
        return tuple(self.disk_dir / (base + suffix)
                     for suffix in self.SEGMENT_SUFFIXES)

    def _segment_store(self, key: tuple, r: np.ndarray,
                       v: np.ndarray) -> None:
        """Write one segment, exactly once (existing files are kept).

        Layout is deterministic — ``np.save`` of a C-contiguous float64
        stack — so concurrent workers racing the first fill write
        byte-identical files through per-pid temp names + atomic
        rename.
        """
        paths = self._segment_paths(key)
        if paths is None or all(p.exists() for p in paths):
            return
        r = np.ascontiguousarray(r, dtype=float)
        v = np.ascontiguousarray(v, dtype=float)
        checksum = self._arrays_checksum({"r": r, "v": v})
        try:
            if fault_fires("cache.disk_write"):
                raise OSError("injected fault at site 'cache.disk_write'")
            self.disk_dir.mkdir(parents=True, exist_ok=True)
            for path, payload in zip(paths, (r, v, checksum)):
                tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
                if isinstance(payload, np.ndarray):
                    with tmp.open("wb") as fh:
                        np.save(fh, payload)
                else:
                    tmp.write_text(payload + "\n", encoding="ascii")
                tmp.replace(path)
            self.stats.disk_writes += 1
        except OSError as error:
            self._disk_degraded(error)

    def _segment_load(self, key: tuple,
                      ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Load one segment; mmap-backed read-only views by default.

        With ``readonly=True`` the returned ``(N, T, 3)`` stacks are
        ``np.memmap`` views (no copy; checksum verification streams
        the pages through the OS cache, which is exactly the residency
        the serving fleet shares).  With ``readonly=False`` they are
        materialized into private writable arrays.  Corruption is
        handled like the ``.npz`` tier: quarantine every segment file
        as ``*.bad`` and treat the lookup as a miss.
        """
        paths = self._segment_paths(key)
        if paths is None:
            return None
        r_path, v_path, sum_path = paths
        if fault_fires("cache.disk_read"):
            self._corrupt_file(r_path)
        if not all(p.exists() for p in paths):
            return None
        try:
            mode = "r" if self.readonly else None
            r = np.load(r_path, mmap_mode=mode)
            v = np.load(v_path, mmap_mode=mode)
            expected = sum_path.read_text(encoding="ascii").strip()
        except Exception:
            self._quarantine_segment(paths, "unreadable segment")
            return None
        if r.ndim != 3 or r.shape != v.shape or \
                self._arrays_checksum({"r": r, "v": v}) != expected:
            self._quarantine_segment(paths, "checksum mismatch")
            return None
        return r, v

    def _quarantine_segment(self, paths: Sequence[Path],
                            reason: str) -> None:
        """Move every file of a corrupt segment aside (one count)."""
        for path in paths:
            if not path.exists():
                continue
            try:
                path.replace(path.with_name(path.name + ".bad"))
            except OSError:
                try:
                    path.unlink()
                except OSError:
                    pass
        self.stats.disk_corrupt += 1
        warnings.warn(
            f"quarantined corrupt ephemeris segment "
            f"{paths[0].name} ({reason}); recomputing",
            RuntimeWarning, stacklevel=4)

    def _disk_load_passes(self, key: tuple,
                          ) -> Optional[Tuple[ContactWindow, ...]]:
        data = self._disk_load(key)
        if data is None or any(f not in data for f in _PASS_FIELDS):
            return None
        return self._passes_from_arrays(data)

    @staticmethod
    def _passes_to_arrays(windows: Sequence[ContactWindow]) -> dict:
        return {
            "rise_s": np.array([w.rise_s for w in windows], float),
            "set_s": np.array([w.set_s for w in windows], float),
            "culmination_s": np.array(
                [w.culmination_s for w in windows], float),
            "max_elevation_deg": np.array(
                [w.max_elevation_deg for w in windows], float),
            "norad_id": np.array([w.norad_id for w in windows],
                                 np.int64),
            "clipped_start": np.array(
                [w.clipped_start for w in windows], bool),
            "clipped_end": np.array(
                [w.clipped_end for w in windows], bool),
        }

    @staticmethod
    def _passes_from_arrays(data: dict) -> Tuple[ContactWindow, ...]:
        n = int(data["rise_s"].size)
        return tuple(
            ContactWindow(
                rise_s=float(data["rise_s"][i]),
                set_s=float(data["set_s"][i]),
                culmination_s=float(data["culmination_s"][i]),
                max_elevation_deg=float(data["max_elevation_deg"][i]),
                norad_id=int(data["norad_id"][i]),
                clipped_start=bool(data["clipped_start"][i]),
                clipped_end=bool(data["clipped_end"][i]))
            for i in range(n))


# ----------------------------------------------------------------------
# Process-default cache
# ----------------------------------------------------------------------
_default_cache: Optional[EphemerisCache] = None


def get_default_cache() -> Optional[EphemerisCache]:
    """The lazily-built process-wide cache (or ``None`` if disabled).

    Honours ``SATIOT_EPHEMERIS_CACHE=0`` (disable) and
    ``SATIOT_EPHEMERIS_CACHE_DIR`` (enable the shared disk tier).
    Worker processes build their own instance from the same environment,
    so a configured disk tier is shared across the whole shard pool.
    """
    global _default_cache
    if os.environ.get(CACHE_ENV, "1").strip().lower() in (
            "0", "false", "off", "no"):
        return None
    if _default_cache is None:
        disk_dir = os.environ.get(CACHE_DIR_ENV, "").strip() or None
        _default_cache = EphemerisCache(disk_dir=disk_dir)
    return _default_cache


def reset_default_cache() -> None:
    """Forget the process-default cache (mainly for tests)."""
    global _default_cache
    _default_cache = None
