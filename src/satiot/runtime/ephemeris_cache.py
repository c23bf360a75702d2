"""Memoizing cache for SGP4 ephemeris grids and pass predictions.

The passive campaign's dominant cost is orbital geometry: every site
re-propagates every satellite over the full campaign span, and the same
position/velocity grid is recomputed for all eight sites even though the
TEME-frame ephemeris does not depend on the observer at all.  This
module removes that redundancy with two memoized products:

* **propagation grids** — the ``(r, v)`` TEME state of a fleet
  sampled on the coarse time grid as ``(N, T, 3)`` stacks, keyed by
  ``(fleet fingerprint, epoch, grid)`` and shared across *all* sites of
  a campaign.  A single satellite's grid is the N=1 stack;
* **pass predictions** — the refined :class:`ContactWindow` list of one
  satellite over one observer, keyed by ``(TLE fingerprint, epoch,
  duration, step, elevation mask, quantized location, refine
  tolerance)`` and shared across repeated campaign and benchmark
  invocations.

Cache lookups are exact — keys incorporate every input that influences
the cached value — so a hit returns arrays that are bit-identical to a
fresh computation, preserving the runtime's determinism contract.

Both products live in an in-memory LRU tier; the grid LRU is bounded
in satellites, an ``(N, T, 3)`` stack counting N.  Grids — and only
grids — also have an on-disk tier, enabled with ``disk_dir=`` or the
``SATIOT_EPHEMERIS_CACHE_DIR`` environment variable: every grid is
written once as a *segment*, the ``(N, T, 3)`` position/velocity stacks
as raw ``.npy`` files plus a SHA-256 sidecar, in a deterministic layout
(a single satellite's grid is an N=1 segment).  Segments are opened
with ``np.load(mmap_mode="r")``: every process that loads the same
segment maps the *same* physical pages, so N serving workers share one
read-only resident copy of the fleet ephemeris instead of holding N
private copies.  Pass lists are not written to disk: recomputing them
from a mapped segment is faster than reading them back.  Files of
other formats in the directory are ignored.

The segment tier is **checksummed and self-healing**: a corrupted,
truncated or otherwise unreadable segment is detected on load,
quarantined next to the store (every file of it renamed to
``*.bad``) and treated as a cache miss — the grid is recomputed and
rewritten.  Disk-tier I/O errors (read-only or vanished cache
directories, full disks) are counted, warned about once, and degrade
the cache to compute-through, never to wrong answers.  The
:mod:`satiot.faults` plane exercises exactly these paths via the
``cache.disk_read`` / ``cache.disk_write`` injection sites.

Set ``SATIOT_EPHEMERIS_CACHE=0`` to disable the process-default cache.
"""

from __future__ import annotations

import hashlib
import os
import sys
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..faults import fault_fires
from ..orbits.frames import GeodeticPoint, teme_to_ecef
from ..orbits.passes import ContactWindow, PassPredictor, _PassSearch
from ..orbits.sgp4 import SGP4
from ..orbits.sgp4_batch import SGP4Batch
from ..orbits.timebase import Epoch
from ..orbits.tle import TLE

__all__ = ["CacheStats", "EphemerisCache", "get_default_cache",
           "reset_default_cache", "tle_fingerprint",
           "constellation_fingerprint"]


def _caller_stacklevel() -> int:
    """``stacklevel`` naming the first frame outside this module."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    return level


#: Disable the process-default cache entirely when set to 0/false/off.
CACHE_ENV = "SATIOT_EPHEMERIS_CACHE"
#: Directory for the shared on-disk tier of the process-default cache.
CACHE_DIR_ENV = "SATIOT_EPHEMERIS_CACHE_DIR"


def tle_fingerprint(tle: TLE) -> str:
    """Stable 16-hex-digit fingerprint of an element set.

    Computed over the *formatted* two-line representation, so the
    fingerprint is invariant under a parse → format → parse round-trip
    (the canonical form is a fixed-point function of the orbital
    fields).  The TLE computes it once and keeps it
    (:attr:`TLE.fingerprint`).
    """
    return tle.fingerprint


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
    #: Corrupt/unreadable segments quarantined (``*.bad``) and treated
    #: as misses.
    disk_corrupt: int = 0
    #: Disk-tier I/O errors swallowed (read-only dir, full disk, ...).
    disk_errors: int = 0
    #: Approximate resident bytes of the in-memory grid tier, refreshed
    #: by :meth:`EphemerisCache.grid_resident_bytes`.
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
    """Ephemeris memoizer: memory LRUs plus an optional segment tier.

    Parameters
    ----------
    max_grids:
        In-memory LRU capacity for propagation grids, in satellite
        grids: an ``(N, T, 3)`` stack counts N.  A 3-day campaign at
        30 s steps is ~8.6 k samples → ~400 kB per satellite, so the
        default comfortably holds every satellite of the study.  A
        stack larger than the capacity is kept alone.
    max_pass_lists:
        In-memory LRU capacity for per-(satellite, site) pass lists;
        these are tiny (a few windows each).
    disk_dir:
        Optional directory for the shared segment tier.  Created on
        demand; safe to share between concurrent worker processes
        (writes go through per-pid temp files + atomic rename).
        Segments load as read-only memmaps.
    """

    def __init__(self, max_grids: int = 256, max_pass_lists: int = 4096,
                 disk_dir: Union[str, Path, None] = None) -> None:
        if max_grids < 1 or max_pass_lists < 1:
            raise ValueError("cache capacities must be positive")
        self.max_grids = int(max_grids)
        self.max_pass_lists = int(max_pass_lists)
        self.disk_dir = Path(disk_dir) if disk_dir else None
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
    def constellation_key(tles: Sequence[TLE], epoch: Epoch,
                          offsets: np.ndarray) -> tuple:
        """Key of one ``(N, T, 3)`` propagation stack, in the memory
        and segment tiers alike (N=1 for a single satellite): the joint
        fleet fingerprint, the epoch and a digest of the offsets."""
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
        """TEME ``(r, v)`` of ``propagator`` at ``epoch + offsets_s``:
        row 0 of ``constellation_grid([propagator], ...)``."""
        r, v = self.constellation_grid([propagator], epoch, offsets_s)
        return r[0], v[0]

    def constellation_grid(self, propagators: Sequence[SGP4],
                           epoch: Epoch, offsets_s: Sequence[float],
                           ) -> Tuple[np.ndarray, np.ndarray]:
        """Whole-fleet TEME ``(r, v)`` stacks of shape ``(N, T, 3)``.

        Row ``n`` is bit-identical to
        ``propagators[n].propagate(...)`` on the same instants (the
        :class:`~satiot.orbits.sgp4_batch.SGP4Batch` contract).  A miss
        extends the fleet's previous grid when that is a prefix, or
        propagates the fleet in one batch, and writes the stack
        **once** as an mmap-able segment: every later load (in this or
        any other process) returns read-only views into one shared
        mapping instead of a private copy.
        """
        offsets = np.asarray(offsets_s, dtype=float)
        propagators = list(propagators)
        tles = [p.tle for p in propagators]
        key = self.constellation_key(tles, epoch, offsets)
        grid = self._lru_get(self._grids, key)
        if grid is not None:
            self.stats.grid_hits += 1
        else:
            grid = self._segment_load(key)
            if grid is not None:
                self.stats.grid_hits += 1
                self.stats.disk_hits += 1
            else:
                grid = self._extend_from_prefix(propagators, tles, epoch,
                                                offsets)
                if grid is None:
                    self.stats.grid_misses += len(propagators)
                    grid = SGP4Batch.from_propagators(
                        propagators).propagate_offsets(epoch, offsets)
                self._segment_store(key, *grid)
            self._put_grid(key, grid)
        self._record_extent(tles, epoch, offsets)
        return grid

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
                            tles: Sequence[TLE], epoch: Epoch,
                            offsets: np.ndarray,
                            ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Serve ``offsets`` by extending the recorded prefix grid.

        Applies only when the recorded extent is a strict byte-level
        prefix of ``offsets`` and its ``(N, T, 3)`` stack is still
        reachable (memory LRU or mmap'd segment).  Only the suffix
        instants are propagated; SGP4 is memoryless in ``tsince``, so
        the concatenated stack is bit-identical to a cold full-range
        propagation (property-tested in tests/twin).  The caller
        republishes the combined stack under the full key — including a
        new segment, which is how a restarted fleet worker re-attaches
        to grids its siblings extended.  The ``twin.extend`` fault site
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
        self.stats.grid_misses += 1
        self.stats.grid_extensions += 1
        # concatenate materializes a fresh private C-contiguous stack —
        # an mmap'd prefix is copied out, never written through.
        return (np.concatenate([r_prev, r_suf], axis=1),
                np.concatenate([v_prev, v_suf], axis=1))

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

    # ------------------------------------------------------------------
    # Pass predictions (memory tier only)
    # ------------------------------------------------------------------
    def find_passes(self, propagator: SGP4, observer: GeodeticPoint,
                    epoch: Epoch, duration_s: float,
                    coarse_step_s: float = 30.0,
                    min_elevation_deg: float = 0.0,
                    refine_tol_s: float = 0.5,
                    refine: str = "bisect") -> List[ContactWindow]:
        """Cached windows of one satellite over one observer: the
        one-pair case of :meth:`find_passes_fleet`."""
        return self.find_passes_fleet(
            [propagator], [observer], epoch, duration_s,
            coarse_step_s=coarse_step_s,
            min_elevation_deg=min_elevation_deg,
            refine_tol_s=refine_tol_s, refine=refine)[0][0]

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

        Pass lists are cached per (satellite, observer) pair, whatever
        search computed them: a pair's windows do not depend on the
        other pairs searched.  Missing pairs are computed by one pass
        search: one cached :meth:`constellation_grid` fill, one shared
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
            search = _PassSearch(
                epoch, offsets, [propagators[i] for i in miss_sats],
                observers, min_elevation_deg, refine_tol_s, refine,
                geometry=geometry)
            r, _ = self.constellation_grid(propagators, epoch, offsets)
            jd = epoch.offset_jd(offsets)
            # One GMST + rotation for all satellites that miss.
            r_ecef = teme_to_ecef(r[miss_sats], jd)
            pairs = [(row, m) for row, i in enumerate(miss_sats)
                     for m in missing_by_sat[i]]
            search.add_pairs(r_ecef, [row for row, _ in pairs],
                             [m for _, m in pairs])
            for (row, m), windows in zip(pairs, search.windows()):
                i = miss_sats[row]
                self._lru_put(self._pass_lists, keys[i][m],
                              tuple(windows), self.max_pass_lists)
                results[i][m] = windows
        return results  # type: ignore[return-value]

    def _lookup_passes(self, key: tuple,
                       ) -> Optional[Tuple[ContactWindow, ...]]:
        """Memory lookup of one pass list (stats updated)."""
        cached = self._lru_get(self._pass_lists, key)
        if cached is not None:
            self.stats.pass_hits += 1
        return cached

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

    def _put_grid(self, key: tuple,
                  grid: Tuple[np.ndarray, np.ndarray]) -> None:
        """Insert an ``(N, T, 3)`` stack, charging N of ``max_grids``.

        Older stacks are evicted until the satellites held fit; the
        stack just inserted is never evicted, so a fill of more than
        ``max_grids`` satellites stays cached alone.
        """
        self._grids[key] = grid
        self._grids.move_to_end(key)
        load = sum(len(r) for r, _ in self._grids.values())
        while load > self.max_grids and len(self._grids) > 1:
            _, (r, _) = self._grids.popitem(last=False)
            load -= len(r)

    def clear_memory(self) -> None:
        """Drop the in-memory tier (the disk tier is untouched)."""
        self._grids.clear()
        self._pass_lists.clear()
        self._extents.clear()

    def grid_resident_bytes(self) -> int:
        """Approximate resident bytes of the in-memory grid tier.

        Sums ``nbytes`` over every cached stack.  Stacks backed by
        mmap'd segments are tallied separately
        (:attr:`CacheStats.grid_mmap_bytes`): those pages are resident
        **once machine-wide**, no matter how many worker processes map
        them, while :attr:`CacheStats.grid_private_bytes` is paid per
        process.  Refreshes :attr:`CacheStats.grid_bytes`.

        Safe to call from another thread while a batch fills the LRU
        (the serving ``/metrics`` path): it walks a snapshot of the
        entries taken in one call, never the live ``OrderedDict``.
        """
        private = 0
        shared = 0
        for grid in tuple(self._grids.values()):
            for arr in grid:
                if isinstance(arr, np.memmap):
                    shared += arr.nbytes
                else:
                    private += arr.nbytes
        self.stats.grid_private_bytes = private
        self.stats.grid_mmap_bytes = shared
        self.stats.grid_bytes = private + shared
        return private + shared

    # ------------------------------------------------------------------
    # Segment tier (checksummed, mmap'd, quarantining, fault-aware)
    # ------------------------------------------------------------------
    #: On-disk layout of one segment: two raw ``.npy`` stacks plus a
    #: checksum sidecar.  Raw ``.npy`` (not a zip archive) is what makes
    #: ``np.load(mmap_mode="r")`` possible — a zip member has to be
    #: decompressed into private memory, a flat array file can be
    #: mapped and its pages shared.
    SEGMENT_SUFFIXES = (".r.npy", ".v.npy", ".sha256")

    def _segment_paths(self, key: tuple) -> Optional[Tuple[Path, ...]]:
        if self.disk_dir is None:
            return None
        name = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()[:32]
        base = f"{key[0]}-{name}"
        return tuple(self.disk_dir / (base + suffix)
                     for suffix in self.SEGMENT_SUFFIXES)

    @staticmethod
    def _checksum(r: np.ndarray, v: np.ndarray) -> str:
        """SHA-256 over both stacks' names, dtypes, shapes and bytes.

        Hashes through a flat memoryview rather than ``tobytes()`` so
        verifying a large mmap'd segment never materializes a private
        copy of it (the pages stream through the OS page cache).
        """
        digest = hashlib.sha256()
        for name, arr in (("r", r), ("v", v)):
            arr = np.ascontiguousarray(arr)
            digest.update(name.encode("utf-8"))
            digest.update(str(arr.dtype).encode("ascii"))
            digest.update(str(arr.shape).encode("ascii"))
            digest.update(memoryview(arr).cast("B"))
        return digest.hexdigest()

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
        checksum = self._checksum(r, v)
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
            self._disk_degraded(error)  # degradation, never an error

    def _segment_load(self, key: tuple,
                      ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Load one segment as read-only mmap-backed ``(N, T, 3)`` views.

        No copy: checksum verification streams the pages through the
        OS cache, which is exactly the residency the serving fleet
        shares.  A missing segment is a plain miss; an unreadable or
        mismatching one is quarantined (every file renamed to
        ``*.bad``) and treated as a miss.
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
            r = np.load(r_path, mmap_mode="r")
            v = np.load(v_path, mmap_mode="r")
            expected = sum_path.read_text(encoding="ascii").strip()
        except Exception:
            # Truncated header, zero-byte file, garbage bytes, OS error:
            # anything unreadable is quarantined and recomputed.
            self._quarantine(paths, "unreadable segment")
            return None
        if r.ndim != 3 or r.shape != v.shape or \
                self._checksum(r, v) != expected:
            self._quarantine(paths, "checksum mismatch")
            return None
        return r, v

    def _disk_degraded(self, error: BaseException) -> None:
        """Count (and warn once about) a swallowed disk-tier error."""
        self.stats.disk_errors += 1
        if not self._warned_disk:
            self._warned_disk = True
            warnings.warn(
                f"ephemeris disk cache at {self.disk_dir} is "
                f"unavailable ({type(error).__name__}: {error}); "
                f"degrading to compute-through", RuntimeWarning,
                stacklevel=_caller_stacklevel())

    def _quarantine(self, paths: Sequence[Path], reason: str) -> None:
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
                    pass  # can't even remove it: the miss still recomputes
        self.stats.disk_corrupt += 1
        warnings.warn(
            f"quarantined corrupt ephemeris segment "
            f"{paths[0].name} ({reason}); recomputing",
            RuntimeWarning, stacklevel=_caller_stacklevel())

    @staticmethod
    def _corrupt_file(path: Path) -> None:
        """``cache.disk_read`` fault action: garble the file on disk.

        The injected fault damages *real* state so the detection path
        (checksum verify → quarantine → miss) is exercised end to end.
        The garbled copy replaces the file by rename, never in place:
        a mapping of the old contents — held by this or another
        process — keeps its pages, where truncating a mapped file
        would fault its next read.
        """
        try:
            data = path.read_bytes()
            tmp = path.with_name(f"{path.name}.chaos{os.getpid()}")
            tmp.write_bytes(b"\x00satiot-chaos\x00"
                            + data[14:len(data) // 2])
            tmp.replace(path)
        except OSError:
            pass


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
