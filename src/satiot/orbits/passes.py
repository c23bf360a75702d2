"""Contact-window (pass) prediction for a satellite over a ground site.

This implements the paper's notion of a *theoretical contact window*: the
span during which a satellite is above the observer's elevation mask,
computed from TLEs via SGP4 — the quantity Figure 3a/4a compare effective
measurements against.

The finder samples elevation on a coarse grid (vectorized SGP4), then
refines each horizon crossing.  Two refinement modes exist:

``bisect`` (default)
    Bisection on fresh SGP4 evaluations to sub-second accuracy — the
    campaign-grade mode used throughout the reproduction.
``interp``
    Closed-form linear interpolation of the coarse elevation samples
    (parabolic for the culmination).  No extra SGP4 calls, fully
    deterministic, accurate to a few seconds at 30 s grids — the
    serving-grade mode used by :mod:`satiot.serving` for high-QPS
    queries.

:func:`find_passes_fleet` is the one pass search: N satellites × M
observers share one batched SGP4 grid, one TEME→ECEF conversion and a
conservative visibility-cone prefilter that skips the exact elevation
kernel for the ~90 % of samples where a satellite is geometrically
below an observer's horizon.  Bisection then runs in lockstep over
every pending crossing of every pair, one batched SGP4 gather per
iteration.  :meth:`PassPredictor.find_passes` (through
:meth:`PassPredictor.windows_from_coarse`) refines through the same
search as its one-pair case, and the cached search
(:meth:`satiot.runtime.EphemerisCache.find_passes_fleet`) runs the same
grid-to-windows step on its memoized grid, so every entry point yields
the same windows for the same (satellite, observer) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .constants import DEG2RAD
from .frames import GeodeticPoint, teme_to_ecef
from .sgp4 import SGP4
from .sgp4_batch import SGP4Batch
from .timebase import Epoch
from .topocentric import (LookAngles, elevation_from_ecef, look_angles,
                          sez_rotation)

__all__ = ["ContactWindow", "PassPredictor", "REFINE_MODES",
           "check_elevation_mask", "find_passes_fleet",
           "observer_geometry"]

#: Supported horizon-crossing refinement modes.
REFINE_MODES = ("bisect", "interp")

#: Conservative geocentric radius (km) below any ground observer, used
#: by the visibility-cone prefilter (WGS-84 polar radius is 6356.75 km).
_PREFILTER_RADIUS_KM = 6300.0

#: Angular slack (deg) added to the visibility cone so geodetic-vs-
#: geocentric zenith deviation (< 0.2 deg), observer altitude and
#: floating-point noise can never exclude a truly-visible sample.
_PREFILTER_SLACK_DEG = 3.0


def check_elevation_mask(min_elevation_deg: float) -> None:
    """Raise ``ValueError`` unless ``-5 <= min_elevation_deg < 90``: the
    masks every pass search takes (the prefilter's -90 deg filler must
    stay below the mask)."""
    if not -5.0 <= min_elevation_deg < 90.0:
        raise ValueError("min_elevation_deg must be in [-5, 90), got "
                         f"{min_elevation_deg:g}")


@dataclass(frozen=True)
class ContactWindow:
    """One theoretical pass of a satellite over an observer.

    Times are seconds relative to the prediction epoch.
    """

    rise_s: float
    set_s: float
    culmination_s: float
    max_elevation_deg: float
    norad_id: int = 0
    clipped_start: bool = False
    clipped_end: bool = False

    def __post_init__(self) -> None:
        if self.set_s < self.rise_s:
            raise ValueError("contact window ends before it begins")

    @property
    def duration_s(self) -> float:
        return self.set_s - self.rise_s

    @property
    def midpoint_s(self) -> float:
        return 0.5 * (self.rise_s + self.set_s)

    def contains(self, t_s: float) -> bool:
        return self.rise_s <= t_s <= self.set_s

    def normalized_position(self, t_s: float) -> float:
        """Position of an instant within the window, 0 at rise, 1 at set."""
        if self.duration_s <= 0.0:
            return 0.0
        return (t_s - self.rise_s) / self.duration_s


class PassPredictor:
    """Predicts contact windows of one satellite over one observer.

    Parameters
    ----------
    propagator:
        Bound SGP4 instance for the satellite.
    observer:
        Ground-site geodetic location.
    min_elevation_deg:
        Elevation mask defining the theoretical window (paper uses the
        visibility horizon; TinyGS antennas see essentially to 0 deg).
    """

    def __init__(self, propagator: SGP4, observer: GeodeticPoint,
                 min_elevation_deg: float = 0.0) -> None:
        check_elevation_mask(min_elevation_deg)
        self.propagator = propagator
        self.observer = observer
        self.min_elevation_deg = min_elevation_deg

    # ------------------------------------------------------------------
    def look_angles_at(self, epoch: Epoch, offsets_s) -> LookAngles:
        """Vectorized look angles at ``epoch + offsets_s`` seconds."""
        offsets = np.asarray(offsets_s, dtype=float)
        tsince = float(epoch - self.propagator.tle.epoch) + offsets
        r, v = self.propagator.propagate(tsince)
        jd = epoch.offset_jd(offsets)
        return look_angles(self.observer, r, v, jd)

    def elevation_at(self, epoch: Epoch, offset_s: float) -> float:
        return float(self.look_angles_at(epoch, float(offset_s)).elevation_deg)

    @staticmethod
    def coarse_offsets(duration_s: float,
                       coarse_step_s: float) -> np.ndarray:
        """The canonical coarse sampling grid for a prediction span."""
        if duration_s <= 0.0:
            raise ValueError("duration must be positive")
        if coarse_step_s <= 0.0:
            raise ValueError("coarse step must be positive")
        offsets = np.arange(0.0, duration_s + coarse_step_s, coarse_step_s)
        offsets = offsets[offsets <= duration_s]
        if offsets[-1] < duration_s:
            # Float-accumulation guard: ``np.arange`` can land the
            # terminal sample within one ULP below a step-divisible
            # duration (e.g. 86400/30); appending the exact duration
            # then yields a near-duplicate terminal sample whose
            # refinement bracket has zero length.  Snap instead of
            # appending when the gap is negligible versus the step.
            if duration_s - offsets[-1] <= 1.0e-9 * coarse_step_s:
                offsets[-1] = duration_s
            else:
                offsets = np.append(offsets, duration_s)
        return offsets

    # ------------------------------------------------------------------
    def find_passes(self, epoch: Epoch, duration_s: float,
                    coarse_step_s: float = 30.0,
                    refine_tol_s: float = 0.5,
                    refine: str = "bisect") -> List[ContactWindow]:
        """All contact windows within ``[epoch, epoch + duration_s]``.

        Windows in progress at the span boundaries are clipped and
        flagged via ``clipped_start`` / ``clipped_end``.  ``refine``
        selects the crossing refinement mode (see module docstring).
        The windows come from the one-pair case of the fleet pass search
        (:meth:`windows_from_coarse`).
        """
        offsets = self.coarse_offsets(duration_s, coarse_step_s)
        elev = self.look_angles_at(epoch, offsets).elevation_deg
        return self.windows_from_coarse(epoch, offsets, elev,
                                        refine_tol_s=refine_tol_s,
                                        refine=refine)

    def windows_from_coarse(self, epoch: Epoch, offsets: np.ndarray,
                            elev: np.ndarray, refine_tol_s: float = 0.5,
                            refine: str = "bisect",
                            ) -> List[ContactWindow]:
        """Extract refined windows from a precomputed elevation row: the
        one-satellite, one-observer case of :func:`find_passes_fleet`'s
        search.

        ``elev`` must equal the observer's coarse-grid elevation at all
        above-mask samples *and their immediate neighbours*; samples
        known to be below the mask may carry any value <= the mask
        (the multi-observer prefilter exploits this).
        """
        search = _PassSearch(epoch, np.asarray(offsets, dtype=float),
                             [self.propagator], [self.observer],
                             self.min_elevation_deg, refine_tol_s,
                             refine)
        first = np.zeros(1, dtype=np.intp)
        search.add_segments(np.asarray(elev, dtype=float)[None], first,
                            first)
        return search.windows()[0]


def _interp_crossing(mask: float, t_out: np.ndarray, t_in: np.ndarray,
                     e_out: np.ndarray, e_in: np.ndarray) -> np.ndarray:
    """Linear interpolation of mask crossings (no SGP4 calls).

    ``(t_out, e_out)`` and ``(t_in, e_in)`` are adjacent grid samples
    on opposite sides of the mask, so the denominator cannot vanish.
    """
    frac = (mask - e_out) / (e_in - e_out)
    return t_out + frac * (t_in - t_out)


def _clamp(t: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Element-wise ``min(max(t, lo), hi)`` with Python's tie rules."""
    t = np.where(lo > t, lo, t)
    return np.where(hi < t, hi, t)


class _PassSearch:
    """One pass search over many (satellite, observer) pairs.

    :meth:`windows` refines every crossing of every pair **in
    lockstep**: one :meth:`SGP4Batch.propagate_pairs` gather, rotation
    and SEZ elevation pass per bisection iteration, one more for the
    culminations.  Per crossing this is the scalar bisection on
    :meth:`PassPredictor.elevation_at` (stop at ``hi - lo <= tol``,
    strict ``>`` mask test, the same clamps), so a pair's windows do not
    depend on the other pairs.
    """

    #: Pairs per coarse-elevation block: keeps the ``(B, T)`` prefilter
    #: and elevation temporaries small however many pairs a search has.
    _BLOCK_ELEMENTS = 1 << 16

    def __init__(self, epoch: Epoch, offsets: np.ndarray,
                 propagators: Sequence[SGP4],
                 observers: Sequence[GeodeticPoint],
                 min_elevation_deg: float, refine_tol_s: float,
                 refine: str) -> None:
        check_elevation_mask(min_elevation_deg)
        if refine not in REFINE_MODES:
            raise ValueError(f"unknown refine mode {refine!r}; "
                             f"choose from {REFINE_MODES}")
        self.epoch = epoch
        self.offsets = offsets
        self.propagators = list(propagators)
        self.observers = observers
        self.mask = min_elevation_deg
        self.tol = refine_tol_s
        self.refine = refine
        self._batch: Optional[SGP4Batch] = None
        self._sites: Optional[np.ndarray] = None
        self._rots: Optional[np.ndarray] = None
        self._deltas: Optional[np.ndarray] = None
        self._out: List[List[ContactWindow]] = []
        self._parts: List[tuple] = []

    @property
    def batch(self) -> SGP4Batch:
        """The searched fleet's :class:`SGP4Batch`, built on first use."""
        if self._batch is None:
            self._batch = SGP4Batch.from_propagators(self.propagators)
        return self._batch

    def _site_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Stacked ``(M, 3)`` sites and ``(M, 3, 3)`` SEZ rotations."""
        if self._sites is None:
            geometry = observer_geometry(self.observers)
            self._sites = np.stack([site for site, _ in geometry])
            self._rots = np.stack([rot for _, rot in geometry])
        return self._sites, self._rots

    # ------------------------------------------------------------------
    def fleet(self, r_teme: np.ndarray) -> List[List[List[ContactWindow]]]:
        """``results[n][m]`` of every pair from the fleet's ``(N, T, 3)``
        TEME grid on :attr:`offsets`: one GMST + rotation for the whole
        stack (the jd row broadcasts across satellites), one search."""
        n, m = len(self.propagators), len(self.observers)
        r_ecef = teme_to_ecef(r_teme, self.epoch.offset_jd(self.offsets))
        self.add_pairs(r_ecef, np.repeat(np.arange(n), m),
                       np.tile(np.arange(m), n))
        windows = self.windows()
        return [windows[i * m:(i + 1) * m] for i in range(n)]

    def add_pairs(self, r_ecef: np.ndarray, pair_sat: Sequence[int],
                  pair_obs: Sequence[int]) -> None:
        """Add the pairs ``(propagators[pair_sat[k]],
        observers[pair_obs[k]])`` from the ``(N, T, 3)`` ECEF grid track
        (row ``n`` belongs to ``propagators[n]``).

        A visibility-cone prefilter skips the exact elevation kernel
        where a satellite is provably below the mask; the -90 deg filler
        there changes no window.
        """
        pair_sat = np.asarray(pair_sat, dtype=np.intp)
        pair_obs = np.asarray(pair_obs, dtype=np.intp)
        sites, rots = self._site_arrays()
        u_sat, cos_lam = _visibility_cone(r_ecef, self.mask)
        u_obs = sites / np.sqrt(np.sum(sites * sites, axis=-1,
                                       keepdims=True))
        block = max(1, self._BLOCK_ELEMENTS // self.offsets.size)
        for b in range(0, len(pair_sat), block):
            sat = pair_sat[b:b + block]
            obs = pair_obs[b:b + block]
            cos_psi = np.einsum("pc,ptc->pt", u_obs[obs], u_sat[sat])
            cand = cos_psi >= cos_lam[sat]
            # Dilate by one grid step each way so crossing refinement
            # always sees exact below-mask neighbours (copy first:
            # in-place |= on overlapping views would cascade).
            dilated = cand.copy()
            dilated[:, :-1] |= cand[:, 1:]
            dilated[:, 1:] |= cand[:, :-1]
            rows, cols = np.nonzero(dilated)
            elev = np.full(cand.shape, -90.0)
            elev[rows, cols] = elevation_from_ecef(
                None, r_ecef[sat[rows], cols], sites[obs[rows]],
                rots[obs[rows]])
            self.add_segments(elev, sat, obs)

    def add_segments(self, elev: np.ndarray, pair_sat: np.ndarray,
                     pair_obs: np.ndarray) -> None:
        """Add pairs from their ``(B, T)`` coarse elevation rows.

        Each row must be exact at above-mask samples and their
        neighbours; anything at or below the mask may stand elsewhere.
        ``interp`` windows are finished here, from the grid samples
        alone; ``bisect`` ones in :meth:`windows`.
        """
        offsets = self.offsets
        n = offsets.size
        first = len(self._out)
        self._out.extend([] for _ in range(len(pair_sat)))
        above = np.zeros((elev.shape[0], n + 2), dtype=np.int8)
        above[:, 1:-1] = elev > self.mask
        edges = (above[:, 1:] - above[:, :-1]).ravel()
        row, start = np.divmod(np.flatnonzero(edges == 1), n + 1)
        if not row.size:
            return
        end = np.flatnonzero(edges == -1) % (n + 1)
        rise, set_ = offsets[start], offsets[end - 1]
        # First maximum of each segment (np.argmax semantics).
        lengths = end - start
        head = np.cumsum(lengths) - lengths
        seg = np.repeat(np.arange(row.size), lengths)
        col = np.arange(lengths.sum()) - head[seg] + start[seg]
        vals = elev[row[seg], col]
        peak = np.maximum.reduceat(vals, head)
        k = np.minimum.reduceat(np.where(vals == peak[seg], col, n), head)
        t_best, el_best = offsets[k], elev[row, k]
        # Parabolic culmination candidates through the peak's two
        # neighbours.
        t_para = np.empty(row.size)
        has_para = (k > start) & (k < end - 1)
        idx = np.flatnonzero(has_para)
        kr = row[idx]
        t0, t1, t2 = (offsets[k[idx] - 1], offsets[k[idx]],
                      offsets[k[idx] + 1])
        e0, e1, e2 = (elev[kr, k[idx] - 1], elev[kr, k[idx]],
                      elev[kr, k[idx] + 1])
        denom = e0 - 2.0 * e1 + e2
        ok = np.abs(denom) > 1e-12
        has_para[idx[~ok]] = False
        idx = idx[ok]
        t0, t1, t2, e0, e1, e2, denom = (
            a[ok] for a in (t0, t1, t2, e0, e1, e2, denom))
        t_para[idx] = t1 + 0.5 * (t1 - t0) * (e0 - e2) / denom
        if self.refine == "bisect":
            # Bisection evaluates the candidate, clamped to the
            # segment's grid span, in :meth:`windows`.
            t_para[idx] = _clamp(t_para[idx], offsets[start[idx]],
                                 offsets[end[idx] - 1])
            self._parts.append((first + row, pair_sat[row],
                                pair_obs[row], start, end, rise, set_,
                                t_best, el_best, t_para, has_para))
            return
        # interp: the parabola's vertex, clamped to the peak's
        # neighbours.  Its elevation squares with libm ``pow`` (``**``
        # on Python floats) so served culminations stay bit-identical
        # across releases; NumPy squares arrays by multiplication,
        # which differs in the last bit for ~0.1 % of inputs.
        el_para = np.array([b - 0.125 * (a - c) ** 2 / d for a, b, c, d in
                            zip(e0.tolist(), e1.tolist(), e2.tolist(),
                                denom.tolist())])
        wins = el_para > el_best[idx]
        t_best[idx[wins]] = _clamp(t_para[idx], t0, t2)[wins]
        el_best[idx[wins]] = el_para[wins]
        # Linear crossings between the samples either side of the mask.
        ri = np.flatnonzero(start > 0)
        si = np.flatnonzero(end < n)
        rise[ri] = _interp_crossing(
            self.mask, offsets[start[ri] - 1], offsets[start[ri]],
            elev[row[ri], start[ri] - 1], elev[row[ri], start[ri]])
        set_[si] = _interp_crossing(
            self.mask, offsets[end[si] - 1], offsets[end[si]],
            elev[row[si], end[si] - 1], elev[row[si], end[si]])
        self._emit(first + row, pair_sat[row], start, end, rise, set_,
                   t_best, el_best)

    def _emit(self, pair: np.ndarray, sat: np.ndarray, start: np.ndarray,
              end: np.ndarray, rise: np.ndarray, set_: np.ndarray,
              t_best: np.ndarray, el_best: np.ndarray) -> None:
        """Append one refined window per segment to its pair's list;
        the culmination is clamped into ``[rise, set]``."""
        n = self.offsets.size
        for p, s, r, t_set, culm, peak, c_start, c_end in zip(
                pair.tolist(), sat.tolist(), rise.tolist(), set_.tolist(),
                _clamp(t_best, rise, set_).tolist(), el_best.tolist(),
                (start == 0).tolist(), (end == n).tolist()):
            self._out[p].append(ContactWindow(
                rise_s=r, set_s=t_set, culmination_s=culm,
                max_elevation_deg=peak,
                norad_id=self.propagators[s].tle.norad_id,
                clipped_start=c_start, clipped_end=c_end))

    # ------------------------------------------------------------------
    def _elevations(self, sat: np.ndarray, obs: np.ndarray,
                    t: np.ndarray) -> np.ndarray:
        """Elevation of satellite ``sat[k]`` over observer ``obs[k]``
        at ``epoch + t[k]``: one gather, one rotation, one SEZ pass."""
        if self._deltas is None:
            self._deltas = np.array([float(self.epoch - p.tle.epoch)
                                     for p in self.propagators])
        sites, rots = self._site_arrays()
        r, _ = self.batch.propagate_pairs(sat, self._deltas[sat] + t)
        r_ecef = teme_to_ecef(r, self.epoch.offset_jd(t))
        return elevation_from_ecef(None, r_ecef, sites[obs], rots[obs])

    def _bisect(self, lo: np.ndarray, hi: np.ndarray,
                rising: np.ndarray, sat: np.ndarray,
                obs: np.ndarray) -> np.ndarray:
        """Bisect every mask crossing at once; returns the midpoints."""
        open_ = np.flatnonzero(~(hi - lo <= self.tol))
        for _ in range(64):
            if not open_.size:
                break
            mid = 0.5 * (lo[open_] + hi[open_])
            above = self._elevations(sat[open_], obs[open_],
                                     mid) > self.mask
            # Rising: above at mid means the crossing is earlier.
            down = above == rising[open_]
            hi[open_[down]] = mid[down]
            lo[open_[~down]] = mid[~down]
            open_ = open_[~(hi[open_] - lo[open_] <= self.tol)]
        return 0.5 * (lo + hi)

    def windows(self) -> List[List[ContactWindow]]:
        """Refined windows of every pair, in the order pairs were added."""
        if not self._parts:
            return self._out
        (pair, sat, obs, start, end, rise, set_, t_best, el_best,
         t_para, has_para) = (np.concatenate(a) for a in zip(*self._parts))
        self._parts = []
        offsets = self.offsets
        n = offsets.size
        ri = np.flatnonzero(start > 0)
        si = np.flatnonzero(end < n)
        crossings = np.concatenate([ri, si])
        mid = self._bisect(
            np.concatenate([offsets[start[ri] - 1], offsets[end[si] - 1]]),
            np.concatenate([offsets[start[ri]], offsets[end[si]]]),
            np.arange(crossings.size) < ri.size,
            sat[crossings], obs[crossings])
        rise[ri], set_[si] = mid[:ri.size], mid[ri.size:]
        ci = np.flatnonzero(has_para)
        if ci.size:
            el_para = self._elevations(sat[ci], obs[ci], t_para[ci])
            better = el_para > el_best[ci]
            t_best[ci[better]] = t_para[ci[better]]
            el_best[ci[better]] = el_para[better]
        self._emit(pair, sat, start, end, rise, set_, t_best, el_best)
        return self._out


def _visibility_cone(r_ecef: np.ndarray, min_elevation_deg: float,
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Unit vectors ``u`` and visibility-cone cosines of ECEF samples.

    A sample *might* be above an observer's mask only if the observer's
    unit vector ``o`` has ``o . u >= cos_lam``: the spherical bound
    ``lambda = arccos((R/r) cos m) - m`` with a deliberately small Earth
    radius and a 3-degree slack never excludes an above-mask sample.
    """
    r_norm = np.sqrt(np.sum(r_ecef * r_ecef, axis=-1))
    u_sat = r_ecef / r_norm[..., None]
    m_rad = min_elevation_deg * DEG2RAD
    ratio = np.clip(_PREFILTER_RADIUS_KM / r_norm, -1.0, 1.0)
    lam = (np.arccos(np.clip(ratio * np.cos(m_rad), -1.0, 1.0))
           - m_rad + _PREFILTER_SLACK_DEG * DEG2RAD)
    return u_sat, np.cos(np.clip(lam, 0.0, np.pi))


def observer_geometry(observers: Sequence[GeodeticPoint],
                      ) -> List[tuple]:
    """Precompute ``(site_ecef, sez_rotation)`` per observer.

    The serving layer computes this once per batch and reuses it across
    every satellite of a constellation.
    """
    return [(obs.ecef(),
             sez_rotation(obs.latitude_rad, obs.longitude_rad))
            for obs in observers]


def find_passes_fleet(propagators: Sequence[SGP4],
                      observers: Sequence[GeodeticPoint],
                      epoch: Epoch, duration_s: float,
                      coarse_step_s: float = 30.0,
                      min_elevation_deg: float = 0.0,
                      refine_tol_s: float = 0.5,
                      refine: str = "bisect",
                      ) -> List[List[List[ContactWindow]]]:
    """Contact windows of N satellites over M observers: the pass search.

    The fleet is propagated in one :class:`SGP4Batch` call over one
    shared coarse grid.  GMST and TEME→ECEF run once per grid and every
    crossing of every pair is refined in lockstep
    (:meth:`_PassSearch.fleet`).  A bad mask or refine mode fails before
    any SGP4 work.

    Returns ``results[n][m]``: the windows of satellite ``n`` over
    observer ``m``, which do not depend on the other pairs searched.
    """
    propagators = list(propagators)
    observers = list(observers)
    offsets = PassPredictor.coarse_offsets(duration_s, coarse_step_s)
    search = _PassSearch(epoch, offsets, propagators, observers,
                         min_elevation_deg, refine_tol_s, refine)
    if not propagators or not observers:
        return [[] for _ in propagators]
    r, _ = search.batch.propagate_offsets(epoch, offsets)
    return search.fleet(r)
