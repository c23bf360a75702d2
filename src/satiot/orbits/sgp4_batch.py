"""Constellation-batched SGP4: struct-of-arrays fleet propagation.

:class:`SGP4Batch` holds a whole constellation's element sets as
*stacked* NumPy arrays — one ``(N, 1)`` column per SGP4 coefficient —
and propagates all N satellites over a shared time grid in a single
broadcasted ``(N, T)`` evaluation.  The per-sample arithmetic is the
**same element-wise expression chain** as the scalar
:meth:`satiot.orbits.sgp4.SGP4.propagate`, so row ``n`` of the batched
output is **bit-identical** to ``SGP4(tles[n]).propagate(tsince[n])`` —
the contract ``tests/orbits/test_sgp4_batch.py`` property-tests and
every downstream consumer (pass search, ephemeris cache, serving)
relies on for cache-key compatibility.

Three scalar-path behaviours need explicit care to preserve bit
identity:

* **Initialisation** is *not* vectorized: the per-satellite
  ``sgp4init`` coefficients are computed by the existing scalar code
  (``math.cos`` and ``np.cos`` may differ in the last ULP) and merely
  stacked.  Init is a one-off cost of ~10 µs per satellite;
  propagation is the hot loop.
* **The drag branch** (``isimp``) is applied per *row subset*, exactly
  like each scalar propagator would, because simple-drag satellites
  skip the higher-order correction block entirely (not merely with
  zero coefficients — ``omgcof`` can be non-zero for them).
* **Kepler's equation** converges per *row*: a satellite's Newton
  iteration stops the moment its own residual drops below tolerance,
  never receiving the extra iterations a fleet-wide convergence test
  would apply.

Why batch at all?  The scalar propagator already vectorizes over time,
but a fleet sweep re-enters the Python interpreter once per satellite
and every downstream consumer re-derives GMST and the TEME→ECEF
rotation per satellite.  Batching moves the satellite axis into the
same NumPy kernels (one pass over ``(N, T)`` instead of N passes over
``(T,)``) and lets callers compute the time-grid trigonometry once for
the whole fleet.

The kernel is memory-bound: it materialises ~50 intermediate arrays,
so an unblocked ``(N, T)`` sweep over a long grid streams every
temporary through main memory and can *lose* to the per-satellite
loop, whose ``(T,)`` temporaries fit in L2.  :meth:`propagate`
therefore processes satellites in ascending row blocks sized so one
block's temporaries stay cache-resident (see
``_BLOCK_TARGET_ELEMENTS``) — pure row partitioning, so bit identity
is unaffected.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

import numpy as np

from .constants import TWO_PI, GravityModel, WGS72
from .sgp4 import SGP4, DecayedError, SGP4Error
from .timebase import Epoch
from .tle import TLE

__all__ = ["SGP4Batch"]

ArrayLike = Union[float, np.ndarray]

#: Scalar sgp4init products stacked into (N, 1) coefficient columns.
_COEF_FIELDS = (
    "ecco", "inclo", "nodeo", "argpo", "mo", "bstar", "no_unkozai",
    "eta", "cc1", "x1mth2", "cc4", "cc5", "mdot", "argpdot", "nodedot",
    "omgcof", "xmcof", "nodecf", "t2cof", "xlcof", "aycof", "delmo",
    "sinmao", "x7thm1", "con41", "cosio", "sinio", "ao",
    "d2", "d3", "d4", "t3cof", "t4cof", "t5cof",
)


class SGP4Batch:
    """Struct-of-arrays SGP4 propagator over a whole fleet.

    Parameters
    ----------
    tles:
        The element sets to stack.  Each must be near-earth (the same
        restriction as :class:`~satiot.orbits.sgp4.SGP4`).
    gravity:
        Gravity constant set shared by every satellite.

    Examples
    --------
    >>> # batch = SGP4Batch(tles)
    >>> # r, v = batch.propagate_offsets(epoch, offsets)   # (N, T, 3)
    """

    def __init__(self, tles: Sequence[TLE],
                 gravity: GravityModel = WGS72) -> None:
        propagators = [SGP4(tle, gravity) for tle in tles]
        self._bind(propagators, gravity)

    @classmethod
    def from_propagators(cls, propagators: Sequence[SGP4]) -> "SGP4Batch":
        """Stack already-initialised scalar propagators (no re-init).

        This is the cheap constructor used on hot paths: it only reads
        the ~34 scalar coefficients off each :class:`SGP4` instance.
        All propagators must share one gravity model.
        """
        propagators = list(propagators)
        if not propagators:
            raise ValueError("SGP4Batch needs at least one propagator")
        gravity = propagators[0].gravity
        for p in propagators[1:]:
            if p.gravity is not gravity and p.gravity != gravity:
                raise ValueError(
                    "all batched propagators must share one gravity model")
        batch = cls.__new__(cls)
        batch._bind(propagators, gravity)
        return batch

    # ------------------------------------------------------------------
    def _bind(self, propagators: List[SGP4],
              gravity: GravityModel) -> None:
        if not propagators:
            raise ValueError("SGP4Batch needs at least one element set")
        self.gravity = gravity
        self.propagators = propagators
        self.tles = [p.tle for p in propagators]
        self._n = len(propagators)
        for name in _COEF_FIELDS:
            column = np.array([getattr(p, name) for p in propagators],
                              dtype=float)[:, None]
            setattr(self, name, column)
        self.isimp = np.array([p.isimp for p in propagators],
                              dtype=np.int64)
        self.norad_ids = np.array([t.norad_id for t in self.tles],
                                  dtype=np.int64)
        #: Element-set epochs as Julian dates, one per satellite.
        self.epochs_jd = np.array([t.epoch.jd for t in self.tles],
                                  dtype=float)

    def __len__(self) -> int:
        return self._n

    # ------------------------------------------------------------------
    # Time-grid helpers
    # ------------------------------------------------------------------
    def tsince_from_epoch(self, epoch: Epoch,
                          offsets_s: ArrayLike) -> np.ndarray:
        """Per-satellite seconds-since-element-epoch matrix ``(N, T)``.

        Row ``n`` equals ``float(epoch - tles[n].epoch) + offsets_s`` —
        the exact expression the scalar pass pipeline evaluates — so a
        shared absolute grid maps onto each satellite's own epoch
        without losing bit identity.
        """
        offsets = np.asarray(offsets_s, dtype=float)
        if offsets.ndim != 1:
            raise ValueError("offsets_s must be one-dimensional")
        deltas = np.array([float(epoch - tle.epoch) for tle in self.tles],
                          dtype=float)
        return deltas[:, None] + offsets[None, :]

    def propagate_offsets(self, epoch: Epoch, offsets_s: ArrayLike,
                          check_decay: bool = True,
                          ) -> Tuple[np.ndarray, np.ndarray]:
        """Propagate the fleet over one shared absolute time grid."""
        return self.propagate(self.tsince_from_epoch(epoch, offsets_s),
                              check_decay=check_decay)

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    #: Row-block sizing: one block's ``(B, T)`` temporaries should sum
    #: to roughly the L2 working set (~50 kernel intermediates of
    #: ``B*T`` float64 each).  Long grids degrade toward ``B = 1``
    #: (which still wins: the Python-level loop shrinks from N
    #: interpreter re-entries of the *scalar* kernel to N/B calls of a
    #: shared one and all grid trigonometry downstream is shared);
    #: short grids coalesce many satellites per NumPy call.
    _BLOCK_TARGET_ELEMENTS = 8192

    @classmethod
    def _block_rows(cls, t_len: int) -> int:
        """Satellite rows per kernel block for a grid of ``t_len``."""
        return max(1, cls._BLOCK_TARGET_ELEMENTS // max(1, t_len))

    def propagate(self, tsince_s: ArrayLike, check_decay: bool = True,
                  ) -> Tuple[np.ndarray, np.ndarray]:
        """TEME state of every satellite at offsets from its epoch.

        Parameters
        ----------
        tsince_s:
            Seconds since each element set's epoch: shape ``(T,)``
            (shared by all satellites) or ``(N, T)`` (per-satellite
            rows, e.g. from :meth:`tsince_from_epoch`).
        check_decay:
            If true (default), raise :class:`DecayedError` naming the
            first (lowest-index) decayed satellite, mirroring a
            satellite-by-satellite scalar loop.

        Returns
        -------
        (r, v):
            Arrays of shape ``(N, T, 3)`` in km and km/s.  Row ``n``
            is bit-identical to the scalar
            ``SGP4(tles[n]).propagate(tsince_s[n])``.
        """
        n = self._n
        t = np.asarray(tsince_s, dtype=float) / 60.0  # minutes
        if t.ndim == 1:
            t = np.broadcast_to(t, (n, t.shape[0]))
        if t.ndim != 2 or t.shape[0] != n:
            raise ValueError(
                f"tsince_s must have shape (T,) or ({n}, T), "
                f"got {np.shape(tsince_s)}")
        t_len = t.shape[1]
        block = self._block_rows(t_len)
        if block >= n:
            return self._propagate_rows(t, slice(0, n), check_decay)
        r = np.empty((n, t_len, 3), dtype=float)
        v = np.empty((n, t_len, 3), dtype=float)
        # Ascending row order so the lowest-index decayed satellite
        # raises first, exactly like a satellite-by-satellite loop.
        for start in range(0, n, block):
            rows = slice(start, min(start + block, n))
            r[rows], v[rows] = self._propagate_rows(t[rows], rows,
                                                    check_decay)
        return r, v

    def propagate_pairs(self, rows: Sequence[int], tsince_s: ArrayLike,
                        check_decay: bool = True,
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """TEME ``(K, 3)`` states of K (satellite row, instant) pairs.

        ``tsince_s[k]`` is seconds since the epoch of satellite
        ``rows[k]`` (rows may repeat, in any order); row ``k`` is
        bit-identical to ``propagators[rows[k]].propagate(tsince_s[k])``
        and a decayed pair raises :class:`DecayedError` naming it.
        """
        rows = np.asarray(rows, dtype=np.intp)
        t = np.asarray(tsince_s, dtype=float) / 60.0  # minutes
        if rows.ndim != 1 or t.shape != rows.shape:
            raise ValueError(
                f"rows and tsince_s must be matching (K,) arrays, got "
                f"{rows.shape} and {np.shape(tsince_s)}")
        r, v = self._propagate_rows(t[:, None], rows, check_decay)
        return r[:, 0], v[:, 0]

    def _propagate_rows(self, t: np.ndarray,
                        rows: Union[slice, np.ndarray],
                        check_decay: bool) -> Tuple[np.ndarray, np.ndarray]:
        """Run the kernel over one block of coefficient rows.

        ``t`` is the block's ``(B, T)`` minutes-since-epoch matrix and
        ``rows`` selects the matching coefficient rows: a contiguous
        slice, or an index array gathering rows in any order.  Every
        operation below is row-independent, so partitioning the fleet
        into blocks cannot change any element's value.
        """
        grav = self.gravity
        (ecco, inclo, nodeo, argpo, mo, bstar, no_unkozai, eta, cc1,
         x1mth2, cc4, cc5, mdot, argpdot, nodedot, omgcof, xmcof,
         nodecf, t2cof, xlcof, aycof, delmo, sinmao, x7thm1, con41,
         cosio, sinio, ao, d2, d3, d4, t3cof, t4cof, t5cof) = (
            getattr(self, name)[rows] for name in _COEF_FIELDS)
        isimp = self.isimp[rows]
        norad_ids = self.norad_ids[rows]
        nrows = t.shape[0]

        # --- secular gravity and drag -------------------------------------
        xmdf = mo + mdot * t
        argpdf = argpo + argpdot * t
        nodedf = nodeo + nodedot * t
        argpm = argpdf.copy()
        mm = xmdf.copy()
        t2 = t * t
        nodem = nodedf + nodecf * t2
        tempa = 1.0 - cc1 * t
        tempe = bstar * cc4 * t
        templ = t2cof * t2

        idx = np.flatnonzero(isimp != 1)
        if idx.size:
            full = idx.size == nrows
            sel: Union[slice, np.ndarray] = slice(None) if full else idx

            def sub(a: np.ndarray) -> np.ndarray:
                return a if full else a[idx]

            ts = sub(t)
            t2s = sub(t2)
            xmdfs = sub(xmdf)
            delomg = sub(omgcof) * ts
            delmtemp = 1.0 + sub(eta) * np.cos(xmdfs)
            delm = sub(xmcof) * (delmtemp ** 3 - sub(delmo))
            temp = delomg + delm
            mms = xmdfs + temp
            mm[sel] = mms
            argpm[sel] = sub(argpdf) - temp
            t3 = t2s * ts
            t4 = t3 * ts
            tempa[sel] = (sub(tempa) - sub(d2) * t2s - sub(d3) * t3
                          - sub(d4) * t4)
            tempe[sel] = (sub(tempe) + sub(bstar) * sub(cc5)
                          * (np.sin(mms) - sub(sinmao)))
            templ[sel] = (sub(templ) + sub(t3cof) * t3
                          + t4 * (sub(t4cof) + ts * sub(t5cof)))

        nm = no_unkozai
        em = ecco - tempe
        am = ao * tempa * tempa

        if check_decay:
            # Mirror the satellite-by-satellite loop: the lowest-index
            # decayed satellite raises, with the scalar path's message.
            bad = (np.any(tempa <= 0.0, axis=1)
                   | np.any(am < 0.95, axis=1)
                   | np.any(em >= 1.0, axis=1))
            if bad.any():
                norad = int(norad_ids[int(np.argmax(bad))])
                raise DecayedError(
                    f"satellite {norad} decayed during propagation")
        em = np.clip(em, 1.0e-6, 0.999999)

        mm = mm + no_unkozai * templ
        xlm = mm + argpm + nodem

        nodem = np.remainder(nodem, TWO_PI)
        argpm = np.remainder(argpm, TWO_PI)
        xlm = np.remainder(xlm, TWO_PI)
        mm = np.remainder(xlm - argpm - nodem, TWO_PI)

        # --- long-period periodics ----------------------------------------
        axnl = em * np.cos(argpm)
        temp = 1.0 / (am * (1.0 - em * em))
        aynl = em * np.sin(argpm) + temp * aycof
        xl = mm + argpm + nodem + temp * xlcof * axnl

        # --- Kepler's equation: per-element-converging Newton --------------
        # Mirrors the scalar path exactly: each element iterates until
        # its own residual converges and is then frozen, so every
        # (satellite, instant) cell is independent of the rest of the
        # grid.  Time-axis memorylessness is what lets the incremental
        # ephemeris extension tier concatenate a propagated suffix onto
        # a cached prefix bit-identically.
        u = np.remainder(xl - nodem, TWO_PI)
        eo1 = u.copy()
        pending = np.ones(u.shape, dtype=bool)
        for _ in range(12):
            sineo1 = np.sin(eo1)
            coseo1 = np.cos(eo1)
            tem5 = ((u - aynl * coseo1 + axnl * sineo1 - eo1)
                    / (1.0 - coseo1 * axnl - sineo1 * aynl))
            tem5 = np.clip(tem5, -0.95, 0.95)
            eo1 = np.where(pending, eo1 + tem5, eo1)
            pending &= np.abs(tem5) >= 1.0e-12
            if not pending.any():
                break
        sineo1 = np.sin(eo1)
        coseo1 = np.cos(eo1)

        # --- short-period periodics ----------------------------------------
        ecose = axnl * coseo1 + aynl * sineo1
        esine = axnl * sineo1 - aynl * coseo1
        el2 = axnl * axnl + aynl * aynl
        pl = am * (1.0 - el2)
        if np.any(pl < 0.0):
            raise SGP4Error("semi-latus rectum went negative")

        rl = am * (1.0 - ecose)
        rdotl = np.sqrt(am) * esine / rl
        rvdotl = np.sqrt(pl) / rl
        betal = np.sqrt(1.0 - el2)
        temp = esine / (1.0 + betal)
        sinu = am / rl * (sineo1 - aynl - axnl * temp)
        cosu = am / rl * (coseo1 - axnl + aynl * temp)
        su = np.arctan2(sinu, cosu)
        sin2u = (cosu + cosu) * sinu
        cos2u = 1.0 - 2.0 * sinu * sinu
        temp = 1.0 / pl
        temp1 = 0.5 * grav.j2 * temp
        temp2 = temp1 * temp

        mrt = (rl * (1.0 - 1.5 * temp2 * betal * con41)
               + 0.5 * temp1 * x1mth2 * cos2u)
        su = su - 0.25 * temp2 * x7thm1 * sin2u
        xnode = nodem + 1.5 * temp2 * cosio * sin2u
        xinc = inclo + 1.5 * temp2 * cosio * sinio * cos2u
        mvt = rdotl - nm * temp1 * x1mth2 * sin2u / grav.xke
        rvdot = rvdotl + nm * temp1 * (x1mth2 * cos2u
                                       + 1.5 * con41) / grav.xke

        # --- orientation vectors -------------------------------------------
        sinsu = np.sin(su)
        cossu = np.cos(su)
        snod = np.sin(xnode)
        cnod = np.cos(xnode)
        sini = np.sin(xinc)
        cosi = np.cos(xinc)
        xmx = -snod * cosi
        xmy = cnod * cosi
        ux = xmx * sinsu + cnod * cossu
        uy = xmy * sinsu + snod * cossu
        uz = sini * sinsu
        vx = xmx * cossu - cnod * sinsu
        vy = xmy * cossu - snod * sinsu
        vz = sini * cossu

        vkmpersec = grav.radiusearthkm * grav.xke / 60.0
        r = np.stack([mrt * ux, mrt * uy, mrt * uz],
                     axis=-1) * grav.radiusearthkm
        v = np.stack([mvt * ux + rvdot * vx,
                      mvt * uy + rvdot * vy,
                      mvt * uz + rvdot * vz], axis=-1) * vkmpersec

        if check_decay:
            bad_mrt = np.any(mrt < 1.0, axis=1)
            if bad_mrt.any():
                norad = int(norad_ids[int(np.argmax(bad_mrt))])
                raise DecayedError(
                    f"satellite {norad} decayed during propagation")

        return r, v

    def positions_at(self, epoch: Epoch,
                     offsets_s: ArrayLike) -> np.ndarray:
        """Convenience accessor: TEME positions only, shape (N, T, 3)."""
        r, _ = self.propagate_offsets(epoch, offsets_s)
        return r

    # ------------------------------------------------------------------
    def subset(self, indices: Sequence[int]) -> "SGP4Batch":
        """A new batch over a row subset (stacks the same propagators)."""
        props = [self.propagators[int(i)] for i in indices]
        return SGP4Batch.from_propagators(props)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SGP4Batch(n={self._n})"
