"""Constellation-batched SGP4: struct-of-arrays fleet propagation.

:class:`SGP4Batch` holds a whole constellation's element sets as
*stacked* NumPy arrays — one ``(N, 1)`` column per SGP4 coefficient —
and propagates all N satellites over a shared time grid in one
broadcasted ``(N, T)`` evaluation.  It runs the same kernel as
:meth:`satiot.orbits.sgp4.SGP4.propagate`, on row blocks of its
columns instead of one propagator's own coefficients, so row ``n`` of
the batched output equals ``SGP4(tles[n]).propagate(tsince[n])`` bit
for bit: every downstream consumer (pass search, ephemeris cache,
serving) relies on that for cache-key compatibility.

Initialisation is not vectorized: each satellite's ``sgp4init``
coefficients come from its own :class:`~satiot.orbits.sgp4.SGP4`
(``math.cos`` and ``np.cos`` may differ in the last ULP) and are merely
stacked.  Init is a one-off cost of ~10 µs per satellite; propagation
is the hot loop.

Why batch at all?  One propagator already vectorizes over time, but a
fleet sweep would re-enter the Python interpreter once per satellite
and every downstream consumer would re-derive GMST and the TEME→ECEF
rotation per satellite.  Batching moves the satellite axis into the
same NumPy kernels (one pass over ``(N, T)`` instead of N passes over
``(T,)``) and lets callers compute the time-grid trigonometry once for
the whole fleet.

The kernel is memory-bound: it materialises ~50 intermediate arrays,
so an unblocked ``(N, T)`` sweep over a long grid streams every
temporary through main memory and can *lose* to one call per
satellite, whose ``(T,)`` temporaries fit in L2.  :meth:`propagate`
therefore processes satellites in ascending row blocks sized so one
block's temporaries stay cache-resident (see
``_BLOCK_TARGET_ELEMENTS``).  The kernel's rows are independent, so
the blocking cannot change a value.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import List, Sequence, Tuple, Union

import numpy as np

from .constants import GravityModel, WGS72
from .sgp4 import SGP4, _COEFFICIENTS, _propagate_block
from .timebase import Epoch
from .tle import TLE

__all__ = ["SGP4Batch"]

ArrayLike = Union[float, np.ndarray]


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
        """Stack already-initialised propagators (no re-init).

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
        self.tles = [p.tle for p in propagators]
        self._n = len(propagators)
        for name in _COEFFICIENTS:
            column = np.array([getattr(p, name) for p in propagators],
                              dtype=float)[:, None]
            setattr(self, name, column)
        self.isimp = np.array([p.isimp for p in propagators],
                              dtype=np.int64)
        self.norad_ids = np.array([t.norad_id for t in self.tles],
                                  dtype=np.int64)

    def __len__(self) -> int:
        return self._n

    # ------------------------------------------------------------------
    # Time-grid helpers
    # ------------------------------------------------------------------
    def tsince_from_epoch(self, epoch: Epoch,
                          offsets_s: ArrayLike) -> np.ndarray:
        """Per-satellite seconds-since-element-epoch matrix ``(N, T)``.

        Row ``n`` equals ``float(epoch - tles[n].epoch) + offsets_s`` —
        the exact expression a per-satellite pass search evaluates — so a
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
    #: (which still wins: all grid trigonometry downstream is shared);
    #: short grids coalesce many satellites per kernel call.
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
            first (lowest-index) decayed satellite, like a
            satellite-by-satellite loop.

        Returns
        -------
        (r, v):
            Arrays of shape ``(N, T, 3)`` in km and km/s.  Row ``n``
            is bit-identical to ``SGP4(tles[n]).propagate(tsince_s[n])``.
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
        bit-identical to ``SGP4(tles[rows[k]]).propagate(tsince_s[k])``
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
        slice, or an index array gathering rows in any order.
        """
        block = SimpleNamespace(
            isimp=self.isimp[rows],
            **{name: getattr(self, name)[rows] for name in _COEFFICIENTS})
        return _propagate_block(block, t, self.gravity,
                                self.norad_ids[rows], check_decay)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SGP4Batch(n={self._n})"
