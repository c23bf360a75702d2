"""From-scratch SGP4 propagator (near-earth), vectorized over time.

This follows the algorithm of Vallado et al., *Revisiting Spacetrack
Report #3* (AIAA 2006-6753) — the same formulation implemented by the
reference ``sgp4`` C++/Python distribution — restricted to the near-earth
branch (orbital period < 225 minutes).  Every satellite in this study is
LEO, so the deep-space (SDP4) resonance/lunisolar terms are never
exercised; constructing a propagator for a deep-space object raises
:class:`DeepSpaceError` rather than returning silently wrong states.

All propagation runs through one module-level kernel, vectorized over a
``(B, T)`` block of satellites and instants: :meth:`SGP4.propagate`
passes the propagator itself as a one-row block, and
:class:`~satiot.orbits.sgp4_batch.SGP4Batch` passes row blocks of its
stacked coefficients.  Evaluating a whole ephemeris in one vectorized
pass is what makes the month-scale measurement campaigns in this
repository tractable.

Output states are in the TEME (true equator, mean equinox) frame of the
element set, in kilometres and kilometres per second.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple, Union

import numpy as np

from .constants import TWO_PI, GravityModel, WGS72
from .tle import TLE

__all__ = ["SGP4", "SGP4Error", "DeepSpaceError", "DecayedError"]

ArrayLike = Union[float, np.ndarray]

_X2O3 = 2.0 / 3.0


class SGP4Error(ValueError):
    """Raised when an element set cannot be propagated."""


class DeepSpaceError(SGP4Error):
    """Raised for element sets requiring the SDP4 deep-space branch."""


class DecayedError(SGP4Error):
    """Raised when the propagated satellite has decayed (r < Earth radius)."""


class SGP4:
    """SGP4 propagator bound to one element set.

    Parameters
    ----------
    tle:
        The element set to propagate.
    gravity:
        Gravity constant set; WGS-72 is the canonical choice for TLEs.

    Examples
    --------
    >>> from satiot.orbits import tle as tle_mod
    >>> # ... sat = SGP4(parsed_tle)
    >>> # r, v = sat.propagate(np.arange(0.0, 5400.0, 30.0))
    """

    def __init__(self, tle: TLE, gravity: GravityModel = WGS72) -> None:
        self.tle = tle
        self.gravity = gravity
        self._init(
            no_kozai=tle.no_kozai_rad_min,
            ecco=tle.eccentricity,
            inclo=tle.inclination_rad,
            nodeo=tle.raan_rad,
            argpo=tle.argp_rad,
            mo=tle.mean_anomaly_rad,
            bstar=tle.bstar,
        )

    # ------------------------------------------------------------------
    # Initialisation (sgp4init)
    # ------------------------------------------------------------------
    def _init(self, no_kozai: float, ecco: float, inclo: float,
              nodeo: float, argpo: float, mo: float, bstar: float) -> None:
        grav = self.gravity
        j2, j4 = grav.j2, grav.j4
        j3oj2 = grav.j3oj2
        xke = grav.xke
        radiusearthkm = grav.radiusearthkm

        elements = {"mean motion": no_kozai, "eccentricity": ecco,
                    "inclination": inclo, "RAAN": nodeo,
                    "argument of perigee": argpo, "mean anomaly": mo,
                    "B*": bstar}
        for label, value in elements.items():
            if not math.isfinite(value):
                raise SGP4Error(f"non-finite {label}: {value}")
        if not 0.0 <= ecco < 1.0:
            raise SGP4Error(f"eccentricity out of range: {ecco}")
        if no_kozai <= 0.0:
            raise SGP4Error("mean motion must be positive")

        self.ecco = ecco
        self.inclo = inclo
        self.nodeo = nodeo
        self.argpo = argpo
        self.mo = mo
        self.bstar = bstar

        ss = 78.0 / radiusearthkm + 1.0
        qzms2t = ((120.0 - 78.0) / radiusearthkm) ** 4

        cosio = math.cos(inclo)
        sinio = math.sin(inclo)
        cosio2 = cosio * cosio
        eccsq = ecco * ecco
        omeosq = 1.0 - eccsq
        rteosq = math.sqrt(omeosq)

        # --- un-Kozai the mean motion -------------------------------------
        ak = (xke / no_kozai) ** _X2O3
        d1 = 0.75 * j2 * (3.0 * cosio2 - 1.0) / (rteosq * omeosq)
        delta = d1 / (ak * ak)
        adel = ak * (1.0 - delta * delta
                     - delta * (1.0 / 3.0 + 134.0 * delta * delta / 81.0))
        delta = d1 / (adel * adel)
        no_unkozai = no_kozai / (1.0 + delta)
        self.no_unkozai = no_unkozai

        ao = (xke / no_unkozai) ** _X2O3
        po = ao * omeosq
        con42 = 1.0 - 5.0 * cosio2
        con41 = -con42 - 2.0 * cosio2  # = 3 cos^2 i - 1
        posq = po * po
        rp = ao * (1.0 - ecco)

        # Period gate: deep-space objects need SDP4.
        if TWO_PI / no_unkozai >= 225.0:
            raise DeepSpaceError(
                "orbital period >= 225 min requires the SDP4 deep-space "
                "branch, which this near-earth propagator does not implement")
        if rp < 1.0:
            raise SGP4Error("element set has perigee below the Earth surface")

        self.isimp = 1 if rp < (220.0 / radiusearthkm + 1.0) else 0

        sfour = ss
        qzms24 = qzms2t
        perige = (rp - 1.0) * radiusearthkm
        if perige < 156.0:
            sfour = perige - 78.0
            if perige < 98.0:
                sfour = 20.0
            qzms24 = ((120.0 - sfour) / radiusearthkm) ** 4
            sfour = sfour / radiusearthkm + 1.0

        pinvsq = 1.0 / posq
        tsi = 1.0 / (ao - sfour)
        self.eta = ao * ecco * tsi
        etasq = self.eta * self.eta
        eeta = ecco * self.eta
        psisq = abs(1.0 - etasq)
        coef = qzms24 * tsi ** 4
        coef1 = coef / psisq ** 3.5

        cc2 = coef1 * no_unkozai * (
            ao * (1.0 + 1.5 * etasq + eeta * (4.0 + etasq))
            + 0.375 * j2 * tsi / psisq * con41
            * (8.0 + 3.0 * etasq * (8.0 + etasq)))
        self.cc1 = bstar * cc2
        cc3 = 0.0
        if ecco > 1.0e-4:
            cc3 = -2.0 * coef * tsi * j3oj2 * no_unkozai * sinio / ecco
        self.x1mth2 = 1.0 - cosio2
        self.cc4 = 2.0 * no_unkozai * coef1 * ao * omeosq * (
            self.eta * (2.0 + 0.5 * etasq)
            + ecco * (0.5 + 2.0 * etasq)
            - j2 * tsi / (ao * psisq)
            * (-3.0 * con41 * (1.0 - 2.0 * eeta + etasq * (1.5 - 0.5 * eeta))
               + 0.75 * self.x1mth2 * (2.0 * etasq - eeta * (1.0 + etasq))
               * math.cos(2.0 * argpo)))
        self.cc5 = 2.0 * coef1 * ao * omeosq * (
            1.0 + 2.75 * (etasq + eeta) + eeta * etasq)

        cosio4 = cosio2 * cosio2
        temp1 = 1.5 * j2 * pinvsq * no_unkozai
        temp2 = 0.5 * temp1 * j2 * pinvsq
        temp3 = -0.46875 * j4 * pinvsq * pinvsq * no_unkozai
        self.mdot = (no_unkozai
                     + 0.5 * temp1 * rteosq * con41
                     + 0.0625 * temp2 * rteosq
                     * (13.0 - 78.0 * cosio2 + 137.0 * cosio4))
        self.argpdot = (-0.5 * temp1 * con42
                        + 0.0625 * temp2
                        * (7.0 - 114.0 * cosio2 + 395.0 * cosio4)
                        + temp3 * (3.0 - 36.0 * cosio2 + 49.0 * cosio4))
        xhdot1 = -temp1 * cosio
        self.nodedot = xhdot1 + (0.5 * temp2 * (4.0 - 19.0 * cosio2)
                                 + 2.0 * temp3 * (3.0 - 7.0 * cosio2)) * cosio

        self.omgcof = bstar * cc3 * math.cos(argpo)
        self.xmcof = 0.0
        if ecco > 1.0e-4:
            self.xmcof = -_X2O3 * coef * bstar / eeta
        self.nodecf = 3.5 * omeosq * xhdot1 * self.cc1
        self.t2cof = 1.5 * self.cc1

        # Long-period periodic coefficients.
        if abs(cosio + 1.0) > 1.5e-12:
            self.xlcof = (-0.25 * j3oj2 * sinio
                          * (3.0 + 5.0 * cosio) / (1.0 + cosio))
        else:
            self.xlcof = (-0.25 * j3oj2 * sinio
                          * (3.0 + 5.0 * cosio) / 1.5e-12)
        self.aycof = -0.5 * j3oj2 * sinio

        self.delmo = (1.0 + self.eta * math.cos(mo)) ** 3
        self.sinmao = math.sin(mo)
        self.x7thm1 = 7.0 * cosio2 - 1.0
        self.con41 = con41
        self.cosio = cosio
        self.sinio = sinio
        self.ao = ao

        # Higher-order drag coefficients (skipped for very low perigee).
        self.d2 = self.d3 = self.d4 = 0.0
        self.t3cof = self.t4cof = self.t5cof = 0.0
        if self.isimp != 1:
            cc1sq = self.cc1 * self.cc1
            self.d2 = 4.0 * ao * tsi * cc1sq
            temp = self.d2 * tsi * self.cc1 / 3.0
            self.d3 = (17.0 * ao + sfour) * temp
            self.d4 = (0.5 * temp * ao * tsi
                       * (221.0 * ao + 31.0 * sfour) * self.cc1)
            self.t3cof = self.d2 + 2.0 * cc1sq
            self.t4cof = 0.25 * (3.0 * self.d3
                                 + self.cc1 * (12.0 * self.d2 + 10.0 * cc1sq))
            self.t5cof = 0.2 * (3.0 * self.d4
                                + 12.0 * self.cc1 * self.d3
                                + 6.0 * self.d2 * self.d2
                                + 15.0 * cc1sq * (2.0 * self.d2 + cc1sq))

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def propagate(self, tsince_s: ArrayLike,
                  check_decay: bool = True) -> Tuple[np.ndarray, np.ndarray]:
        """TEME position (km) and velocity (km/s) at offsets from epoch.

        Parameters
        ----------
        tsince_s:
            Seconds since the element-set epoch; scalar or array.
        check_decay:
            If true (default), raise :class:`DecayedError` when any sample
            falls below the Earth's surface.

        Returns
        -------
        (r, v):
            Arrays of shape ``(..., 3)`` matching the input's shape.
        """
        t = np.asarray(tsince_s, dtype=float) / 60.0  # minutes
        r, v = _propagate_block(self, t.reshape(1, -1), self.gravity,
                                (self.tle.norad_id,), check_decay)
        shape = t.shape + (3,)
        return r.reshape(shape), v.reshape(shape)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"SGP4(norad={self.tle.norad_id}, "
                f"n={self.tle.mean_motion_rev_day:.4f} rev/day, "
                f"i={self.tle.inclination_deg:.2f} deg)")


#: The sgp4init products the propagation kernel reads, besides ``isimp``.
_COEFFICIENTS = (
    "ecco", "inclo", "nodeo", "argpo", "mo", "bstar", "no_unkozai",
    "eta", "cc1", "x1mth2", "cc4", "cc5", "mdot", "argpdot", "nodedot",
    "omgcof", "xmcof", "nodecf", "t2cof", "xlcof", "aycof", "delmo",
    "sinmao", "x7thm1", "con41", "cosio", "sinio", "ao",
    "d2", "d3", "d4", "t3cof", "t4cof", "t5cof",
)


def _propagate_block(c, t: np.ndarray, grav: GravityModel,
                     norad_ids: Sequence[int], check_decay: bool,
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """The SGP4 propagation kernel over a ``(B, T)`` block of satellites.

    ``t`` holds minutes since each row's epoch.  ``c`` carries the
    :data:`_COEFFICIENTS` and ``isimp`` of the block's B satellites as
    attributes that broadcast against ``t``: an :class:`SGP4` instance
    (Python numbers, B = 1) or a batch's ``(B, 1)`` coefficient columns
    with a ``(B,)`` ``isimp``.  ``norad_ids[b]`` names row ``b`` in
    errors.  Returns ``(B, T, 3)`` TEME position (km) and velocity
    (km/s).

    Every operation is element-wise within a row, so a row's bits do
    not depend on which other rows share the call; the callers' row
    blocks and gathers rely on that.
    """
    (ecco, inclo, nodeo, argpo, mo, bstar, no_unkozai, eta, cc1,
     x1mth2, cc4, cc5, mdot, argpdot, nodedot, omgcof, xmcof,
     nodecf, t2cof, xlcof, aycof, delmo, sinmao, x7thm1, con41,
     cosio, sinio, ao, d2, d3, d4, t3cof, t4cof, t5cof) = (
        getattr(c, name) for name in _COEFFICIENTS)
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

    # Simple-drag rows skip the higher-order correction block entirely
    # (not merely with zero coefficients: ``omgcof`` can be non-zero
    # for them), so the block runs on the row subset that needs it.
    idx = np.flatnonzero(c.isimp != 1)
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
        # Past full decay the drag polynomial goes non-positive and the
        # squared form would silently grow again — treat it as decayed.
        # The lowest-index decayed row raises, like a row-by-row loop.
        bad = (tempa <= 0.0) | (am < 0.95) | (em >= 1.0)
        if bad.any():
            norad = int(norad_ids[int(np.argmax(bad.any(axis=1)))])
            raise DecayedError(
                f"satellite {norad} decayed during propagation")
    # Guard against drag driving eccentricity slightly negative.
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

    # --- Kepler's equation (vectorized Newton) -------------------------
    # Convergence is judged per element, and a converged element is
    # frozen: each (satellite, instant) Newton trajectory depends only
    # on that cell, never on which other cells share the call.  That
    # makes propagation memoryless along the time axis — the grid over
    # [0, b) equals the [0, b) slice of the grid over [0, c) bit for
    # bit, which the incremental ephemeris extension tier
    # (satiot.runtime.ephemeris_cache) relies on.
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
        bad = mrt < 1.0
        if bad.any():
            norad = int(norad_ids[int(np.argmax(bad.any(axis=1)))])
            raise DecayedError(
                f"satellite {norad} decayed during propagation")

    return r, v
