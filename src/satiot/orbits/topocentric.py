"""Topocentric geometry: look angles, slant range and range rate.

All the link-budget quantities of the study derive from this module:
elevation angle gates contact windows, slant range sets path loss, and
range rate sets Doppler shift.

Besides the classic single-observer :func:`look_angles`, the module
provides the **multi-observer batch path** used by ``satiot.serving``:
the TEME→ECEF conversion (the expensive, observer-*independent* half of
the pipeline) is computed once via :func:`ecef_states`, and the cheap
observer-dependent SEZ projection is applied per observer
(:func:`look_angles_from_ecef`, :func:`elevation_from_ecef`,
:func:`batch_look_angles`, :func:`batch_elevations`).

Bit-identity contract
---------------------
The SEZ projection is written as explicit element-wise expressions (no
matrix product), so every per-element operation is a NumPy ufunc whose
result does not depend on the shape of the array it is embedded in.
Consequently a batched evaluation over N observers is **bit-identical**
to N independent serial calls — the contract the serving layer's
micro-batcher relies on, verified by
``tests/orbits/test_multi_observer.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .constants import RAD2DEG
from .frames import GeodeticPoint, ecef_velocity_from_teme, teme_to_ecef

__all__ = [
    "LookAngles",
    "batch_elevations",
    "batch_look_angles",
    "ecef_states",
    "elevation_from_ecef",
    "look_angles",
    "look_angles_from_ecef",
    "sez_rotation",
]

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class LookAngles:
    """Observer-relative geometry of a satellite sample (vectorized).

    ``azimuth_deg``/``elevation_deg`` in degrees, ``range_km`` in km,
    ``range_rate_km_s`` in km/s (positive = receding).
    """

    azimuth_deg: ArrayLike
    elevation_deg: ArrayLike
    range_km: ArrayLike
    range_rate_km_s: ArrayLike


def sez_rotation(latitude_rad: float, longitude_rad: float) -> np.ndarray:
    """Rotation matrix from ECEF into the observer's SEZ frame."""
    sin_lat, cos_lat = np.sin(latitude_rad), np.cos(latitude_rad)
    sin_lon, cos_lon = np.sin(longitude_rad), np.cos(longitude_rad)
    return np.array([
        [sin_lat * cos_lon, sin_lat * sin_lon, -cos_lat],
        [-sin_lon, cos_lon, 0.0],
        [cos_lat * cos_lon, cos_lat * sin_lon, sin_lat],
    ])


def ecef_states(r_teme: np.ndarray, v_teme: np.ndarray,
                jd_ut1: ArrayLike) -> Tuple[np.ndarray, np.ndarray]:
    """Observer-independent half of the look-angle pipeline.

    Returns ``(r_ecef, v_ecef)`` for TEME state(s) of shape ``(..., 3)``.
    This is the expensive part (GMST trigonometry and three frame
    rotations); batching layers compute it once and share it across all
    observers.
    """
    r_ecef = teme_to_ecef(r_teme, jd_ut1)
    v_ecef = ecef_velocity_from_teme(r_teme, v_teme, jd_ut1)
    return r_ecef, v_ecef


def _sez_components(vec: np.ndarray, rot: np.ndarray):
    """Project ECEF vector(s) into SEZ with fixed element-wise ops.

    Written without a matrix product so each output element is an
    identical chain of scalar IEEE operations regardless of the batch
    shape — the root of the serial == batched bit-identity contract.
    ``rot`` is one ``(3, 3)`` rotation or a stack ``(..., 3, 3)`` that
    broadcasts against ``vec``'s leading axes (one per vector).
    """
    x, y, z = vec[..., 0], vec[..., 1], vec[..., 2]
    s = x * rot[..., 0, 0] + y * rot[..., 0, 1] + z * rot[..., 0, 2]
    e = x * rot[..., 1, 0] + y * rot[..., 1, 1] + z * rot[..., 1, 2]
    zz = x * rot[..., 2, 0] + y * rot[..., 2, 1] + z * rot[..., 2, 2]
    return s, e, zz


def look_angles_from_ecef(observer: GeodeticPoint,
                          r_ecef: np.ndarray,
                          v_ecef: np.ndarray) -> LookAngles:
    """Observer-dependent half: SEZ projection and angle extraction.

    ``r_ecef``/``v_ecef`` come from :func:`ecef_states` and may be
    shared between many observers.
    """
    site = observer.ecef()
    rot = sez_rotation(observer.latitude_rad, observer.longitude_rad)
    rho_ecef = np.asarray(r_ecef, dtype=float) - site

    s, e, z = _sez_components(rho_ecef, rot)
    ds, de, dz = _sez_components(np.asarray(v_ecef, float), rot)

    rng = np.sqrt(s * s + e * e + z * z)
    elevation = np.arcsin(np.clip(z / rng, -1.0, 1.0)) * RAD2DEG
    azimuth = np.remainder(np.arctan2(e, -s) * RAD2DEG, 360.0)
    range_rate = (s * ds + e * de + z * dz) / rng

    if np.ndim(rng) == 0:
        return LookAngles(float(azimuth), float(elevation),
                          float(rng), float(range_rate))
    return LookAngles(azimuth, elevation, rng, range_rate)


def elevation_from_ecef(observer: GeodeticPoint,
                        r_ecef: np.ndarray,
                        site: Optional[np.ndarray] = None,
                        rot: Optional[np.ndarray] = None) -> np.ndarray:
    """Elevation (deg) only — the pass-finder's hot kernel.

    Skips the velocity projection and azimuth extraction entirely;
    bit-identical to ``look_angles(...).elevation_deg`` on the same
    states (same element-wise expression chain).  ``site``/``rot`` may
    carry the precomputed ``observer.ecef()`` / :func:`sez_rotation` to
    amortize them across repeated calls (they are trusted verbatim), or
    per-state ``(K, 3)`` / ``(K, 3, 3)`` stacks giving each of K states
    its own observer (``observer`` is then unused).
    """
    if site is None:
        site = observer.ecef()
    if rot is None:
        rot = sez_rotation(observer.latitude_rad, observer.longitude_rad)
    rho_ecef = np.asarray(r_ecef, dtype=float) - site
    s, e, z = _sez_components(rho_ecef, rot)
    rng = np.sqrt(s * s + e * e + z * z)
    return np.arcsin(np.clip(z / rng, -1.0, 1.0)) * RAD2DEG


def look_angles(observer: GeodeticPoint,
                r_teme: np.ndarray,
                v_teme: np.ndarray,
                jd_ut1: ArrayLike) -> LookAngles:
    """Compute az/el/range/range-rate of TEME state(s) from an observer.

    Accepts single states of shape (3,) or batched states of shape (N, 3)
    with matching ``jd_ut1`` of shape () or (N,).
    """
    r_ecef, v_ecef = ecef_states(r_teme, v_teme, jd_ut1)
    return look_angles_from_ecef(observer, r_ecef, v_ecef)


def batch_look_angles(observers: Sequence[GeodeticPoint],
                      r_teme: np.ndarray,
                      v_teme: np.ndarray,
                      jd_ut1: ArrayLike) -> LookAngles:
    """Look angles of shared TEME states from M observers at once.

    Returns a :class:`LookAngles` whose fields are arrays of shape
    ``(M,) + state_shape`` — row ``m`` is bit-identical to
    ``look_angles(observers[m], r_teme, v_teme, jd_ut1)``.  The frame
    conversion (the dominant cost) is evaluated once and shared.
    """
    r_ecef, v_ecef = ecef_states(r_teme, v_teme, jd_ut1)
    rows = [look_angles_from_ecef(obs, r_ecef, v_ecef)
            for obs in observers]
    return LookAngles(
        azimuth_deg=np.stack([np.asarray(r.azimuth_deg) for r in rows]),
        elevation_deg=np.stack([np.asarray(r.elevation_deg)
                                for r in rows]),
        range_km=np.stack([np.asarray(r.range_km) for r in rows]),
        range_rate_km_s=np.stack([np.asarray(r.range_rate_km_s)
                                  for r in rows]))


def batch_elevations(observers: Sequence[GeodeticPoint],
                     r_ecef: np.ndarray) -> np.ndarray:
    """Elevation matrix ``(M, N)`` of shared ECEF states from M observers.

    Row ``m`` is bit-identical to
    ``elevation_from_ecef(observers[m], r_ecef)``.
    """
    return np.stack([np.asarray(elevation_from_ecef(obs, r_ecef))
                     for obs in observers])
