"""SGP4 propagator validation.

With no reference ephemeris available offline, correctness rests on
physical invariants, agreement with the independent J2 secular
propagator (no shared code), which would expose any sign/unit error,
and golden vectors that pin the kernel's arithmetic (see
``tests/fixtures/make_sgp4_golden.py`` for their provenance).
"""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from satiot.orbits.constants import MU_EARTH_KM3_S2
from satiot.orbits.j2 import J2Propagator
from satiot.orbits.kepler import KeplerianElements, semi_major_axis_km
from satiot.orbits.sgp4 import SGP4, DecayedError, DeepSpaceError, SGP4Error
from satiot.orbits.sgp4_batch import SGP4Batch
from satiot.orbits.tle import parse_tle

from tests.conftest import make_test_tle

GOLDEN = Path(__file__).resolve().parents[1] / "fixtures" / "sgp4_golden.npz"

#: Golden tolerances, absolute: 1 mm and 1 um/s.  The vectors come
#: from one NumPy build; another platform's libm may round sin, cos or
#: arctan2 differently in the last place, which moves a state by
#: orders of magnitude less, while a changed term of the kernel moves
#: it by metres or more.
GOLDEN_ATOL_KM = 1.0e-6
GOLDEN_ATOL_KM_S = 1.0e-9


@pytest.fixture(scope="module")
def sat():
    return SGP4(make_test_tle())


class TestPhysicalInvariants:
    def test_radius_band(self, sat):
        r, _ = sat.propagate(np.arange(0.0, 86400.0, 60.0))
        radius = np.linalg.norm(r, axis=1)
        # 850 km circular orbit: radius near 7228 km throughout.
        assert radius.min() > 7200.0
        assert radius.max() < 7260.0

    def test_speed_band(self, sat):
        _, v = sat.propagate(np.arange(0.0, 86400.0, 60.0))
        speed = np.linalg.norm(v, axis=1)
        assert 7.3 < speed.min() and speed.max() < 7.6

    def test_vis_viva(self, sat):
        r, v = sat.propagate(np.arange(0.0, 6000.0, 30.0))
        radius = np.linalg.norm(r, axis=1)
        speed = np.linalg.norm(v, axis=1)
        a = semi_major_axis_km(sat.tle.mean_motion_rev_day)
        expected = np.sqrt(MU_EARTH_KM3_S2 * (2.0 / radius - 1.0 / a))
        assert np.max(np.abs(speed - expected) / expected) < 0.01

    def test_inclination_preserved(self, sat):
        r, v = sat.propagate(np.arange(0.0, 86400.0, 120.0))
        h = np.cross(r, v)
        incl = np.degrees(np.arccos(h[:, 2] / np.linalg.norm(h, axis=1)))
        assert np.all(np.abs(incl - 49.97) < 0.2)

    def test_period_consistency(self, sat):
        period_s = 86400.0 / sat.tle.mean_motion_rev_day
        r0, _ = sat.propagate(0.0)
        r1, _ = sat.propagate(period_s)
        # One nodal period later the satellite is nearly back (J2 drift
        # displaces the orbit slightly).
        assert np.linalg.norm(r1 - r0) < 100.0

    def test_velocity_is_position_derivative(self, sat):
        t0, dt = 1234.0, 0.5
        r_minus, _ = sat.propagate(t0 - dt)
        r_plus, _ = sat.propagate(t0 + dt)
        _, v = sat.propagate(t0)
        numeric = (r_plus - r_minus) / (2 * dt)
        assert np.linalg.norm(numeric - v) < 1e-3 * np.linalg.norm(v)


class TestAgainstJ2:
    def test_positions_agree_over_one_orbit(self):
        tle = make_test_tle(eccentricity=0.001)
        sat = SGP4(tle)
        elements = KeplerianElements(
            semi_major_axis_km=semi_major_axis_km(tle.mean_motion_rev_day),
            eccentricity=tle.eccentricity,
            inclination_rad=tle.inclination_rad,
            raan_rad=tle.raan_rad,
            argp_rad=tle.argp_rad,
            mean_anomaly_rad=tle.mean_anomaly_rad)
        j2 = J2Propagator(elements)
        t = np.arange(0.0, 6200.0, 30.0)
        r_sgp4, _ = sat.propagate(t)
        r_j2, _ = j2.propagate(t)
        # Mean-element interpretations differ slightly; 30 km over an
        # orbit of 7,228 km radius is < 0.5 % — far below any sign or
        # unit error, which would diverge by thousands of km.
        diff = np.linalg.norm(r_sgp4 - r_j2, axis=1)
        assert diff.max() < 30.0

    def test_raan_drift_direction(self):
        # Prograde orbit: RAAN regresses (westward) under J2; verify
        # SGP4's node motion matches the analytic J2 sign and magnitude.
        tle = make_test_tle(inclination_deg=49.97)
        sat = SGP4(tle)
        elements = KeplerianElements(
            semi_major_axis_km=semi_major_axis_km(tle.mean_motion_rev_day),
            eccentricity=tle.eccentricity,
            inclination_rad=tle.inclination_rad,
            raan_rad=tle.raan_rad, argp_rad=tle.argp_rad,
            mean_anomaly_rad=tle.mean_anomaly_rad)
        expected_rate = J2Propagator(elements).raan_dot  # rad/s
        assert expected_rate < 0.0
        assert sat.nodedot / 60.0 == pytest.approx(expected_rate, rel=0.01)


@pytest.fixture(scope="module")
def golden():
    """The committed vectors, with propagators built from their lines."""
    with np.load(GOLDEN) as data:
        fixture = {name: data[name] for name in data.files}
    tles = [parse_tle(a, b, name=n) for n, a, b in
            zip(fixture["names"], fixture["line1"], fixture["line2"])]
    fixture["props"] = [SGP4(tle) for tle in tles]
    fixture["epoch"] = tles[0].epoch
    fixture["tsince"] = (np.array([float(tles[0].epoch - tle.epoch)
                                   for tle in tles])[:, None]
                         + fixture["offsets_s"])
    return fixture


def assert_golden(r, v, r_ref, v_ref):
    np.testing.assert_allclose(r, r_ref, rtol=0.0, atol=GOLDEN_ATOL_KM)
    np.testing.assert_allclose(v, v_ref, rtol=0.0, atol=GOLDEN_ATOL_KM_S)


class TestGoldenVectors:
    def test_fixture_covers_the_study_and_edge_cases(self, golden):
        names = list(golden["names"])
        assert len(names) == 43
        assert names[39:] == ["isimp", "e=0.03", "high-drag",
                              "negative-time"]
        assert golden["props"][39].isimp == 1
        assert golden["props"][40].tle.eccentricity == 0.03
        assert np.all(golden["tsince"][42] < 0.0)
        assert str(golden["commit"]) and str(golden["numpy_version"])

    def test_propagate_array(self, golden):
        for n, prop in enumerate(golden["props"]):
            r, v = prop.propagate(golden["tsince"][n])
            assert_golden(r, v, golden["r_km"][n], golden["v_km_s"][n])

    def test_propagate_scalar(self, golden):
        for n, prop in enumerate(golden["props"]):
            for k in range(0, golden["offsets_s"].size, 5):
                r, v = prop.propagate(float(golden["tsince"][n, k]))
                assert r.shape == v.shape == (3,)
                assert_golden(r, v, golden["r_km"][n, k],
                              golden["v_km_s"][n, k])

    def test_batch_propagate_offsets(self, golden):
        batch = SGP4Batch.from_propagators(golden["props"])
        r, v = batch.propagate_offsets(golden["epoch"], golden["offsets_s"])
        assert_golden(r, v, golden["r_km"], golden["v_km_s"])

    def test_batch_propagate_pairs(self, golden):
        batch = SGP4Batch.from_propagators(golden["props"])
        shape = golden["tsince"].shape
        flat = np.random.default_rng(0).permutation(shape[0] * shape[1])
        rows, cols = np.unravel_index(flat, shape)
        r, v = batch.propagate_pairs(rows, golden["tsince"][rows, cols])
        assert_golden(r, v, golden["r_km"][rows, cols],
                      golden["v_km_s"][rows, cols])


class TestVectorization:
    def test_scalar_matches_array(self, sat):
        times = [0.0, 500.0, 5000.0, 50000.0]
        r_vec, v_vec = sat.propagate(np.asarray(times))
        for i, t in enumerate(times):
            r, v = sat.propagate(t)
            assert np.array_equal(r, r_vec[i])
            assert np.array_equal(v, v_vec[i])

    def test_scalar_shape(self, sat):
        r, v = sat.propagate(0.0)
        assert r.shape == (3,) and v.shape == (3,)

    def test_negative_time(self, sat):
        r, _ = sat.propagate(-3600.0)
        assert 7200.0 < np.linalg.norm(r) < 7260.0


class TestErrorHandling:
    def test_deep_space_rejected(self):
        geo = make_test_tle(altitude_km=35786.0)
        with pytest.raises(DeepSpaceError):
            SGP4(geo)

    def test_subsurface_perigee_rejected(self):
        tle = make_test_tle(altitude_km=850.0, eccentricity=0.52)
        with pytest.raises(SGP4Error):
            SGP4(tle)

    def test_decay_detection(self):
        # Very high drag on a low orbit decays within weeks.
        tle = make_test_tle(altitude_km=180.0, bstar=5e-2)
        sat = SGP4(tle)
        with pytest.raises(DecayedError):
            sat.propagate(30 * 86400.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", [
        "mean_motion_rev_day", "eccentricity", "inclination_deg",
        "raan_deg", "argp_deg", "mean_anomaly_deg", "bstar"])
    def test_non_finite_elements_rejected(self, field, value):
        tle = dataclasses.replace(make_test_tle(), **{field: value})
        with pytest.raises(SGP4Error, match="non-finite"):
            SGP4(tle)

    def test_low_perigee_uses_simple_drag(self):
        tle = make_test_tle(altitude_km=200.0)
        assert SGP4(tle).isimp == 1
        r, _ = SGP4(tle).propagate(3600.0)
        assert np.linalg.norm(r) > 6378.0


class TestEccentricOrbit:
    def test_moderate_eccentricity(self):
        tle = make_test_tle(altitude_km=1200.0, eccentricity=0.03)
        sat = SGP4(tle)
        r, _ = sat.propagate(np.arange(0.0, 20000.0, 30.0))
        radius = np.linalg.norm(r, axis=1)
        a = semi_major_axis_km(tle.mean_motion_rev_day)
        assert radius.min() == pytest.approx(a * 0.97, rel=0.01)
        assert radius.max() == pytest.approx(a * 1.03, rel=0.01)
