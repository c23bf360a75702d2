"""Row independence of the SGP4 kernel, pinned bit for bit.

``SGP4.propagate`` and ``SGP4Batch`` run one kernel, and every
downstream consumer (fleet pass search, the ephemeris cache's
constellation-grid product, the serving fleet flush, the passive fleet
sweep) shares cache keys and traces with per-satellite calls.  That is
sound ONLY if a row's bits (``==``, not ``allclose``) do not depend on
which other rows, row blocks or gathers share its kernel call:
``SGP4Batch.propagate`` row ``n`` must equal
``SGP4(tles[n]).propagate``.  These tests pin that contract
property-style over random Table-3-style element sets, mixed epochs
and ragged per-satellite time grids, plus the fleet pass search against
nested serial prediction and the coarse-grid float-drift regression.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satiot.constellations.catalog import build_constellation
from satiot.orbits import SGP4, GeodeticPoint, SGP4Batch, find_passes_fleet
from satiot.orbits.passes import PassPredictor
from satiot.orbits.sgp4 import DecayedError
from satiot.orbits.tle import TLE

from ..conftest import make_test_tle

SEED = 7


def _tle(index: int, altitude_km: float, inclination_deg: float,
         eccentricity: float, bstar: float, raan_deg: float,
         mean_anomaly_deg: float, epochdays: float) -> TLE:
    base = make_test_tle(
        altitude_km=altitude_km, inclination_deg=inclination_deg,
        eccentricity=eccentricity, norad_id=44001 + index,
        bstar=bstar, raan_deg=raan_deg,
        mean_anomaly_deg=mean_anomaly_deg)
    return dataclasses.replace(base, epochdays=epochdays)


#: Table-3-style LEO element sets: the study's constellations span
#: ~500-1200 km altitudes and 45-98 deg inclinations.
element_strategy = st.builds(
    lambda *a: a,
    st.floats(min_value=350.0, max_value=1400.0),    # altitude_km
    st.floats(min_value=10.0, max_value=120.0),      # inclination_deg
    st.floats(min_value=0.0, max_value=0.02),        # eccentricity
    st.floats(min_value=-1.0e-4, max_value=1.0e-4),  # bstar
    st.floats(min_value=0.0, max_value=359.9),       # raan_deg
    st.floats(min_value=0.0, max_value=359.9),       # mean_anomaly_deg
    st.floats(min_value=200.0, max_value=300.0),     # epochdays (mixed)
)


def _build_fleet(elements) -> list:
    return [SGP4(_tle(i, *params)) for i, params in enumerate(elements)]


@pytest.fixture(scope="module")
def study_fleet():
    """All four study constellations stacked (the paper's 39 birds)."""
    sats = []
    for name in ("tianqi", "cstp", "fossa", "pico"):
        sats.extend(build_constellation(name, seed=SEED))
    return [s.propagator for s in sats]


class TestPropagateBitIdentity:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(element_strategy, min_size=1, max_size=6),
           st.integers(min_value=1, max_value=400),
           st.floats(min_value=1.0, max_value=600.0))
    def test_rows_equal_scalar(self, elements, t_len, step_s):
        """Shared grid: each batched row == the scalar propagation."""
        props = _build_fleet(elements)
        batch = SGP4Batch.from_propagators(props)
        tsince = np.arange(t_len, dtype=float) * step_s
        r, v = batch.propagate(tsince)
        assert r.shape == (len(props), t_len, 3)
        for i, prop in enumerate(props):
            r_s, v_s = prop.propagate(tsince)
            assert np.array_equal(r[i], r_s)
            assert np.array_equal(v[i], v_s)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(element_strategy, min_size=2, max_size=5),
           st.integers(min_value=0, max_value=2**31 - 1))
    def test_ragged_rows_equal_scalar(self, elements, rng_seed):
        """Per-satellite (N, T) offsets: rows stay bit-identical."""
        props = _build_fleet(elements)
        batch = SGP4Batch.from_propagators(props)
        rng = np.random.default_rng(rng_seed)
        tsince = rng.uniform(-600.0, 6 * 3600.0,
                             size=(len(props), 50))
        r, v = batch.propagate(tsince)
        for i, prop in enumerate(props):
            r_s, v_s = prop.propagate(tsince[i])
            assert np.array_equal(r[i], r_s)
            assert np.array_equal(v[i], v_s)

    @settings(max_examples=10, deadline=None)
    @given(st.lists(element_strategy, min_size=1, max_size=4))
    def test_propagate_offsets_mixed_epochs(self, elements):
        """A shared absolute grid maps onto each satellite's epoch."""
        props = _build_fleet(elements)
        batch = SGP4Batch.from_propagators(props)
        epoch = props[0].tle.epoch + 3600.0
        offsets = np.arange(40, dtype=float) * 90.0
        r, v = batch.propagate_offsets(epoch, offsets)
        for i, prop in enumerate(props):
            tsince = float(epoch - prop.tle.epoch) + offsets
            r_s, v_s = prop.propagate(tsince)
            assert np.array_equal(r[i], r_s)
            assert np.array_equal(v[i], v_s)

    def test_study_fleet_bit_identical(self, study_fleet):
        """The paper's full 39-satellite fleet over a 1-day 30 s grid."""
        batch = SGP4Batch.from_propagators(study_fleet)
        epoch = study_fleet[0].tle.epoch
        offsets = PassPredictor.coarse_offsets(86400.0, 30.0)
        r, v = batch.propagate_offsets(epoch, offsets)
        for i, prop in enumerate(study_fleet):
            tsince = float(epoch - prop.tle.epoch) + offsets
            r_s, v_s = prop.propagate(tsince)
            assert np.array_equal(r[i], r_s)
            assert np.array_equal(v[i], v_s)

    def test_mixed_isimp_fleet(self):
        """Low-perigee (isimp) satellites ride with normal ones.

        Simple-drag satellites skip the higher-order drag block
        entirely; applying it with zeroed coefficients would NOT be
        equivalent (omgcof is generally non-zero for them).
        """
        props = [SGP4(make_test_tle(altitude_km=850.0, norad_id=1)),
                 SGP4(make_test_tle(altitude_km=200.0, norad_id=2)),
                 SGP4(make_test_tle(altitude_km=600.0, norad_id=3)),
                 SGP4(make_test_tle(altitude_km=210.0, norad_id=4))]
        isimps = {p.isimp for p in props}
        assert isimps == {0, 1}, "fixture must mix isimp branches"
        batch = SGP4Batch.from_propagators(props)
        tsince = np.arange(120, dtype=float) * 60.0
        r, v = batch.propagate(tsince)
        for i, prop in enumerate(props):
            r_s, v_s = prop.propagate(tsince)
            assert np.array_equal(r[i], r_s)
            assert np.array_equal(v[i], v_s)

    def test_row_blocking_is_value_invariant(self, study_fleet,
                                             monkeypatch):
        """Any block size must produce the same bits (pure row split)."""
        batch = SGP4Batch.from_propagators(study_fleet[:8])
        tsince = np.arange(700, dtype=float) * 30.0
        monkeypatch.setattr(SGP4Batch, "_BLOCK_TARGET_ELEMENTS",
                            10 ** 9)
        r_full, v_full = batch.propagate(tsince)
        for target in (1, 700, 1400, 3000):
            monkeypatch.setattr(SGP4Batch, "_BLOCK_TARGET_ELEMENTS",
                                target)
            r_b, v_b = batch.propagate(tsince)
            assert np.array_equal(r_b, r_full)
            assert np.array_equal(v_b, v_full)

    def test_init_from_tles_matches_from_propagators(self):
        tles = [make_test_tle(norad_id=1), make_test_tle(
            altitude_km=600.0, norad_id=2)]
        a = SGP4Batch(tles)
        b = SGP4Batch.from_propagators([SGP4(t) for t in tles])
        tsince = np.arange(30, dtype=float) * 120.0
        ra, va = a.propagate(tsince)
        rb, vb = b.propagate(tsince)
        assert np.array_equal(ra, rb) and np.array_equal(va, vb)

    def test_decay_raises_lowest_index_satellite(self):
        """The batch mirrors a satellite-by-satellite loop's error."""
        healthy = make_test_tle(altitude_km=850.0, norad_id=101)
        doomed = dataclasses.replace(
            make_test_tle(altitude_km=170.0, norad_id=102),
            bstar=5.0e-3)
        props = [SGP4(healthy), SGP4(doomed)]
        tsince = np.arange(400, dtype=float) * 3600.0
        with pytest.raises(DecayedError) as batch_err:
            SGP4Batch.from_propagators(props).propagate(tsince)
        serial_err = None
        for prop in props:
            try:
                prop.propagate(tsince)
            except DecayedError as exc:
                serial_err = exc
                break
        assert serial_err is not None
        assert str(batch_err.value) == str(serial_err)
        # check_decay=False matches the scalar opt-out.
        r, v = SGP4Batch.from_propagators(props).propagate(
            tsince, check_decay=False)
        r_s, v_s = props[1].propagate(tsince, check_decay=False)
        assert np.array_equal(r[1], r_s) and np.array_equal(v[1], v_s)

    def test_shape_and_constructor_validation(self):
        batch = SGP4Batch([make_test_tle()])
        with pytest.raises(ValueError):
            batch.propagate(np.zeros((3, 4, 5)))
        with pytest.raises(ValueError):
            batch.propagate(np.zeros((2, 4)))  # wrong N
        with pytest.raises(ValueError):
            SGP4Batch([])
        with pytest.raises(ValueError):
            SGP4Batch.from_propagators([])
        with pytest.raises(ValueError):
            batch.tsince_from_epoch(make_test_tle().epoch,
                                    np.zeros((2, 2)))


class TestPropagatePairs:
    """The gather kernel behind lockstep crossing refinement."""

    @settings(max_examples=20, deadline=None)
    @given(st.lists(element_strategy, min_size=1, max_size=5),
           st.lists(st.tuples(st.integers(min_value=0, max_value=99),
                              st.floats(min_value=-3600.0,
                                        max_value=2 * 86400.0)),
                    min_size=1, max_size=40))
    def test_pairs_equal_scalar(self, elements, pairs):
        """Repeated, unsorted rows: row k == the scalar call."""
        props = _build_fleet(elements)
        batch = SGP4Batch.from_propagators(props)
        rows = [i % len(props) for i, _ in pairs]
        tsince = [t for _, t in pairs]
        r, v = batch.propagate_pairs(rows, tsince)
        assert r.shape == v.shape == (len(pairs), 3)
        for k, (row, t) in enumerate(zip(rows, tsince)):
            r_s, v_s = props[row].propagate(t)
            assert np.array_equal(r[k], r_s)
            assert np.array_equal(v[k], v_s)

    def test_mixed_isimp_pairs(self):
        props = [SGP4(make_test_tle(altitude_km=850.0, norad_id=1)),
                 SGP4(make_test_tle(altitude_km=205.0, norad_id=2))]
        assert {p.isimp for p in props} == {0, 1}
        batch = SGP4Batch.from_propagators(props)
        rows = np.array([1, 0, 1, 1, 0, 0, 1])
        tsince = np.linspace(-600.0, 7200.0, rows.size)[::-1]
        r, v = batch.propagate_pairs(rows, tsince)
        for k, row in enumerate(rows):
            r_s, v_s = props[row].propagate(tsince[k])
            assert np.array_equal(r[k], r_s)
            assert np.array_equal(v[k], v_s)

    def test_decayed_pair_names_its_satellite(self):
        healthy = make_test_tle(altitude_km=850.0, norad_id=101)
        doomed = dataclasses.replace(
            make_test_tle(altitude_km=170.0, norad_id=102),
            bstar=5.0e-3)
        batch = SGP4Batch([healthy, doomed])
        late = 400 * 3600.0
        with pytest.raises(DecayedError, match="satellite 102 "):
            batch.propagate_pairs([0, 1, 0], [0.0, late, late])
        # The healthy satellite alone propagates fine at that instant.
        r, _ = batch.propagate_pairs([0], [late])
        assert np.all(np.isfinite(r))

    def test_validation_and_empty(self):
        batch = SGP4Batch([make_test_tle()])
        r, v = batch.propagate_pairs([], [])
        assert r.shape == v.shape == (0, 3)
        with pytest.raises(ValueError):
            batch.propagate_pairs([0, 0], [1.0])
        with pytest.raises(IndexError):
            batch.propagate_pairs([1], [1.0])


class TestFleetPassSearch:
    OBSERVERS = [
        GeodeticPoint(22.3, 114.2, 0.0),
        GeodeticPoint(-33.9, 151.2, 0.05),
        GeodeticPoint(89.9, 0.0, 0.0),      # near-pole edge
        GeodeticPoint(0.0, -180.0, 0.0),    # antimeridian edge
    ]

    @pytest.mark.parametrize("refine", ["bisect", "interp"])
    @pytest.mark.parametrize("mask_deg", [0.0, 10.0])
    def test_fleet_equals_nested_serial(self, study_fleet, refine,
                                        mask_deg):
        props = study_fleet[:6]
        epoch = props[0].tle.epoch
        duration = 12 * 3600.0
        fleet = find_passes_fleet(props, self.OBSERVERS, epoch,
                                  duration, coarse_step_s=60.0,
                                  min_elevation_deg=mask_deg,
                                  refine=refine)
        for i, prop in enumerate(props):
            multi = find_passes_fleet([prop], self.OBSERVERS, epoch,
                                      duration, coarse_step_s=60.0,
                                      min_elevation_deg=mask_deg,
                                      refine=refine)[0]
            assert fleet[i] == multi
            for m, observer in enumerate(self.OBSERVERS):
                predictor = PassPredictor(prop, observer, mask_deg)
                assert fleet[i][m] == predictor.find_passes(
                    epoch, duration, coarse_step_s=60.0, refine=refine)

    @settings(max_examples=8, deadline=None)
    @given(st.lists(st.builds(
        GeodeticPoint,
        st.floats(min_value=-89.99, max_value=89.99),
        st.floats(min_value=-180.0, max_value=180.0),
        st.floats(min_value=0.0, max_value=8.0)),
        min_size=1, max_size=3))
    def test_fleet_random_observers(self, study_fleet, observers):
        props = study_fleet[:3]
        epoch = props[0].tle.epoch
        fleet = find_passes_fleet(props, observers, epoch, 6 * 3600.0,
                                  coarse_step_s=60.0,
                                  min_elevation_deg=5.0,
                                  refine="interp")
        for i, prop in enumerate(props):
            for m, observer in enumerate(observers):
                predictor = PassPredictor(prop, observer, 5.0)
                assert fleet[i][m] == predictor.find_passes(
                    epoch, 6 * 3600.0, coarse_step_s=60.0,
                    refine="interp")

    def test_empty_inputs(self, study_fleet):
        epoch = study_fleet[0].tle.epoch
        assert find_passes_fleet([], self.OBSERVERS, epoch,
                                 3600.0) == []
        assert find_passes_fleet(study_fleet[:2], [], epoch,
                                 3600.0) == [[], []]


class TestCoarseOffsetsRegression:
    def test_step_divisible_duration_has_no_duplicate_tail(self):
        """86400/30 divides exactly: the grid must end in one clean
        terminal sample, not a zero-length refinement bracket."""
        offsets = PassPredictor.coarse_offsets(86400.0, 30.0)
        assert offsets.size == 2881
        assert offsets[-1] == 86400.0
        assert np.all(np.diff(offsets) > 0.0)

    def test_one_ulp_drift_is_snapped_not_appended(self):
        """A duration one ULP above the last arange sample must not
        produce a near-duplicate terminal sample."""
        duration = np.nextafter(86400.0, np.inf)
        offsets = PassPredictor.coarse_offsets(float(duration), 30.0)
        assert offsets[-1] == duration
        assert offsets.size == 2881
        diffs = np.diff(offsets)
        assert np.all(diffs > 1.0e-6)

    def test_non_divisible_duration_still_appends_endpoint(self):
        offsets = PassPredictor.coarse_offsets(100.0, 30.0)
        assert offsets.tolist() == [0.0, 30.0, 60.0, 90.0, 100.0]

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=1.0, max_value=7 * 86400.0),
           st.floats(min_value=0.5, max_value=3600.0))
    def test_grid_invariants(self, duration, step):
        offsets = PassPredictor.coarse_offsets(duration, step)
        assert offsets[0] == 0.0
        assert offsets[-1] == duration or (
            duration - offsets[-1] <= 1.0e-9 * step)
        assert np.all(np.diff(offsets) > 0.0)
