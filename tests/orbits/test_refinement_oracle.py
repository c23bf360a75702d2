"""Independent oracle for the fleet pass search's crossing refinement.

:func:`find_passes_fleet` refines every crossing of every (satellite,
observer) pair in lockstep, one batched SGP4 gather per bisection
iteration.  The oracle below shares none of that code: it walks the
coarse samples in plain Python, bisects each crossing and evaluates
each parabolic culmination with one scalar
:meth:`PassPredictor.elevation_at` call per instant (scalar
``SGP4.propagate``).  The refinement arithmetic is specified to be the
same — stop at ``hi - lo <= tol``, strict ``>`` mask test, the same
clamps — so windows must be **equal**, not merely close.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satiot.orbits import SGP4, GeodeticPoint, find_passes_fleet
from satiot.orbits.passes import ContactWindow, PassPredictor
from satiot.runtime.ephemeris_cache import EphemerisCache

from ..conftest import make_test_tle

pytestmark = pytest.mark.property

TOL_S = 0.5


def oracle_windows(propagator: SGP4, observer: GeodeticPoint, epoch,
                   duration_s: float, step_s: float, mask: float,
                   tol: float = TOL_S) -> list:
    """Scalar reference pass search for one (satellite, observer)."""
    predictor = PassPredictor(propagator, observer, mask)
    offsets = PassPredictor.coarse_offsets(duration_s, step_s)
    elev = [float(e) for e in
            predictor.look_angles_at(epoch, offsets).elevation_deg]
    times = [float(t) for t in offsets]

    def elevation(t: float) -> float:
        return predictor.elevation_at(epoch, t)

    def bisect(lo: float, hi: float, rising: bool) -> float:
        for _ in range(64):
            if hi - lo <= tol:
                break
            mid = 0.5 * (lo + hi)
            if (elevation(mid) > mask) == rising:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    windows = []
    n = len(times)
    i = 0
    while i < n:
        if not elev[i] > mask:
            i += 1
            continue
        j = i
        while j < n and elev[j] > mask:
            j += 1
        rise = times[i] if i == 0 else bisect(times[i - 1], times[i], True)
        set_ = times[j - 1] if j == n else bisect(times[j - 1], times[j],
                                                   False)
        k = max(range(i, j), key=lambda q: (elev[q], -q))
        t_best, el_best = times[k], elev[k]
        if i < k < j - 1:
            t0, t1 = times[k - 1], times[k]
            e0, e1, e2 = elev[k - 1], elev[k], elev[k + 1]
            denom = e0 - 2.0 * e1 + e2
            if abs(denom) > 1e-12:
                t_para = t1 + 0.5 * (t1 - t0) * (e0 - e2) / denom
                t_para = min(max(t_para, times[i]), times[j - 1])
                el_para = elevation(t_para)
                if el_para > el_best:
                    t_best, el_best = t_para, el_para
        windows.append(ContactWindow(
            rise_s=rise, set_s=set_,
            culmination_s=min(max(t_best, rise), set_),
            max_elevation_deg=el_best,
            norad_id=propagator.tle.norad_id,
            clipped_start=i == 0, clipped_end=j == n))
        i = j
    return windows


def _sat(index: int, params) -> SGP4:
    altitude, inclination, ecc, bstar, raan, anomaly, epochdays = params
    tle = make_test_tle(altitude_km=altitude, inclination_deg=inclination,
                        eccentricity=ecc, norad_id=45001 + index,
                        bstar=bstar, raan_deg=raan,
                        mean_anomaly_deg=anomaly)
    return SGP4(dataclasses.replace(tle, epochdays=epochdays))


def _elements(altitude, eccentricity, bstar):
    return st.tuples(altitude, st.floats(min_value=10.0, max_value=120.0),
                     eccentricity, bstar,
                     st.floats(min_value=0.0, max_value=359.9),
                     st.floats(min_value=0.0, max_value=359.9),
                     st.floats(min_value=250.0, max_value=251.0))


#: Table-3-style LEO element sets, plus low-perigee satellites that take
#: SGP4's simple-drag (``isimp``) branch.
element_strategy = st.one_of(
    _elements(st.floats(min_value=350.0, max_value=1400.0),
              st.floats(min_value=0.0, max_value=0.02),
              st.floats(min_value=-1.0e-4, max_value=1.0e-4)),
    _elements(st.floats(min_value=200.0, max_value=215.0),
              st.floats(min_value=0.0, max_value=0.001),
              st.floats(min_value=0.0, max_value=2.0e-5)))

#: Observers anywhere, high latitudes included.
observer_strategy = st.builds(
    GeodeticPoint,
    st.one_of(st.floats(min_value=-89.9, max_value=89.9),
              st.floats(min_value=60.0, max_value=89.9),
              st.floats(min_value=-89.9, max_value=-60.0)),
    st.floats(min_value=-180.0, max_value=180.0),
    st.floats(min_value=0.0, max_value=4.0))


class TestFleetSearchAgainstOracle:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(element_strategy, min_size=1, max_size=3),
           st.lists(observer_strategy, min_size=1, max_size=3),
           st.sampled_from([0.0, 10.0]),
           st.sampled_from([30.0, 60.0]),
           st.floats(min_value=0.0, max_value=86400.0),
           st.floats(min_value=2 * 3600.0, max_value=12 * 3600.0))
    def test_windows_equal_scalar_oracle(self, elements, observers, mask,
                                         step, start_s, duration_s):
        """Random start and span clip passes at either end."""
        props = [_sat(i, p) for i, p in enumerate(elements)]
        epoch = props[0].tle.epoch + start_s
        fleet = find_passes_fleet(props, observers, epoch, duration_s,
                                  coarse_step_s=step,
                                  min_elevation_deg=mask,
                                  refine_tol_s=TOL_S)
        for n, prop in enumerate(props):
            for m, observer in enumerate(observers):
                assert fleet[n][m] == oracle_windows(
                    prop, observer, epoch, duration_s, step, mask)

    @pytest.mark.parametrize("step", [30.0, 60.0])
    @pytest.mark.parametrize("mask", [0.0, 10.0])
    def test_high_latitude_sites_and_clipped_ends(self, step, mask):
        """Polar orbits over polar sites: long, frequent passes; the
        span starts and ends inside a pass."""
        props = [_sat(0, (550.0, 97.6, 0.001, 2e-5, 10.0, 0.0, 250.5)),
                 _sat(1, (205.0, 97.0, 0.0005, 1e-5, 80.0, 90.0, 250.5))]
        assert {p.isimp for p in props} == {0, 1}
        observers = [GeodeticPoint(78.2, 15.6, 0.5),
                     GeodeticPoint(-77.8, 166.7, 0.0),
                     GeodeticPoint(89.9, 0.0, 0.0)]
        epoch = props[0].tle.epoch
        full = oracle_windows(props[0], observers[0], epoch, 12 * 3600.0,
                              step, mask)
        inner = [w for w in full if not w.clipped_start
                 and not w.clipped_end]
        start = inner[0].midpoint_s
        span = inner[-1].midpoint_s - start
        fleet = find_passes_fleet(props, observers, epoch + start, span,
                                  coarse_step_s=step,
                                  min_elevation_deg=mask)
        clipped = fleet[0][0]
        assert clipped[0].clipped_start and clipped[-1].clipped_end
        for n, prop in enumerate(props):
            for m, observer in enumerate(observers):
                assert fleet[n][m] == oracle_windows(
                    prop, observer, epoch + start, span, step, mask)

    def test_cache_fleet_on_filled_grid(self):
        """A cached search over the grid an earlier search (other
        observer, other mask) filled reads that grid; the windows still
        equal the oracle's."""
        props = [_sat(i, (500.0 + 90.0 * i, 50.0 + 15.0 * i, 0.001,
                          1e-5, 40.0 * i, 25.0 * i, 250.5))
                 for i in range(4)]
        observers = [GeodeticPoint(22.3, 114.2), GeodeticPoint(64.1, -21.9)]
        epoch = props[0].tle.epoch
        cache = EphemerisCache()
        cache.find_passes_fleet(props, observers[1:], epoch, 6 * 3600.0,
                                coarse_step_s=60.0, min_elevation_deg=0.0)
        fleet = cache.find_passes_fleet(props, observers, epoch,
                                        6 * 3600.0, coarse_step_s=60.0,
                                        min_elevation_deg=10.0)
        assert (cache.stats.grid_hits, cache.stats.grid_misses) \
            == (1, len(props))
        for n, prop in enumerate(props):
            for m, observer in enumerate(observers):
                assert fleet[n][m] == oracle_windows(
                    prop, observer, epoch, 6 * 3600.0, 60.0, 10.0)

    def test_single_pair_entry_points_agree(self):
        prop = _sat(0, (700.0, 60.0, 0.002, 1e-5, 200.0, 5.0, 250.5))
        observer = GeodeticPoint(-33.9, 151.2, 0.05)
        epoch = prop.tle.epoch
        expected = oracle_windows(prop, observer, epoch, 86400.0, 30.0,
                                  0.0)
        assert len(expected) > 2
        predictor = PassPredictor(prop, observer, 0.0)
        assert predictor.find_passes(epoch, 86400.0) == expected
        offsets = PassPredictor.coarse_offsets(86400.0, 30.0)
        elev = np.asarray(predictor.look_angles_at(epoch,
                                                   offsets).elevation_deg)
        assert predictor.windows_from_coarse(epoch, offsets,
                                             elev) == expected
