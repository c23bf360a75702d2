"""Tests for the shared beacon-train builder."""

import dataclasses

import numpy as np
import pytest

from satiot.constellations.catalog import (build_all_constellations,
                                           build_constellation)
from satiot.network.beacon import (BeaconTrain, build_beacon_train,
                                   build_beacon_trains)
from satiot.orbits.doppler import doppler_rate_hz_s, doppler_shift_hz
from satiot.orbits.frames import GeodeticPoint
from satiot.orbits.passes import (ContactWindow, PassPredictor,
                                  find_passes_fleet)

HK = GeodeticPoint(22.30, 114.17)
SVALBARD = GeodeticPoint(78.23, 15.39)
SYDNEY = GeodeticPoint(-33.87, 151.21)


@pytest.fixture(scope="module")
def pass_setup():
    constellation = build_constellation("tianqi")
    satellite = constellation.satellites[0]
    epoch = satellite.tle.epoch
    predictor = PassPredictor(satellite.propagator, HK)
    windows = predictor.find_passes(epoch, 86400.0)
    window = max(windows, key=lambda w: w.max_elevation_deg)
    return satellite, window, epoch


class TestBuildBeaconTrain:
    def test_times_within_window(self, pass_setup):
        satellite, window, epoch = pass_setup
        train = build_beacon_train(satellite, window, HK, epoch,
                                   np.random.default_rng(0))
        assert np.all(train.times_s >= window.rise_s)
        assert np.all(train.times_s < window.set_s)

    def test_periodicity(self, pass_setup):
        satellite, window, epoch = pass_setup
        train = build_beacon_train(satellite, window, HK, epoch,
                                   np.random.default_rng(0))
        period = satellite.radio.beacon_period_s
        np.testing.assert_allclose(np.diff(train.times_s), period)

    def test_geometry_lengths_match(self, pass_setup):
        satellite, window, epoch = pass_setup
        train = build_beacon_train(satellite, window, HK, epoch,
                                   np.random.default_rng(0))
        n = len(train)
        assert n > 10
        for field in ("elevation_deg", "range_km", "doppler_shift_hz",
                      "doppler_rate_hz_s"):
            assert len(getattr(train, field)) == n

    def test_elevation_positive_inside_window(self, pass_setup):
        satellite, window, epoch = pass_setup
        train = build_beacon_train(satellite, window, HK, epoch,
                                   np.random.default_rng(0))
        assert np.all(train.elevation_deg > -0.5)

    def test_doppler_sign_flip_at_culmination(self, pass_setup):
        satellite, window, epoch = pass_setup
        train = build_beacon_train(satellite, window, HK, epoch,
                                   np.random.default_rng(0))
        # Approaching first (positive shift), receding after.
        assert train.doppler_shift_hz[0] > 0.0
        assert train.doppler_shift_hz[-1] < 0.0

    def test_same_rng_same_train(self, pass_setup):
        satellite, window, epoch = pass_setup
        a = build_beacon_train(satellite, window, HK, epoch,
                               np.random.default_rng(7))
        b = build_beacon_train(satellite, window, HK, epoch,
                               np.random.default_rng(7))
        np.testing.assert_array_equal(a.times_s, b.times_s)

    def test_zero_length_window(self, pass_setup):
        satellite, window, epoch = pass_setup
        tiny = ContactWindow(rise_s=window.rise_s,
                             set_s=window.rise_s + 1.0,
                             culmination_s=window.rise_s + 0.5,
                             max_elevation_deg=0.1)
        train = build_beacon_train(satellite, tiny, HK, epoch,
                                   np.random.default_rng(3))
        assert len(train) <= 1


def reference_train(satellite, window, observer, epoch, rng, radio=None):
    """One pass at a time through a scalar look-angle call: the beacon
    train as it was built before the batched gather."""
    radio = radio or satellite.radio
    period = radio.beacon_period_s
    phase = float(rng.uniform(0.0, period))
    times = np.arange(window.rise_s + phase, window.set_s, period)
    if len(times) == 0:
        empty = np.empty(0)
        return BeaconTrain(satellite.norad_id, radio.frequency_hz,
                           *[empty] * 7)
    look = PassPredictor(satellite.propagator, observer).look_angles_at(
        epoch, times)
    range_rate = np.asarray(look.range_rate_km_s)
    rate = (doppler_rate_hz_s(range_rate, period, radio.frequency_hz)
            if len(times) >= 2 else np.zeros_like(times))
    return BeaconTrain(
        satellite.norad_id, radio.frequency_hz, times,
        np.asarray(look.elevation_deg), np.asarray(look.azimuth_deg),
        np.asarray(look.range_km), range_rate,
        np.asarray(doppler_shift_hz(range_rate, radio.frequency_hz)),
        np.asarray(rate))


FIELDS = [f.name for f in dataclasses.fields(BeaconTrain)]


@pytest.fixture(scope="module")
def mixed_passes():
    """Passes of every constellation over a northern, a polar and a
    southern observer, one satellite repeated, plus a radio override,
    an empty and a one-beacon train.  Each entry carries its seed."""
    constellations = build_all_constellations()
    satellites = [con.satellites[0] for con in constellations.values()]
    satellites.append(constellations["tianqi"].satellites[1])
    epoch = satellites[0].tle.epoch
    observers = [HK, SVALBARD, SYDNEY]
    per_sat = find_passes_fleet([s.propagator for s in satellites],
                                observers, epoch, 86400.0)
    passes = []
    for sat, rows in zip(satellites, per_sat):
        for observer, windows in zip(observers, rows):
            for window in windows[:2]:
                passes.append((sat, window, observer, None))
    # The same satellite again, later in the list.
    passes += [p for p in passes if p[0] is satellites[0]][:2]
    tianqi = satellites[0]
    window = passes[0][1]
    override = dataclasses.replace(tianqi.radio, beacon_period_s=7.5,
                                   frequency_hz=401.0e6)
    passes.append((tianqi, window, HK, override))
    period = tianqi.radio.beacon_period_s
    passes.append((tianqi, ContactWindow(window.rise_s, window.rise_s,
                                         window.rise_s, 0.0), HK, None))
    passes.append((tianqi, ContactWindow(
        window.rise_s, window.rise_s + period,
        window.rise_s + 0.5 * period, 1.0), SYDNEY, None))
    return epoch, [(seed,) + p for seed, p in enumerate(passes)]


class TestBatchAgainstPerPassOracle:
    def test_every_field_bit_identical(self, mixed_passes):
        epoch, passes = mixed_passes
        rngs = [np.random.default_rng(seed) for seed, *_ in passes]
        trains = build_beacon_trains(
            [(sat, window, obs, rng, radio) for (_, sat, window, obs, radio),
             rng in zip(passes, rngs)], epoch)
        assert len(trains) == len(passes)
        lengths = set()
        for (seed, sat, window, obs, radio), train, rng in zip(
                passes, trains, rngs):
            ref_rng = np.random.default_rng(seed)
            ref = reference_train(sat, window, obs, epoch, ref_rng, radio)
            lengths.add(min(len(ref), 2))
            for name in FIELDS:
                got, want = getattr(train, name), getattr(ref, name)
                assert np.asarray(got).dtype == np.asarray(want).dtype
                assert np.array_equal(got, want), (seed, name)
            # The batch leaves each generator where one pass leaves it.
            assert rng.random() == ref_rng.random()
        assert lengths == {0, 1, 2}
        heard = {(sat.constellation_name, obs)
                 for (_, sat, _, obs, _), train in zip(passes, trains)
                 if len(train)}
        assert len({name for name, _ in heard}) == 4
        assert {obs for _, obs in heard} == {HK, SVALBARD, SYDNEY}

    def test_one_pass_case_matches_batch(self, mixed_passes):
        epoch, passes = mixed_passes
        batch = build_beacon_trains(
            [(sat, window, obs, np.random.default_rng(seed), radio)
             for seed, sat, window, obs, radio in passes], epoch)
        for (seed, sat, window, obs, radio), train in zip(passes, batch):
            rng = np.random.default_rng(seed)
            one = build_beacon_train(sat, window, obs, epoch, rng, radio)
            for name in FIELDS:
                assert np.array_equal(getattr(one, name),
                                      getattr(train, name)), (seed, name)

    def test_radio_override_sets_period_and_carrier(self, mixed_passes):
        epoch, passes = mixed_passes
        seed, sat, window, obs, radio = next(p for p in passes if p[4])
        train = build_beacon_trains(
            [(sat, window, obs, np.random.default_rng(seed), radio)],
            epoch)[0]
        assert train.frequency_hz == radio.frequency_hz
        np.testing.assert_allclose(np.diff(train.times_s),
                                   radio.beacon_period_s)

    def test_no_passes(self, mixed_passes):
        epoch, _ = mixed_passes
        assert build_beacon_trains([], epoch) == []
