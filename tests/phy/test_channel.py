"""Tests for the stochastic DtS channel."""

import numpy as np
import pytest

from satiot.phy.channel import (ChannelParams, DtSChannel, PacketSamples,
                                ar1_shadowing_db)
from satiot.phy.link_budget import LinkBudget
from satiot.phy.lora import LoRaModulation


@pytest.fixture
def channel():
    budget = LinkBudget(eirp_dbm=16.0, frequency_hz=400.45e6)
    modulation = LoRaModulation(spreading_factor=10)
    return DtSChannel(budget, modulation)


def simulate(channel, n=200, elevation=45.0, range_km=1200.0, seed=0,
             raining=False, params=None):
    if params is not None:
        channel = DtSChannel(channel.budget, channel.modulation, params)
    rng = np.random.default_rng(seed)
    times = np.arange(n) * 5.0
    return channel.simulate_packets(
        times_s=times,
        elevation_deg=np.full(n, elevation),
        range_km=np.full(n, range_km),
        doppler_shift_hz=np.zeros(n),
        doppler_rate_hz_s=np.zeros(n),
        payload_bytes=24, rng=rng,
        rx_gain_dbi=2.0, raining=raining)


def _ar1_numpy_scalars(times_s, sigma_db, correlation_time_s, rng):
    """Reference: the AR(1) recurrence stepped through NumPy scalars."""
    t = np.asarray(times_s, dtype=float)
    n = t.shape[0]
    out = np.empty(n)
    if n == 0:
        return out
    out[0] = rng.normal(0.0, sigma_db)
    if n == 1:
        return out
    rho = np.exp(-np.diff(t) / correlation_time_s)
    innov = rng.normal(0.0, 1.0, size=n - 1) * sigma_db * np.sqrt(1 - rho**2)
    for i in range(1, n):
        out[i] = rho[i - 1] * out[i - 1] + innov[i - 1]
    return out


class TestAr1Shadowing:
    def test_bit_identical_to_numpy_scalar_recurrence(self):
        gen = np.random.default_rng(2025)
        series = [np.array([]), np.array([3.0]), np.array([3.0, 3.0]),
                  np.array([0.0, 7.5])]
        for n in gen.integers(0, 500, size=60).tolist():
            gaps = gen.exponential(5.0, size=n)
            gaps[gen.random(n) < 0.1] = 0.0    # repeated timestamps
            series.append(gen.uniform(0.0, 1e5) + np.cumsum(gaps))
        for seed, t in enumerate(series):
            sigma = float(gen.uniform(0.0, 8.0))
            tau = float(gen.uniform(0.5, 100.0))
            got = ar1_shadowing_db(t, sigma, tau,
                                   np.random.default_rng(seed))
            want = _ar1_numpy_scalars(t, sigma, tau,
                                      np.random.default_rng(seed))
            assert got.tobytes() == want.tobytes(), (seed, t.size)

    def test_stationary_sigma(self):
        rng = np.random.default_rng(1)
        t = np.arange(20000) * 5.0
        x = ar1_shadowing_db(t, 4.0, 20.0, rng)
        assert np.std(x) == pytest.approx(4.0, rel=0.05)

    def test_correlation_decays(self):
        rng = np.random.default_rng(2)
        t = np.arange(50000) * 1.0
        x = ar1_shadowing_db(t, 4.0, 20.0, rng)
        lag1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        lag100 = np.corrcoef(x[:-100], x[100:])[0, 1]
        assert lag1 == pytest.approx(np.exp(-1 / 20.0), abs=0.02)
        assert abs(lag100) < 0.1

    def test_empty_and_single(self):
        rng = np.random.default_rng(3)
        assert len(ar1_shadowing_db(np.array([]), 4.0, 20.0, rng)) == 0
        assert len(ar1_shadowing_db(np.array([0.0]), 4.0, 20.0, rng)) == 1

    def test_decreasing_times_raise(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            ar1_shadowing_db(np.array([10.0, 5.0]), 4.0, 20.0, rng)

    def test_invalid_params(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            ar1_shadowing_db(np.array([0.0, 1.0]), -1.0, 20.0, rng)
        with pytest.raises(ValueError):
            ar1_shadowing_db(np.array([0.0, 1.0]), 1.0, 0.0, rng)


class TestChannelParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(shadowing_sigma_db=-1.0)
        with pytest.raises(ValueError):
            ChannelParams(per_slope_db=0.0)
        with pytest.raises(ValueError):
            ChannelParams(shadowing_correlation_s=0.0)


class TestSimulatePackets:
    def test_output_shapes(self, channel):
        samples = simulate(channel, n=50)
        assert isinstance(samples, PacketSamples)
        assert len(samples) == 50
        assert samples.received.dtype == bool

    def test_empty_input(self, channel):
        rng = np.random.default_rng(0)
        empty = np.array([])
        samples = channel.simulate_packets(empty, empty, empty, empty,
                                           empty, 24, rng)
        assert len(samples) == 0
        assert samples.reception_rate == 0.0

    def test_deterministic_given_seed(self, channel):
        a = simulate(channel, seed=7)
        b = simulate(channel, seed=7)
        np.testing.assert_array_equal(a.received, b.received)
        np.testing.assert_allclose(a.rssi_dbm, b.rssi_dbm)

    def test_high_elevation_beats_horizon(self, channel):
        # Average over pass realisations: overhead geometry decodes far
        # more often than horizon geometry.
        no_pass_fading = ChannelParams(pass_sigma_db=0.0)
        high = np.mean([simulate(channel, elevation=70.0, range_km=900.0,
                                 seed=s, params=no_pass_fading
                                 ).reception_rate
                        for s in range(10)])
        low = np.mean([simulate(channel, elevation=2.0, range_km=3300.0,
                                seed=s, params=no_pass_fading
                                ).reception_rate
                       for s in range(10)])
        assert high > 0.8
        assert low < 0.1

    def test_rain_hurts(self, channel):
        no_pass_fading = ChannelParams(pass_sigma_db=0.0)
        dry = np.mean([simulate(channel, elevation=25.0, range_km=1700.0,
                                seed=s, raining=False,
                                params=no_pass_fading).reception_rate
                       for s in range(20)])
        wet = np.mean([simulate(channel, elevation=25.0, range_km=1700.0,
                                seed=s, raining=True,
                                params=no_pass_fading).reception_rate
                       for s in range(20)])
        assert wet < dry

    def test_rssi_in_paper_band(self, channel):
        samples = simulate(channel, n=500, elevation=30.0, range_km=1500.0)
        assert -150.0 < np.min(samples.rssi_dbm)
        assert np.max(samples.rssi_dbm) < -95.0


class TestDopplerPenalty:
    def test_zero_rate_no_penalty(self, channel):
        assert channel.doppler_penalty_db(0.0, 0.4) == 0.0

    def test_penalty_capped(self, channel):
        assert channel.doppler_penalty_db(1e6, 0.4) \
            == channel.params.max_doppler_penalty_db

    def test_monotonic(self, channel):
        a = channel.doppler_penalty_db(50.0, 0.4)
        b = channel.doppler_penalty_db(150.0, 0.4)
        assert b >= a
