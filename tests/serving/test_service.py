"""ConstellationService tests: validation, payloads, batch grouping."""

from __future__ import annotations

import numpy as np
import pytest

from satiot.serving import (CompareRequest, ConstellationService,
                            LinkBudgetRequest, PassesRequest,
                            PresenceRequest)

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


@pytest.fixture(scope="module")
def service():
    return ConstellationService(coarse_step_s=60.0)


HK = {"lat": 22.3, "lon": 114.2}


class TestRequestValidation:
    def test_defaults(self):
        request = PassesRequest.from_params(dict(HK))
        assert request.horizon_s == 86400.0
        assert request.min_elevation_deg == 10.0
        assert request.constellation == "tianqi"

    def test_missing_location_rejected(self):
        with pytest.raises(ValueError, match="lat"):
            PassesRequest.from_params({"lon": 1.0})

    @pytest.mark.parametrize("overrides", [
        {"lat": 91.0}, {"lon": -999}, {"alt_km": 99},
        {"horizon_s": 0}, {"horizon_s": 1e9},
        {"min_elevation_deg": 95}, {"max_passes": -1},
        {"constellation": "starlink"}, {"lat": "abc"},
    ])
    def test_bad_parameters_rejected(self, overrides):
        params = dict(HK)
        params.update(overrides)
        with pytest.raises(ValueError):
            PassesRequest.from_params(params)

    @pytest.mark.parametrize("mask", [-8.0, -5.01, 90.0, "nan"])
    def test_pass_endpoints_take_only_search_masks(self, mask):
        # A mask the pass search refuses is a 400 at parse time, never
        # a failed micro-batch that would take its batch-mates along.
        for request_type in (PassesRequest, PresenceRequest,
                             CompareRequest):
            with pytest.raises(ValueError, match="min_elevation_deg"):
                request_type.from_params({**HK,
                                          "min_elevation_deg": mask})
        # The link budget filters elevations itself: no pass search.
        request = LinkBudgetRequest.from_params(
            {**HK, "min_elevation_deg": -8.0})
        assert request.min_elevation_deg == -8.0

    def test_link_budget_validation(self):
        with pytest.raises(ValueError):
            LinkBudgetRequest.from_params({**HK,
                                           "spreading_factor": 4})
        with pytest.raises(ValueError):
            LinkBudgetRequest.from_params({**HK, "t_offset_s": -1})
        request = LinkBudgetRequest.from_params(
            {**HK, "raining": "true", "spreading_factor": 12})
        assert request.raining is True
        assert request.spreading_factor == 12

    def test_string_params_coerced(self):
        request = PresenceRequest.from_params(
            {"lat": "22.3", "lon": "114.2", "horizon_s": "3600"})
        assert request.horizon_s == 3600.0

    def test_cache_key_quantizes_location(self):
        a = PassesRequest.from_params({"lat": 22.3001, "lon": 114.2004})
        b = PassesRequest.from_params({"lat": 22.3049, "lon": 114.1951})
        assert a.cache_key(decimals=2) == b.cache_key(decimals=2)
        assert a.cache_key(decimals=4) != b.cache_key(decimals=4)


class TestPasses:
    def test_payload_shape_and_ordering(self, service):
        request = PassesRequest.from_params(
            {**HK, "horizon_s": 6 * 3600.0})
        [payload] = service.passes_batch([request])
        assert payload["constellation"] == "Tianqi"
        assert payload["count"] == len(payload["passes"])
        rises = [p["rise_s"] for p in payload["passes"]]
        assert rises == sorted(rises)
        if payload["passes"]:
            assert payload["next_pass"] == payload["passes"][0]
            first = payload["passes"][0]
            assert first["set_s"] > first["rise_s"]
            assert first["max_elevation_deg"] >= 10.0 - 0.5

    def test_max_passes_truncates(self, service):
        request = PassesRequest.from_params(
            {**HK, "horizon_s": 86400.0, "max_passes": 2})
        [payload] = service.passes_batch([request])
        assert payload["count"] <= 2

    def test_batch_identical_to_serial(self, service):
        """The grouped multi-observer path returns exactly what each
        request would get on its own — the serving bit-identity check."""
        params = [{**HK}, {"lat": -33.9, "lon": 151.2},
                  {"lat": 51.5, "lon": -0.1}]
        requests = [PassesRequest.from_params(
            {**p, "horizon_s": 6 * 3600.0}) for p in params]
        batched = service.passes_batch(requests)
        for request, together in zip(requests, batched):
            [alone] = service.passes_batch([request])
            assert alone == together

    def test_mixed_groups_keep_request_order(self, service):
        requests = [
            PassesRequest.from_params({**HK, "horizon_s": 3600.0}),
            PassesRequest.from_params(
                {"lat": -33.9, "lon": 151.2, "horizon_s": 7200.0}),
            PassesRequest.from_params(
                {"lat": 51.5, "lon": -0.1, "horizon_s": 3600.0}),
        ]
        results = service.passes_batch(requests)
        assert [r["horizon_s"] for r in results] == \
            [3600.0, 7200.0, 3600.0]
        assert [r["site"]["latitude_deg"] for r in results] == \
            [22.3, -33.9, 51.5]

    def test_bad_mask_fails_alone_and_coalesced(self, service):
        # Below the parser: the lone-observer and fleet searches refuse
        # the same mask, so the outcome never depends on batch-mates.
        alone = [PassesRequest(22.3, 114.2, horizon_s=3600.0,
                               min_elevation_deg=-8.0)]
        coalesced = alone + [PassesRequest(40.0, 116.4, horizon_s=3600.0,
                                           min_elevation_deg=-8.0)]
        for batch in (alone, coalesced):
            with pytest.raises(ValueError, match="min_elevation_deg"):
                service.passes_batch(batch)


class TestPresence:
    def test_statistics_are_consistent(self, service):
        request = PresenceRequest.from_params(
            {**HK, "horizon_s": 12 * 3600.0, "min_elevation_deg": 10})
        [payload] = service.presence_batch([request])
        assert 0.0 <= payload["coverage_fraction"] <= 1.0
        assert payload["covered_s"] == pytest.approx(
            payload["coverage_fraction"] * payload["horizon_s"],
            rel=1e-4)
        assert payload["windows"] <= payload["raw_passes"]
        if payload["windows"]:
            assert payload["mean_window_s"] > 0
        assert payload["max_gap_s"] <= payload["horizon_s"]

    def test_tighter_mask_reduces_coverage(self, service):
        low = PresenceRequest.from_params(
            {**HK, "horizon_s": 12 * 3600.0, "min_elevation_deg": 5})
        high = PresenceRequest.from_params(
            {**HK, "horizon_s": 12 * 3600.0, "min_elevation_deg": 40})
        [low_p], [high_p] = (service.presence_batch([low]),
                             service.presence_batch([high]))
        assert high_p["coverage_fraction"] <= low_p["coverage_fraction"]


class TestLinkBudget:
    def test_payload_physics(self, service):
        request = LinkBudgetRequest.from_params(
            {**HK, "t_offset_s": 1200.0, "min_elevation_deg": 0.0})
        [payload] = service.link_budget_batch([request])
        assert payload["spreading_factor"] == 10  # tianqi default
        assert payload["sensitivity_dbm"] < -120
        assert payload["airtime_s"] > 0
        assert payload["visible_count"] == len(payload["satellites"])
        for entry in payload["satellites"]:
            assert entry["elevation_deg"] >= 0.0
            assert entry["range_km"] > 400
            assert entry["rssi_dbm"] < -80
            assert entry["link_margin_db"] == pytest.approx(
                entry["rssi_dbm"] - payload["sensitivity_dbm"],
                abs=2e-3)
            assert abs(entry["doppler_hz"]) < 12000
        if payload["satellites"]:
            rssi = [e["rssi_dbm"] for e in payload["satellites"]]
            assert rssi == sorted(rssi, reverse=True)
            assert payload["best"] == payload["satellites"][0]

    def test_rain_reduces_rssi(self, service):
        base = {**HK, "t_offset_s": 1200.0, "min_elevation_deg": 0.0}
        [dry] = service.link_budget_batch(
            [LinkBudgetRequest.from_params(base)])
        [wet] = service.link_budget_batch(
            [LinkBudgetRequest.from_params({**base, "raining": True})])
        assert dry["visible_count"] == wet["visible_count"]
        for d, w in zip(dry["satellites"], wet["satellites"]):
            assert w["rssi_dbm"] == pytest.approx(d["rssi_dbm"] - 3.0,
                                                  abs=1e-6)

    def test_batch_identical_to_serial(self, service):
        requests = [LinkBudgetRequest.from_params(
            {"lat": float(lat), "lon": float(lon),
             "t_offset_s": 600.0, "min_elevation_deg": -5.0})
            for lat, lon in [(22.3, 114.2), (-33.9, 151.2),
                             (51.5, -0.1), (0.0, 0.0)]]
        batched = service.link_budget_batch(requests)
        for request, together in zip(requests, batched):
            [alone] = service.link_budget_batch([request])
            assert alone == together

    def test_unknown_constellation_is_service_error(self, service):
        with pytest.raises(ValueError):
            service.constellation("starlink")

    def test_empty_sky_at_high_mask(self, service):
        request = LinkBudgetRequest.from_params(
            {**HK, "t_offset_s": 0.0, "min_elevation_deg": 89.0})
        [payload] = service.link_budget_batch([request])
        assert payload["visible_count"] == 0
        assert payload["best"] is None


def test_numpy_scalars_not_leaked(service):
    """Payloads must be plain-JSON serializable (no numpy types)."""
    import json
    request = PassesRequest.from_params({**HK, "horizon_s": 3600.0})
    [payload] = service.passes_batch([request])
    json.dumps(payload)  # raises TypeError on numpy leakage
    lb = LinkBudgetRequest.from_params({**HK, "t_offset_s": 900.0})
    [lb_payload] = service.link_budget_batch([lb])
    json.dumps(lb_payload)
    assert isinstance(lb_payload["visible_count"], int)
    assert not isinstance(np.float64(1.0), type(None))  # sanity
