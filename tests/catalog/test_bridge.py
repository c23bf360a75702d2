"""Catalog → fleet bridge: selections, caching identity, constellations."""

from __future__ import annotations

import pytest

from satiot.catalog import (TleDb, TleNotFound, constellation_from_catalog,
                            fleet_passes, open_any_catalog, select_fleet,
                            shell_groups, synthesize_mega_constellation,
                            write_catalog)
from satiot.catalog.synth import MegaConstellationSpec
from satiot.constellations.shells import ShellSpec
from satiot.orbits.frames import GeodeticPoint
from satiot.orbits.passes import PassPredictor
from satiot.runtime.ephemeris_cache import (EphemerisCache,
                                            constellation_fingerprint)

SPEC = MegaConstellationSpec(
    name="MINI",
    shells=(ShellSpec("S1", count=8, altitude_min_km=540.0,
                      altitude_max_km=560.0, inclination_deg=53.0,
                      planes=4),
            ShellSpec("S2", count=4, altitude_min_km=600.0,
                      altitude_max_km=620.0, inclination_deg=97.5,
                      planes=2)),
    norad_base=61000)

HK = GeodeticPoint(22.3, 114.2, 0.0)
LONDON = GeodeticPoint(51.5, -0.1, 0.0)


@pytest.fixture(scope="module")
def db():
    store = TleDb()
    store.insert(synthesize_mega_constellation(SPEC, seed=3),
                 group_from_name=True)
    return store


class TestOpenAnyCatalog:
    def test_missing_path(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            open_any_catalog(tmp_path / "nope.3le")

    def test_text_file_loads_with_derived_groups(self, tmp_path, db):
        path = tmp_path / "mini.3le.gz"
        write_catalog([e.tle for e in db.get()], path)
        loaded = open_any_catalog(path)
        assert sorted(loaded.groups()) == ["MINI-S1", "MINI-S2"]
        loaded.close()

    def test_sqlite_file_detected_by_magic(self, tmp_path, db):
        path = tmp_path / "mini.db"
        with TleDb(path) as store:
            store.insert(db.get(), group_from_name=True)
        loaded = open_any_catalog(path)
        assert len(loaded) == 12
        loaded.close()


class TestFleetSelection:
    def test_whole_catalog_selection(self, db):
        selection = select_fleet(db)
        assert len(selection) == 12
        assert len(selection.propagators) == 12
        assert selection.groups[:2] == ("MINI-S1", "MINI-S1")
        assert shell_groups(selection) == {
            "MINI-S1": list(range(8)),
            "MINI-S2": list(range(8, 12))}

    def test_selector_subset(self, db):
        selection = select_fleet(db, "group:MINI-S2")
        assert [t.norad_id for t in selection.tles] == \
            [61008, 61009, 61010, 61011]

    def test_empty_selection_raises(self, db):
        with pytest.raises(TleNotFound):
            select_fleet(db, "group:NOPE")

    def test_fingerprint_stable_across_dump_ingest(self, tmp_path, db):
        """The cache identity survives dump → re-ingest (verbatim
        lines), so benchmark and serving share ephemeris entries."""
        selection = select_fleet(db)
        path = tmp_path / "dump.3le.gz"
        write_catalog([t for t in selection.tles], path)
        reloaded = select_fleet(path)
        assert reloaded.fingerprint == selection.fingerprint
        assert reloaded.fingerprint == \
            constellation_fingerprint(selection.tles)

    def test_epoch_is_newest_member_epoch(self, db):
        selection = select_fleet(db)
        assert selection.epoch.jd == \
            max(e.epoch_jd for e in db.get())


class TestFleetPasses:
    def test_bit_identical_to_per_satellite_path(self, db):
        selection = select_fleet(db)
        observers = [HK, LONDON]
        results = fleet_passes(selection, observers, 6 * 3600.0,
                               cache=False, coarse_step_s=60.0)
        assert len(results) == 12
        windows = 0
        for index in (0, 5, 11):
            prop = selection.propagators[index]
            for m, obs in enumerate(observers):
                reference = PassPredictor(
                    prop, obs, min_elevation_deg=10.0).find_passes(
                        selection.epoch, 6 * 3600.0,
                        coarse_step_s=60.0, refine="interp")
                assert list(results[index][m]) == reference
                windows += len(reference)
        assert windows > 0

    def test_cached_path_matches_and_hits(self, db):
        selection = select_fleet(db)
        cache = EphemerisCache()
        direct = fleet_passes(selection, [HK], 4 * 3600.0,
                              cache=False, coarse_step_s=60.0)
        warm = fleet_passes(selection, [HK], 4 * 3600.0,
                            cache=cache, coarse_step_s=60.0)
        again = fleet_passes(selection, [HK], 4 * 3600.0,
                             cache=cache, coarse_step_s=60.0)
        assert warm == direct
        assert again == direct
        assert cache.stats.hits > 0


class TestConstellationFromCatalog:
    def test_shells_reconstructed_from_groups(self, db):
        const = constellation_from_catalog(db, name="mini")
        assert const.name == "mini"
        assert len(const) == 12
        shells = {s.name: s for s in const.spec.shells}
        assert set(shells) == {"MINI-S1", "MINI-S2"}
        assert shells["MINI-S1"].count == 8
        assert 500.0 < shells["MINI-S1"].altitude_min_km < 580.0
        assert shells["MINI-S1"].inclination_deg == \
            pytest.approx(53.0, abs=0.5)
        assert {s.shell_name for s in const.satellites} == \
            {"MINI-S1", "MINI-S2"}

    def test_satellites_carry_default_radio(self, db):
        const = constellation_from_catalog(db)
        assert const.radio.frequency_hz == pytest.approx(401.0e6)
        assert all(s.radio is const.radio for s in const.satellites)

    def test_accepts_existing_selection(self, db):
        selection = select_fleet(db, "group:MINI-S2")
        const = constellation_from_catalog(selection, name="s2only")
        assert len(const) == 4

    def test_table3_constellation_round_trips_through_a_file(
            self, tmp_path):
        """``write_catalog`` plus ``constellation_from_catalog`` archive
        and rebuild a Table-3 constellation with its own radio."""
        import numpy as np

        from satiot.constellations.catalog import build_constellation
        from satiot.orbits.tle import format_tle

        original = build_constellation("pico")
        path = tmp_path / "pico.3le"
        assert write_catalog([s.tle for s in original], path) \
            == len(original)
        back = constellation_from_catalog(path, name="pico",
                                          radio=original.radio)
        assert [s.norad_id for s in back] == \
            [s.norad_id for s in original]
        assert [s.name for s in back] == [s.name for s in original]
        assert [format_tle(s.tle) for s in back] == \
            [format_tle(s.tle) for s in original]
        assert all(s.radio is original.radio for s in back.satellites)
        r, _ = back.satellites[0].propagator.propagate(3600.0)
        assert 6700.0 < np.linalg.norm(r) < 7200.0

        empty = tmp_path / "empty.3le"
        empty.write_text("\n")
        with pytest.raises(TleNotFound):
            constellation_from_catalog(empty, radio=original.radio)

    def test_presence_integration(self, db):
        """A catalog constellation plugs into the availability stack."""
        from satiot.core.availability import daily_presence_hours
        const = constellation_from_catalog(db)
        epoch = const.satellites[0].tle.epoch
        hours = daily_presence_hours(const, HK, epoch, days=0.25,
                                     min_elevation_deg=10.0)
        assert hours >= 0.0
