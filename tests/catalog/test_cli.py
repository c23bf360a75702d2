"""`satiot catalog` / `satiot tle --format` CLI end-to-end tests."""

from __future__ import annotations

import gzip

import pytest

from satiot.catalog import (TleDb, read_catalog,
                            synthesize_mega_constellation, write_catalog)
from satiot.catalog.synth import MegaConstellationSpec
from satiot.cli import main
from satiot.constellations.shells import ShellSpec
from satiot.orbits.tle import checksum, format_tle

from tests.conftest import make_test_tle

SPEC = MegaConstellationSpec(
    name="MINI",
    shells=(ShellSpec("S1", count=4, altitude_min_km=540.0,
                      altitude_max_km=560.0, inclination_deg=53.0,
                      planes=2),),
    norad_base=62000)


@pytest.fixture()
def mini_file(tmp_path):
    path = tmp_path / "mini.3le.gz"
    write_catalog(synthesize_mega_constellation(SPEC, seed=5), path)
    return path


@pytest.fixture()
def mini_db(tmp_path, mini_file):
    path = tmp_path / "mini.db"
    assert main(["catalog", "insert", str(path), str(mini_file),
                 "--group-from-name"]) == 0
    return path


class TestTleFormat:
    def test_default_3le_output(self, capsys):
        assert main(["tle", "tianqi"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) % 3 == 0
        assert lines[0].startswith("Tianqi-")
        assert lines[1].startswith("1 ") and lines[2].startswith("2 ")

    def test_2le_output(self, capsys):
        assert main(["tle", "tianqi", "--format", "2le"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) % 2 == 0
        assert all(line[0] in "12" for line in lines)

    def test_out_file_reingests(self, tmp_path, capsys):
        out = tmp_path / "tq.3le.gz"
        assert main(["tle", "tianqi", "--out", str(out)]) == 0
        assert "wrote 22 element sets" in capsys.readouterr().out
        entries = read_catalog(out)
        assert len(entries) == 22
        assert entries[0].name.startswith("Tianqi-")


class TestCatalogVerbs:
    def test_insert_reports_stats(self, tmp_path, mini_file, capsys):
        db = tmp_path / "cat.db"
        assert main(["catalog", "insert", str(db), str(mini_file),
                     "--group-from-name"]) == 0
        assert "4 element sets inserted" in capsys.readouterr().out
        assert main(["catalog", "insert", str(db), str(mini_file),
                     "--group-from-name"]) == 0
        assert "4 duplicates skipped" in capsys.readouterr().out

    def test_insert_corrupt_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.3le"
        bad.write_text("MINI-S1-01\n1 garbage\n")
        code = main(["catalog", "insert", str(tmp_path / "c.db"),
                     str(bad)])
        assert code == 2
        assert "error: cannot ingest" in capsys.readouterr().err
        # Checksummed, but the mean-motion field reads nan.
        line1, line2 = format_tle(make_test_tle())
        line2 = line2[:52] + "nan".rjust(11) + line2[63:68]
        bad.write_text(f"NAN-SAT\n{line1}\n{line2}{checksum(line2)}\n")
        code = main(["catalog", "insert", str(tmp_path / "c.db"),
                     str(bad)])
        assert code == 2
        assert ":2: non-finite mean_motion_rev_day" in capsys.readouterr().err

    def test_get_table_and_3le(self, mini_db, capsys):
        assert main(["catalog", "get", str(mini_db),
                     "group:MINI-S1"]) == 0
        out = capsys.readouterr().out
        assert "4 element set(s)" in out and "62000" in out
        assert main(["catalog", "get", str(mini_db), "62001",
                     "--format", "3le"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "MINI-S1-02"

    def test_get_works_on_plain_files_too(self, mini_file, capsys):
        assert main(["catalog", "get", str(mini_file),
                     "name:MINI-S1-03"]) == 0
        assert "62002" in capsys.readouterr().out

    def test_get_unknown_selector_exits_2(self, mini_db, capsys):
        assert main(["catalog", "get", str(mini_db), "99999"]) == 2
        assert "matches no object" in capsys.readouterr().err

    def test_history_and_find_and_stats(self, mini_db, capsys):
        assert main(["catalog", "history", str(mini_db),
                     "group:MINI-S1", "--last", "1"]) == 0
        assert "epoch-ordered" in capsys.readouterr().out
        assert main(["catalog", "find", str(mini_db), "s1-0"]) == 0
        assert "4 match(es)" in capsys.readouterr().out
        assert main(["catalog", "stats", str(mini_db)]) == 0
        out = capsys.readouterr().out
        assert "objects           : 4" in out
        assert "MINI-S1" in out

    def test_missing_db_exits_2(self, tmp_path, capsys):
        assert main(["catalog", "stats",
                     str(tmp_path / "none.db")]) == 2
        assert "error" in capsys.readouterr().err


class TestSynth:
    def test_synth_to_file_and_reingest(self, tmp_path, capsys):
        out = tmp_path / "mega.3le.gz"
        assert main(["catalog", "synth", str(out)]) == 0
        assert "5000 element sets" in capsys.readouterr().out
        with gzip.open(out, "rt", encoding="ascii") as fh:
            assert fh.readline().strip() == "MEGA-SHELL-A-0001"

    def test_synth_seed_matches_fixture(self, tmp_path):
        from .util import FIXTURE_PATH
        out = tmp_path / "mega.3le.gz"
        assert main(["--seed", "2025", "catalog", "synth",
                     str(out)]) == 0
        assert out.read_bytes() == FIXTURE_PATH.read_bytes()

    def test_synth_to_sqlite(self, tmp_path, capsys):
        out = tmp_path / "mega.db"
        assert main(["catalog", "synth", str(out)]) == 0
        assert "into" in capsys.readouterr().out
        with TleDb(out) as db:
            stats = db.stats()
            assert stats.objects == 5000
            assert len(stats.groups) == 5
