"""Dataset CLI error paths: exit code 2 + clear message, no traceback."""

from __future__ import annotations

import json

import pytest

from satiot.cli import main


class TestDatasetInfoErrors:
    def test_missing_archive_exits_2(self, tmp_path, capsys):
        target = tmp_path / "does-not-exist"
        assert main(["dataset", "info", str(target)]) == 2
        err = capsys.readouterr().err
        assert "error: cannot read dataset archive" in err
        assert str(target) in err

    def test_corrupt_manifest_exits_2(self, tmp_path, capsys):
        (tmp_path / "manifest.json").write_text("{not json!")
        assert main(["dataset", "info", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "error: cannot read dataset archive" in err

    def test_malformed_manifest_fields_exit_2(self, tmp_path, capsys):
        (tmp_path / "manifest.json").write_text(
            json.dumps({"unexpected_key": 1}))
        assert main(["dataset", "info", str(tmp_path)]) == 2
        assert "error: cannot read" in capsys.readouterr().err

    def test_manifest_pointing_at_missing_traces_exits_2(
            self, tmp_path, capsys):
        (tmp_path / "manifest.json").write_text(json.dumps({
            "name": "x", "seed": 1, "days": 1.0,
            "trace_format": "csv", "total_traces": 3,
            "sites": {"HK": 3}}))
        assert main(["dataset", "info", str(tmp_path)]) == 2
        assert "error: cannot read" in capsys.readouterr().err


class TestDatasetExportErrors:
    def test_unwritable_root_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory must go")
        assert main(["dataset", "export", str(blocker),
                     "--sites", "HK", "--days", "0.05"]) == 2
        err = capsys.readouterr().err
        assert "error: cannot write dataset archive" in err
        assert str(blocker) in err

    def test_export_then_info_roundtrip_still_works(self, tmp_path,
                                                    capsys):
        """The error wrapping must not break the happy path."""
        root = tmp_path / "archive"
        assert main(["dataset", "export", str(root), "--sites", "HK",
                     "--days", "0.05"]) == 0
        capsys.readouterr()
        assert main(["dataset", "info", str(root)]) == 0
        out = capsys.readouterr().out
        assert "Dataset archive" in out


class TestPassiveWriteErrors:
    """``passive`` and ``dataset export`` refuse an output path they
    cannot write with exit 2 — before the campaign runs."""

    def _run(self, capsys, monkeypatch, *argv):
        from satiot.core.campaign import PassiveCampaign

        def never(self):
            raise AssertionError("the campaign ran before the path check")

        monkeypatch.setattr(PassiveCampaign, "run", never)
        code = main([*argv, "--sites", "HK", "--days", "0.05"])
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        assert out == ""
        return code, err

    def test_out_into_missing_directory_exits_2(self, tmp_path, capsys,
                                                monkeypatch):
        target = tmp_path / "missing" / "traces.csv"
        code, err = self._run(capsys, monkeypatch, "passive",
                              "--out", str(target))
        assert code == 2
        assert "error: cannot write" in err
        assert str(target) in err

    def test_spill_onto_regular_file_exits_2(self, tmp_path, capsys,
                                             monkeypatch):
        target = tmp_path / "not-a-dir"
        target.write_text("a file where a directory must go")
        code, err = self._run(capsys, monkeypatch, "passive",
                              "--spill", str(target))
        assert code == 2
        assert "error: cannot write" in err
        assert str(target) in err

    def test_npz_out_exits_2_pointing_at_spill(self, tmp_path, capsys,
                                               monkeypatch):
        target = tmp_path / "traces.npz"
        code, err = self._run(capsys, monkeypatch, "passive",
                              "--out", str(target))
        assert code == 2
        assert str(target) in err
        assert "--spill" in err
        assert not target.exists()

    @pytest.mark.parametrize("flag", ["root", "root-below", "--spill"])
    def test_export_onto_regular_file_exits_2(self, tmp_path, capsys,
                                              monkeypatch, flag):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory must go")
        if flag == "root":
            argv = ["dataset", "export", str(blocker)]
        elif flag == "root-below":
            argv = ["dataset", "export", str(blocker / "arch")]
        else:
            argv = ["dataset", "export", str(tmp_path / "arch"),
                    "--spill", str(blocker)]
        code, err = self._run(capsys, monkeypatch, *argv)
        assert code == 2
        assert "error: cannot write dataset archive" in err
        assert str(blocker) in err


def _spill_archive(root):
    """A tiny sharded satiot-traces-v2 archive."""
    from satiot.streams.spill import ShardSpillWriter
    from tests.streams.conftest import make_block
    writer = ShardSpillWriter(root, rows_per_shard=20, fingerprint="cli")
    writer.write(make_block(50, seed=30))
    writer.finalize(meta={"engine": "test"})


class TestStreamArchiveInfo:
    def test_info_is_manifest_only(self, tmp_path, capsys):
        _spill_archive(tmp_path)
        # O(1) contract: info must not read the (corrupted) shards.
        for shard in (tmp_path / "shards").glob("shard-*.npz"):
            shard.write_bytes(b"garbage")
        assert main(["dataset", "info", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Dataset archive" in out
        assert "satiot-traces-v2" in out
        assert "shard-000000.npz" in out

    def test_verify_passes_on_intact_archive(self, tmp_path, capsys):
        _spill_archive(tmp_path)
        assert main(["dataset", "info", str(tmp_path),
                     "--verify"]) == 0
        assert "checksums OK" in capsys.readouterr().out

    def test_truncated_shard_exits_2_naming_file(self, tmp_path,
                                                 capsys):
        _spill_archive(tmp_path)
        shard = sorted((tmp_path / "shards").glob("shard-*.npz"))[1]
        shard.write_bytes(shard.read_bytes()[:80])
        assert main(["dataset", "info", str(tmp_path),
                     "--verify"]) == 2
        err = capsys.readouterr().err
        assert "error: cannot read dataset archive" in err
        assert shard.name in err
        assert "Traceback" not in err

    def test_corrupt_stream_manifest_exits_2(self, tmp_path, capsys):
        _spill_archive(tmp_path)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(
            {"format": "satiot-traces-v2"}))  # required keys missing
        assert main(["dataset", "info", str(tmp_path)]) == 2
        assert "error: cannot read" in capsys.readouterr().err


class TestRetiredNpzManifest:
    def test_verify_names_v1_and_spill(self, tmp_path, capsys):
        (tmp_path / "manifest.json").write_text(json.dumps({
            "name": "x", "seed": 1, "days": 1.0, "constellations": {},
            "trace_format": "npz", "total_traces": 3,
            "sites": {"HK": 3}}))
        (tmp_path / "HK").mkdir()
        (tmp_path / "HK" / "traces.npz").write_bytes(b"PK old archive")
        assert main(["dataset", "info", str(tmp_path), "--verify"]) == 2
        err = capsys.readouterr().err
        assert "v1" in err
        assert "--spill" in err
        assert "Traceback" not in err


class TestSinetInfoIsManifestOnly:
    def test_info_never_parses_trace_files(self, tmp_path, capsys):
        assert main(["dataset", "export", str(tmp_path), "--sites",
                     "HK", "--days", "0.05"]) == 0
        capsys.readouterr()
        # Corrupt the rows; a manifest-plus-stat read must not notice.
        (tmp_path / "HK" / "traces.csv").write_text("not,a,trace\n")
        assert main(["dataset", "info", str(tmp_path)]) == 0
        assert "Dataset archive" in capsys.readouterr().out

    def test_verify_catches_row_count_mismatch(self, tmp_path, capsys):
        assert main(["dataset", "export", str(tmp_path), "--sites",
                     "HK", "--days", "0.05"]) == 0
        capsys.readouterr()
        csv_path = tmp_path / "HK" / "traces.csv"
        lines = csv_path.read_text().splitlines()
        csv_path.write_text("\n".join(lines[:-1]) + "\n")
        assert main(["dataset", "info", str(tmp_path),
                     "--verify"]) == 2
        assert "manifest says" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["dataset", "info", "/nonexistent/archive"],
])
def test_no_traceback_on_stderr(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
