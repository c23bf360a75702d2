"""Tests for dataset archival in the SINet layout."""

import hashlib
import json

import pytest

from satiot.datasets import (DatasetManifest, export_dataset,
                             load_dataset, read_manifest)


class TestExportLoad:
    def test_roundtrip(self, passive_result_small, tmp_path):
        manifest = export_dataset(passive_result_small, tmp_path)
        assert manifest.total_traces == passive_result_small.total_traces
        assert set(manifest.sites) == {"HK"}

        loaded_manifest, datasets = load_dataset(tmp_path)
        assert loaded_manifest == manifest
        assert len(datasets["HK"]) == manifest.sites["HK"]

    def test_layout_on_disk(self, passive_result_small, tmp_path):
        export_dataset(passive_result_small, tmp_path, name="my-run")
        assert (tmp_path / "manifest.json").exists()
        assert (tmp_path / "HK" / "traces.csv").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["name"] == "my-run"
        assert manifest["seed"] == passive_result_small.config.seed

    def test_traces_sorted_by_time(self, passive_result_small, tmp_path):
        export_dataset(passive_result_small, tmp_path)
        _manifest, datasets = load_dataset(tmp_path)
        times = [t.time_s for t in datasets["HK"]]
        assert times == sorted(times)

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path)

    def test_count_mismatch_detected(self, passive_result_small,
                                     tmp_path):
        export_dataset(passive_result_small, tmp_path)
        # Corrupt the site file by truncating one line.
        csv_path = tmp_path / "HK" / "traces.csv"
        lines = csv_path.read_text().splitlines()
        csv_path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="manifest says"):
            load_dataset(tmp_path)

    def test_manifest_json_roundtrip(self):
        manifest = DatasetManifest(
            name="x", seed=1, days=2.0, sites={"HK": 10},
            constellations={"Tianqi": 22}, total_traces=10)
        assert DatasetManifest.from_json(manifest.to_json()) == manifest


class TestReExport:
    def test_reexport_replaces_the_earlier_archive(self, tmp_path):
        """Exporting HK as JSONL over an HK+SYD CSV archive leaves the
        files of a fresh HK JSONL export, plus any file the old
        manifest did not name."""
        from satiot.core.campaign import (PassiveCampaign,
                                          PassiveCampaignConfig)

        def run(sites):
            return PassiveCampaign(PassiveCampaignConfig(
                sites=sites, days=0.05, seed=1)).run()

        def tree(root):
            return {path.relative_to(root).as_posix():
                    hashlib.sha256(path.read_bytes()).hexdigest()
                    for path in root.rglob("*") if path.is_file()}

        hk = run(("HK",))
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        export_dataset(run(("HK", "SYD")), reused)
        (reused / "notes.txt").write_text("kept")
        manifest = export_dataset(hk, reused, trace_format="jsonl")
        export_dataset(hk, fresh, trace_format="jsonl")

        assert tree(reused) == {**tree(fresh),
                                "notes.txt": tree(reused)["notes.txt"]}
        loaded, datasets = load_dataset(reused)
        assert loaded == manifest
        assert list(datasets["HK"]) == list(load_dataset(fresh)[1]["HK"])

    @pytest.mark.parametrize("old", ["{not json", "[]", '{"sites": 5}'])
    def test_unreadable_old_manifest_is_replaced(
            self, passive_result_small, tmp_path, old):
        (tmp_path / "manifest.json").write_text(old)
        manifest = export_dataset(passive_result_small, tmp_path)
        assert read_manifest(tmp_path) == manifest


class TestReadManifest:
    def test_reads_only_the_manifest(self, passive_result_small,
                                     tmp_path):
        written = export_dataset(passive_result_small, tmp_path)
        # Corrupt the trace file: a manifest-only read must not care.
        (tmp_path / "HK" / "traces.csv").write_text("garbage")
        assert read_manifest(tmp_path) == written

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest.json"):
            read_manifest(tmp_path)


class TestStreamingTextExport:
    """The block-streaming CSV/JSONL export is byte-identical to a
    consolidated sort-then-save."""

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_byte_identical_to_consolidated_path(
            self, passive_result_small, tmp_path, fmt):
        export_dataset(passive_result_small, tmp_path / "streamed",
                       trace_format=fmt)
        reference = tmp_path / "reference"
        for code in passive_result_small.site_results:
            site_dir = reference / code
            site_dir.mkdir(parents=True)
            dataset = passive_result_small.dataset.by_site(code) \
                .sorted_by_time()
            dataset.save(site_dir / f"traces.{fmt}", trace_format=fmt)
        for code in passive_result_small.site_results:
            streamed = tmp_path / "streamed" / code / f"traces.{fmt}"
            expected = reference / code / f"traces.{fmt}"
            assert hashlib.sha256(streamed.read_bytes()).hexdigest() \
                == hashlib.sha256(expected.read_bytes()).hexdigest()

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_streamed_archive_loads_with_exact_counts(
            self, passive_result_small, tmp_path, fmt):
        export_dataset(passive_result_small, tmp_path, trace_format=fmt)
        manifest, datasets = load_dataset(tmp_path)
        assert sum(len(d) for d in datasets.values()) \
            == passive_result_small.total_traces
        assert manifest.trace_format == fmt
