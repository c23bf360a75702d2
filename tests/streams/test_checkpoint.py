"""Checkpoint persistence: exact round trips, fingerprint safety."""

from __future__ import annotations

import json

import pytest

from satiot.core.contacts import ContactWindowStats
from satiot.core.longitudinal import WeeklySample
from satiot.streams.checkpoint import (CHECKPOINT_FORMAT, CHECKPOINT_NAME,
                                       campaign_fingerprint,
                                       clear_checkpoint, load_checkpoint,
                                       sample_from_state, sample_to_state,
                                       save_checkpoint)


def make_sample(week: int = 2) -> WeeklySample:
    stats = ContactWindowStats(
        span_s=86400.0,
        theoretical_durations_s=[600.5, 481.25],
        effective_durations_s=[55.125, 0.1],
        theoretical_intervals_s=[(0.0, 600.5), (1000.0, 1481.25)],
        effective_intervals_s=[(10.0, 65.125)],
        theoretical_daily_hours=0.30048611111,
        effective_daily_hours=0.015340277,
    )
    return WeeklySample(week=week, start_day_offset=week * 7.0,
                        traces=123, stats_by_constellation={"tianqi": stats})


class TestFingerprint:
    def test_stable_and_key_order_insensitive(self):
        a = campaign_fingerprint({"weeks": 4, "seed": 7})
        b = campaign_fingerprint({"seed": 7, "weeks": 4})
        assert a == b
        assert len(a) == 64

    def test_any_parameter_changes_it(self):
        base = campaign_fingerprint({"weeks": 4, "seed": 7})
        assert campaign_fingerprint({"weeks": 4, "seed": 8}) != base
        assert campaign_fingerprint({"weeks": 5, "seed": 7}) != base


class TestSampleState:
    def test_roundtrip_is_value_exact(self):
        sample = make_sample()
        state = sample_to_state(sample)
        # Through JSON, as the checkpoint file does: float repr
        # round-trips float64 exactly.
        restored = sample_from_state(json.loads(json.dumps(state)))
        assert restored.week == sample.week
        assert restored.start_day_offset == sample.start_day_offset
        assert restored.traces == sample.traces
        theirs = restored.stats_by_constellation["tianqi"]
        ours = sample.stats_by_constellation["tianqi"]
        assert theirs.effective_daily_hours == ours.effective_daily_hours
        assert theirs.theoretical_durations_s == ours.theoretical_durations_s


class TestSaveLoad:
    STATE = {"fingerprint": "f" * 64, "weeks_done": 3,
             "samples": [], "sent": {"hk/tianqi": 10},
             "received": {"hk/tianqi": 7},
             "writer": {"shards": []}}

    def test_roundtrip(self, tmp_path):
        save_checkpoint(tmp_path, self.STATE)
        state = load_checkpoint(tmp_path)
        assert state["format"] == CHECKPOINT_FORMAT
        assert state["weeks_done"] == 3
        assert state["sent"] == {"hk/tianqi": 10}

    def test_missing_is_none(self, tmp_path):
        assert load_checkpoint(tmp_path) is None

    def test_clear(self, tmp_path):
        save_checkpoint(tmp_path, self.STATE)
        clear_checkpoint(tmp_path)
        assert load_checkpoint(tmp_path) is None
        clear_checkpoint(tmp_path)  # idempotent

    def test_fingerprint_match_accepts(self, tmp_path):
        save_checkpoint(tmp_path, self.STATE)
        assert load_checkpoint(tmp_path, "f" * 64) is not None

    def test_fingerprint_mismatch_refuses(self, tmp_path):
        save_checkpoint(tmp_path, self.STATE)
        with pytest.raises(ValueError, match="refusing to resume"):
            load_checkpoint(tmp_path, "0" * 64)

    def test_corrupt_json_raises(self, tmp_path):
        (tmp_path / CHECKPOINT_NAME).write_text("{torn write")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_checkpoint(tmp_path)

    def test_non_object_raises(self, tmp_path):
        path = tmp_path / CHECKPOINT_NAME
        path.write_text("[]")
        with pytest.raises(ValueError, match="not a JSON object") as info:
            load_checkpoint(tmp_path)
        assert str(path) in str(info.value)

    def test_foreign_format_raises(self, tmp_path):
        (tmp_path / CHECKPOINT_NAME).write_text(
            json.dumps({"format": "not-a-checkpoint"}))
        with pytest.raises(ValueError, match="unsupported checkpoint"):
            load_checkpoint(tmp_path)
