"""Campaign determinism under seeded fault schedules.

The capstone contract of the fault plane: any campaign run that
survives its fault schedule produces **byte-identical** trace columns
to the clean run.  Faults are allowed to cost wall time and telemetry
(retries, fallbacks, quarantined cache entries) — never output.

Workload: the paper's passive campaign at 2 sites x the 5-satellite
CSTP fleet, 2 shard workers — small enough for CI, large enough that
every fault site on the campaign path (disk cache, shard task, worker
kill) gets consulted many times.
"""

import pytest

from satiot.core.campaign import PassiveCampaign, PassiveCampaignConfig
from satiot.core.fleet import passive_fleet_sweep
from satiot.groundstation.traces import NUMERIC_FIELDS, STRING_FIELDS
from tests.chaos.conftest import armed

pytestmark = pytest.mark.chaos

#: 2 sites x 5 CSTP satellites, quarter day, parallel shards.
CFG = PassiveCampaignConfig(sites=("HK", "SYD"),
                            constellations=("cstp",),
                            days=0.25, seed=9)
WORKERS = 2

_reference = {}


def fingerprint(dataset):
    """Byte-level identity of every trace column."""
    prints = {}
    for name in NUMERIC_FIELDS:
        column = dataset.column(name)
        prints[name] = (str(column.dtype), column.tobytes())
    for name in STRING_FIELDS:
        prints[name] = tuple(dataset.column(name).tolist())
    return prints


def clean_fingerprint():
    """The fault-free reference run (computed once per module)."""
    if "campaign" not in _reference:
        result = PassiveCampaign(CFG, workers=WORKERS).run()
        assert len(result.dataset) > 0
        _reference["campaign"] = fingerprint(result.dataset)
    return _reference["campaign"]


def assert_identical(dataset, reference=None):
    reference = reference or clean_fingerprint()
    actual = fingerprint(dataset)
    assert set(actual) == set(reference)
    for name, expected in reference.items():
        assert actual[name] == expected, \
            f"column {name!r} diverged under faults"


class TestCampaignSchedules:
    """>= 3 distinct seeded schedules, all byte-identical to clean."""

    def test_disk_cache_corruption_storm(self, chaos_cache_dir):
        # Pre-warm the disk tier with a clean run so the faulted run
        # actually reads (and therefore can corrupt) on-disk entries.
        reference = clean_fingerprint()
        warm = PassiveCampaign(
            CFG, workers=1,
            ephemeris_cache=str(chaos_cache_dir)).run()
        assert_identical(warm.dataset, reference)
        assert any(chaos_cache_dir.glob("*.npy"))

        from satiot.runtime.ephemeris_cache import reset_default_cache
        reset_default_cache()
        spec = "seed=101;cache.disk_read=p0.6;cache.disk_write=n1"
        with armed(spec) as plane:
            result = PassiveCampaign(
                CFG, workers=1,
                ephemeris_cache=str(chaos_cache_dir)).run()
            fired = plane.summary()["sites"]
        assert_identical(result.dataset, reference)
        # The schedule really fired, and corrupt entries really were
        # quarantined — the run degraded, it did not dodge the faults.
        assert fired["cache.disk_read"]["fired"] >= 1
        assert any(chaos_cache_dir.glob("*.bad"))

    def test_worker_task_faults_are_retried(self):
        reference = clean_fingerprint()
        with armed("seed=102;executor.task=n1"):
            result = PassiveCampaign(CFG, workers=WORKERS).run()
        assert_identical(result.dataset, reference)
        telemetry = result.telemetry
        assert telemetry is not None
        # The first task consult failed somewhere (pool worker or, if
        # the pool could not start, the parent) and was absorbed.
        assert telemetry.retries + telemetry.fallbacks >= 1

    def test_task_fault_bursts_absorbed(self):
        reference = clean_fingerprint()
        # n2 per process: each worker's (and, on fallback, the
        # parent's) first two task consults fail.  The layered
        # retry-then-fallback budget absorbs every possible
        # distribution of those failures across the pool.
        with armed("seed=103;executor.task=n2"):
            result = PassiveCampaign(CFG, workers=WORKERS).run()
        assert_identical(result.dataset, reference)
        telemetry = result.telemetry
        assert telemetry is not None
        assert telemetry.retries + telemetry.fallbacks >= 1

    def test_probabilistic_task_faults(self):
        reference = clean_fingerprint()
        with armed("seed=104;executor.task=p0.5"):
            result = PassiveCampaign(CFG, workers=WORKERS).run()
        assert_identical(result.dataset, reference)


class TestWorkerKill:
    """A SIGKILLed pool worker never loses or duplicates a pass id."""

    SWEEP = PassiveCampaignConfig(sites=("HK",),
                                  constellations=("fossa", "cstp"),
                                  days=0.25, seed=9)

    def test_sigkilled_worker_mid_shard(self):
        clean = passive_fleet_sweep(self.SWEEP, workers=WORKERS)
        with armed("seed=105;executor.worker_kill=@1"):
            chaotic = passive_fleet_sweep(self.SWEEP, workers=WORKERS)

        assert list(chaotic) == list(clean)
        for name in clean:
            ref_ids = clean[name].dataset.column("pass_id").tolist()
            got_ids = chaotic[name].dataset.column("pass_id").tolist()
            # Byte-identical id sequence: nothing lost, nothing
            # duplicated, nothing reordered.
            assert got_ids == ref_ids
            assert len(set(got_ids)) == len(set(ref_ids))
            assert_identical(chaotic[name].dataset,
                             fingerprint(clean[name].dataset))

    def test_campaign_survives_worker_kill(self):
        reference = clean_fingerprint()
        with armed("seed=106;executor.worker_kill=@1"):
            result = PassiveCampaign(CFG, workers=WORKERS).run()
        assert_identical(result.dataset, reference)
        telemetry = result.telemetry
        assert telemetry is not None
        if telemetry.mode == "process":
            # The kill only lands when a real pool ran; the broken
            # shard must have been recomputed in the parent.
            assert telemetry.fallbacks >= 1


class TestScheduleIndependence:
    def test_serial_equals_parallel_under_faults(self):
        """The PR-1 contract holds even with faults armed."""
        reference = clean_fingerprint()
        with armed("seed=107;executor.task=n1"):
            serial = PassiveCampaign(CFG, workers=1).run()
        assert_identical(serial.dataset, reference)
        # Serial shards consult the same task site and retry budget as
        # pool tasks: the one injected failure was retried.
        assert serial.telemetry.mode == "serial"
        assert serial.telemetry.retries == 1
