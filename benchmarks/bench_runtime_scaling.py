"""Runtime scaling — shard executor speedup and ephemeris-cache warmth.

Measures the two performance claims of ``satiot.runtime``:

* **shard speedup** — the same passive campaign run serially and on a
  worker pool must produce bit-identical trace datasets, and the pool
  must be faster once real cores are available (the speedup assertion is
  gated on ``os.cpu_count()`` so single-core CI boxes still verify
  correctness);
* **cache warmth** — a second campaign on a warm ephemeris cache must
  beat the cache-cold run, because every SGP4 grid is served from
  memory instead of recomputed (the windows are refined again on it),
  and must produce the cold run's dataset.

Tiny mode (``SATIOT_BENCH_TINY=1``, used by ``make bench-smoke``)
shrinks the campaign so the whole file runs in seconds.
"""

from __future__ import annotations

import os
import time

from satiot.core.campaign import PassiveCampaign, PassiveCampaignConfig
from satiot.core.report import format_table
from satiot.runtime import EphemerisCache, ShardExecutor

from conftest import SEED, write_output

TINY = os.environ.get("SATIOT_BENCH_TINY", "").strip() in ("1", "true")

SITES = ("HK", "SYD") if TINY else ("HK", "SYD", "LDN", "PGH")
DAYS = 0.25 if TINY else 1.0
WORKER_STEPS = (1, 2) if TINY else (1, 2, 4)


def _config() -> PassiveCampaignConfig:
    return PassiveCampaignConfig(sites=SITES, constellations=("tianqi",),
                                 days=DAYS, seed=SEED)


def _timed_run(workers: int, cache):
    start = time.perf_counter()
    result = PassiveCampaign(_config(), workers=workers,
                             ephemeris_cache=cache).run()
    return result, time.perf_counter() - start


def compute_scaling():
    rows = []
    baseline = None
    reference = None
    for workers in WORKER_STEPS:
        # A fresh memory-only cache per run: no warmth leaks between
        # worker counts, so the comparison is propagation-for-
        # propagation.
        result, wall = _timed_run(workers, EphemerisCache())
        if reference is None:
            reference, baseline = result, wall
        else:
            assert list(result.dataset) == list(reference.dataset), \
                f"workers={workers} diverged from the serial dataset"
        telemetry = result.telemetry
        rows.append([workers, telemetry.mode, result.total_traces,
                     round(wall, 3), round(baseline / wall, 2),
                     round(telemetry.parallel_efficiency, 2)])
    return rows, baseline


def compute_cache_warmth():
    cache = EphemerisCache()
    cold_result, cold = _timed_run(1, cache)
    misses = cache.stats.grid_misses
    warm_result, warm = _timed_run(1, cache)
    assert cache.stats.grid_misses == misses, "warm run refilled a grid"
    assert list(warm_result.dataset) == list(cold_result.dataset), \
        "warm run diverged from the cold dataset"
    return cold, warm


def test_runtime_scaling(benchmark):
    (rows, serial_wall), (cold, warm) = benchmark.pedantic(
        lambda: (compute_scaling(), compute_cache_warmth()),
        rounds=1, iterations=1)

    cores = os.cpu_count() or 1
    best = min(r[3] for r in rows)
    if cores >= 4 and 4 in WORKER_STEPS:
        assert serial_wall / best >= 1.5, \
            f"expected >=1.5x at 4 workers, got {serial_wall / best:.2f}x"
    assert warm < cold, \
        f"cache-warm run ({warm:.3f}s) not faster than cold ({cold:.3f}s)"

    table = format_table(
        ["Workers", "mode", "traces", "wall (s)", "speedup",
         "efficiency"], rows,
        title=f"Runtime scaling — {len(SITES)} sites x {DAYS} d "
              f"({cores} cores, serial {serial_wall:.2f}s)")
    warmth = format_table(
        ["Cache state", "wall (s)", "vs cold"],
        [["cold", round(cold, 3), "1.00x"],
         ["warm", round(warm, 3), f"{cold / warm:.2f}x"]],
        title="Ephemeris cache warmth (serial, same process)")
    write_output("runtime_scaling", table + "\n\n" + warmth)


def test_executor_overhead(benchmark):
    """Pool bring-up + pickling overhead on trivial shards stays small."""
    from satiot.runtime import Shard

    shards = [Shard(index=i, kind="noop", key=str(i), payload=i)
              for i in range(8)]

    def run_pool():
        return ShardExecutor(workers=2).map(_identity, shards)

    outcomes = benchmark.pedantic(run_pool, rounds=1, iterations=1)
    assert [o.result for o in outcomes] == list(range(8))


def _identity(shard):
    return shard.payload
