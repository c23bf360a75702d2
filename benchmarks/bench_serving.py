"""Serving-layer load benchmark: micro-batched vs. unbatched throughput.

Starts two in-process :class:`satiot.serving.ServingServer` instances —
one with the micro-batching engine enabled, one degraded to one
request per batch — and drives both with an asyncio load generator
sweeping concurrency levels.  Every request queries ``/v1/passes`` for
a *unique* random location, so the result cache cannot help.  Both
modes answer through the same fleet pass search over a cached
constellation grid; unbatched, every request runs its own search (one
TEME→ECEF conversion of the whole grid, one refinement pass, one
executor hand-off), batched, one search serves every observer of the
flush.  The comparison isolates that per-search overhead.

Reported per (mode, concurrency): throughput (req/s), client-side
p50/p90/p99/max latency, status counts; plus the server-side batch-size
histogram — the direct evidence that coalescing happened.  Metrics land
in ``benchmarks/output/serving_load.json`` (uploaded as a CI artifact)
next to a human-readable table.

A second phase benchmarks the **multi-worker fleet**
(:class:`satiot.serving.ServingFleet`): for each worker count a
supervised ``SO_REUSEPORT`` fleet is driven by a *multi-process* load
generator (several forked loader processes, each running thousands of
asyncio keep-alive clients), producing a per-worker-count scaling table
— req/s, client p50/p99, peak per-process RSS from each child's
``getrusage`` — in ``benchmarks/output/serving_fleet.json``.  All
worker counts share one ephemeris disk tier, so the table doubles as
the zero-copy evidence: every worker's constellation grid must be
mmap-shared (``grid_private_bytes == 0``), and probe responses must be
byte-identical across worker counts.

Run standalone (the pytest session collects no tests from this file)::

    cd benchmarks && PYTHONPATH=../src python bench_serving.py --smoke

Full mode asserts the tentpole acceptance criteria: at 512 concurrent
clients the batched server delivers ≥ 5× the unbatched throughput, and
at 4k+ concurrent clients the top fleet delivers ≥ 10× single-worker
throughput (the fleet floor needs real cores — it is not asserted in
smoke mode, which runs on single-core CI boxes).  Smoke mode (CI,
seconds not minutes) asserts a conservative ≥ 1.5× batching win at its
top concurrency plus the fleet's byte-identity and mmap-sharing
invariants, which hold at any core count.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import multiprocessing
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from satiot.serving import (FleetConfig, ServingConfig, ServingFleet,
                            ServingServer)

OUTPUT_DIR = Path(__file__).parent / "output"

FULL_CONCURRENCY = (1, 32, 512)
SMOKE_CONCURRENCY = (1, 32)
FULL_HORIZON_S = 86400.0
SMOKE_HORIZON_S = 21600.0
FULL_SPEEDUP_FLOOR = 5.0
SMOKE_SPEEDUP_FLOOR = 1.5

FULL_WORKER_COUNTS = (1, 2, 4, 8)
SMOKE_WORKER_COUNTS = (1, 2)
FULL_CLIENTS = 4096
SMOKE_CLIENTS = 64
#: Top-fleet vs single-worker throughput floor (full mode only: the
#: scaling is horizontal, so it needs at least as many cores as
#: workers plus loaders).
FLEET_SPEEDUP_FLOOR = 10.0
PROBE_REQUESTS = 12


def percentile(sorted_ms: List[float], q: float) -> float:
    if not sorted_ms:
        return 0.0
    rank = max(0, min(len(sorted_ms) - 1,
                      round(q / 100.0 * (len(sorted_ms) - 1))))
    return sorted_ms[rank]


# ----------------------------------------------------------------------
# Minimal asyncio HTTP/1.1 client (keep-alive)
# ----------------------------------------------------------------------
async def _http_get(reader: asyncio.StreamReader,
                    writer: asyncio.StreamWriter, path: str):
    writer.write(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n"
                 .encode("ascii"))
    await writer.drain()
    header = await reader.readuntil(b"\r\n\r\n")
    status = int(header.split(b" ", 2)[1])
    length = 0
    for line in header.split(b"\r\n"):
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":", 1)[1])
    body = await reader.readexactly(length) if length else b""
    return status, body


async def _connect(port: int):
    for _ in range(40):
        try:
            return await asyncio.open_connection("127.0.0.1", port)
        except OSError:
            await asyncio.sleep(0.05)
    raise RuntimeError("could not connect to benchmark server")


async def _client(port: int, n_requests: int,
                  make_path: Callable[[], str],
                  latencies_ms: List[float],
                  statuses: Dict[int, int]) -> None:
    reader, writer = await _connect(port)
    try:
        for _ in range(n_requests):
            start = time.perf_counter()
            status, _ = await _http_get(reader, writer, make_path())
            latencies_ms.append(
                (time.perf_counter() - start) * 1000.0)
            statuses[status] = statuses.get(status, 0) + 1
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass


# ----------------------------------------------------------------------
# Load levels
# ----------------------------------------------------------------------
def _path_factory(seed: int, horizon_s: float) -> Callable[[], str]:
    """Unique random observer per request → no result-cache hits."""
    rng = np.random.default_rng(seed)

    def make_path() -> str:
        lat = float(rng.uniform(-60.0, 60.0))
        lon = float(rng.uniform(-180.0, 180.0))
        return (f"/v1/passes?lat={lat:.6f}&lon={lon:.6f}"
                f"&horizon_s={horizon_s:.0f}&min_elevation_deg=10")
    return make_path


async def _run_level(port: int, concurrency: int, total_requests: int,
                     horizon_s: float, seed: int) -> dict:
    latencies_ms: List[float] = []
    statuses: Dict[int, int] = {}
    share, extra = divmod(total_requests, concurrency)
    start = time.perf_counter()
    await asyncio.gather(*(
        _client(port, share + (1 if i < extra else 0),
                _path_factory(seed + i, horizon_s),
                latencies_ms, statuses)
        for i in range(concurrency)))
    wall_s = time.perf_counter() - start
    ordered = sorted(latencies_ms)
    return {
        "concurrency": concurrency,
        "requests": total_requests,
        "wall_s": round(wall_s, 4),
        "throughput_rps": round(total_requests / wall_s, 2),
        "latency_ms": {
            "p50": round(percentile(ordered, 50.0), 3),
            "p90": round(percentile(ordered, 90.0), 3),
            "p99": round(percentile(ordered, 99.0), 3),
            "max": round(ordered[-1], 3) if ordered else 0.0,
        },
        "statuses": {str(k): v for k, v in sorted(statuses.items())},
    }


async def _bench_mode(batching: bool, concurrency_levels, horizon_s,
                      coarse_step_s: float, seed: int) -> dict:
    config = ServingConfig(
        port=0, batching=batching, max_batch=256, window_s=0.002,
        max_pending=8192, coarse_step_s=coarse_step_s,
        cache_decimals=6, cache_ttl_s=3600.0)
    server = ServingServer(config)
    await server.start()
    try:
        port = server.bound_port
        # Warm the SGP4 grid cache so both modes pay propagation once,
        # outside the timed window (the comparison targets the
        # per-request frame-conversion + pass-search work).
        await _run_level(port, 1, 2, horizon_s, seed=seed + 9000)
        levels = []
        for concurrency in concurrency_levels:
            total = max(32, 2 * concurrency)
            level = await _run_level(port, concurrency, total,
                                     horizon_s, seed=seed)
            levels.append(level)
            print(f"  [{'batched' if batching else 'unbatched':9s}] "
                  f"c={concurrency:4d}  "
                  f"{level['throughput_rps']:8.1f} req/s  "
                  f"p50 {level['latency_ms']['p50']:8.2f} ms  "
                  f"p99 {level['latency_ms']['p99']:8.2f} ms")
        passes_metrics = server.metrics.endpoint("passes").to_dict()
        return {
            "mode": "batched" if batching else "unbatched",
            "levels": levels,
            "server_metrics": passes_metrics,
        }
    finally:
        await server.close()


# ----------------------------------------------------------------------
# Multi-worker fleet scaling
# ----------------------------------------------------------------------
def _load_proc_main(port: int, n_clients: int, n_requests: int,
                    horizon_s: float, seed: int, conn) -> None:
    """One forked load-generator process: ``n_clients`` concurrent
    keep-alive clients sharing ``n_requests``; results go back over the
    pipe (latencies, statuses, own peak RSS from ``getrusage``)."""
    import resource

    latencies_ms: List[float] = []
    statuses: Dict[int, int] = {}

    async def run() -> None:
        share, extra = divmod(n_requests, n_clients)
        await asyncio.gather(*(
            _client(port, share + (1 if i < extra else 0),
                    _path_factory(seed + i, horizon_s),
                    latencies_ms, statuses)
            for i in range(n_clients)))

    start = time.perf_counter()
    asyncio.run(run())
    wall_s = time.perf_counter() - start
    conn.send({
        "wall_s": wall_s,
        "latencies_ms": latencies_ms,
        "statuses": {str(k): v for k, v in statuses.items()},
        "loader_rss_max_kib": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss,
    })
    conn.close()


def _run_fleet_level(port: int, clients: int, total_requests: int,
                     horizon_s: float, seed: int) -> dict:
    """Drive one fleet with a multi-process load generator."""
    ctx = multiprocessing.get_context("fork")
    loaders = 4 if clients >= 256 else 2
    per_clients, c_extra = divmod(clients, loaders)
    per_requests, r_extra = divmod(total_requests, loaders)
    pipes, procs = [], []
    for i in range(loaders):
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_load_proc_main,
            args=(port, per_clients + (1 if i < c_extra else 0),
                  per_requests + (1 if i < r_extra else 0),
                  horizon_s, seed + 100_000 * (i + 1), child_conn),
            daemon=True)
        proc.start()
        child_conn.close()
        pipes.append(parent_conn)
        procs.append(proc)
    start = time.perf_counter()
    results = [conn.recv() for conn in pipes]
    wall_s = time.perf_counter() - start
    for proc in procs:
        proc.join()
    latencies = sorted(ms for r in results for ms in r["latencies_ms"])
    statuses: Dict[str, int] = {}
    for r in results:
        for status, count in r["statuses"].items():
            statuses[status] = statuses.get(status, 0) + count
    return {
        "clients": clients,
        "loaders": loaders,
        "requests": total_requests,
        "wall_s": round(wall_s, 4),
        "throughput_rps": round(total_requests / wall_s, 2),
        "latency_ms": {
            "p50": round(percentile(latencies, 50.0), 3),
            "p90": round(percentile(latencies, 90.0), 3),
            "p99": round(percentile(latencies, 99.0), 3),
            "max": round(latencies[-1], 3) if latencies else 0.0,
        },
        "statuses": statuses,
        "loader_rss_max_kib": max(r["loader_rss_max_kib"]
                                  for r in results),
    }


async def _probe(port: int, horizon_s: float, seed: int) -> List[bytes]:
    """Fixed deterministic request set for cross-fleet byte-identity."""
    make_path = _path_factory(seed, horizon_s)
    paths = [make_path() for _ in range(PROBE_REQUESTS)]
    reader, writer = await _connect(port)
    bodies = []
    try:
        for path in paths:
            status, body = await _http_get(reader, writer, path)
            assert status == 200, (status, body[:200])
            bodies.append(body)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    return bodies


def _fleet_config() -> ServingConfig:
    return ServingConfig(
        port=0, batching=True, max_batch=256, window_s=0.002,
        max_pending=8192, coarse_step_s=30.0, cache_decimals=6,
        cache_ttl_s=3600.0)


def run_fleet_benchmark(smoke: bool,
                        worker_counts: Optional[Sequence[int]] = None,
                        clients: Optional[int] = None,
                        seed: int = 42) -> dict:
    """Per-worker-count scaling table over one shared ephemeris tier."""
    if worker_counts is None:
        worker_counts = SMOKE_WORKER_COUNTS if smoke \
            else FULL_WORKER_COUNTS
    if clients is None:
        clients = SMOKE_CLIENTS if smoke else FULL_CLIENTS
    horizon_s = SMOKE_HORIZON_S if smoke else FULL_HORIZON_S
    total_requests = max(256, 4 * clients)
    shared_dir = tempfile.mkdtemp(prefix="satiot-bench-fleet-")

    # Warm the shared segment tier once (a 1-worker fleet writes the
    # constellation-grid segments); every benchmarked fleet then opens
    # them via np.load(mmap_mode="r") — one resident grid machine-wide.
    warm = ServingFleet(_fleet_config(), FleetConfig(
        workers=1, ephemeris_dir=shared_dir))
    warm.start()
    try:
        warm.wait_ready()
        asyncio.run(_probe(warm.bound_port, horizon_s, seed + 7))
        _run_fleet_level(warm.bound_port, min(clients, 32), 64,
                         horizon_s, seed + 13)
    finally:
        warm.stop()

    levels: List[dict] = []
    probes: Dict[int, List[bytes]] = {}
    for workers in worker_counts:
        fleet = ServingFleet(_fleet_config(), FleetConfig(
            workers=workers, ephemeris_dir=shared_dir))
        port = fleet.start()
        try:
            fleet.wait_ready()
            probes[workers] = asyncio.run(
                _probe(port, horizon_s, seed + 7))
            # Fresh per-level coordinates: the segment tier is shared
            # across levels by design (that's the zero-copy story), but
            # pass lists are per-process memory only — every level
            # answers unseen observers, so each request is a real pass
            # search over the mapped grid, comparable across levels.
            level = _run_fleet_level(port, clients, total_requests,
                                     horizon_s, seed + 7919 * workers)
            metrics = fleet.fleet_metrics()
            worker_rows = {}
            for wid, row in metrics["_workers"].items():
                worker_rows[wid] = {
                    "rss_max_kib": row.get("rss_max_kib"),
                    "ephemeris": row.get("ephemeris"),
                }
            level.update({
                "workers": workers,
                "mode": metrics["_fleet"]["mode"],
                "worker_rss_max_kib": max(
                    (row.get("rss_max_kib") or 0
                     for row in metrics["_workers"].values()),
                    default=0),
                "grid_mmap_bytes_max":
                    metrics["_fleet"]["grid_mmap_bytes_max"],
                "grid_private_bytes_total":
                    metrics["_fleet"]["grid_private_bytes_total"],
                "per_worker": worker_rows,
            })
            levels.append(level)
            lat = level["latency_ms"]
            print(f"  [fleet] workers={workers:2d}  "
                  f"{level['throughput_rps']:8.1f} req/s  "
                  f"p50 {lat['p50']:8.2f} ms  "
                  f"p99 {lat['p99']:8.2f} ms  "
                  f"worker rss {level['worker_rss_max_kib']:7d} KiB")
        finally:
            fleet.stop()

    baseline = levels[0]["throughput_rps"]
    scaling = {str(level["workers"]):
               round(level["throughput_rps"] / baseline, 2)
               for level in levels}
    payload = {
        "benchmark": "serving_fleet",
        "smoke": smoke,
        "horizon_s": horizon_s,
        "clients": clients,
        "requests_per_level": total_requests,
        "worker_counts": list(worker_counts),
        "scaling_vs_one_worker": scaling,
        "levels": levels,
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "serving_fleet.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")

    lines = [f"Serving fleet scaling "
             f"({'smoke' if smoke else 'full'}, {clients} clients, "
             f"horizon {horizon_s / 3600.0:.0f} h)"]
    for level in levels:
        lat = level["latency_ms"]
        lines.append(
            f"  workers={level['workers']:2d} ({level['mode']:9s})  "
            f"{level['throughput_rps']:8.1f} req/s  "
            f"p50 {lat['p50']:8.2f} ms  p99 {lat['p99']:8.2f} ms  "
            f"rss {level['worker_rss_max_kib']:7d} KiB  "
            f"grid mmap/private "
            f"{level['grid_mmap_bytes_max']}/"
            f"{level['grid_private_bytes_total']} B")
    lines.append(f"  scaling vs 1 worker: {scaling}")
    (OUTPUT_DIR / "serving_fleet.txt").write_text(
        "\n".join(lines) + "\n")
    print("\n".join(lines))

    # Invariants that hold at any core count.
    reference = probes[worker_counts[0]]
    for workers, bodies in probes.items():
        assert bodies == reference, (
            f"fleet with {workers} workers served different bytes "
            f"than {worker_counts[0]} worker(s)")
    statuses = {status
                for level in levels for status in level["statuses"]}
    assert statuses == {"200"}, f"non-200 responses seen: {statuses}"
    for level in levels:
        assert level["grid_private_bytes_total"] == 0, (
            f"workers hold private grid copies at "
            f"workers={level['workers']}: "
            f"{level['grid_private_bytes_total']} bytes (zero-copy "
            f"mmap tier not engaged)")
        assert level["grid_mmap_bytes_max"] > 0, (
            f"no mmap-shared grid bytes at workers={level['workers']}")
    if not smoke:
        top = levels[-1]
        speedup = top["throughput_rps"] / baseline
        assert speedup >= FLEET_SPEEDUP_FLOOR, (
            f"fleet with {top['workers']} workers only {speedup:.2f}x "
            f"one worker at {clients} clients "
            f"(need >= {FLEET_SPEEDUP_FLOOR}x)")
    return payload


# ----------------------------------------------------------------------
def run_benchmark(smoke: bool, seed: int = 42) -> dict:
    concurrency_levels = SMOKE_CONCURRENCY if smoke else FULL_CONCURRENCY
    horizon_s = SMOKE_HORIZON_S if smoke else FULL_HORIZON_S
    results = {}
    for batching in (False, True):
        results["batched" if batching else "unbatched"] = asyncio.run(
            _bench_mode(batching, concurrency_levels, horizon_s,
                        coarse_step_s=30.0, seed=seed))

    top = concurrency_levels[-1]
    speedups = {}
    for batched_level, unbatched_level in zip(
            results["batched"]["levels"],
            results["unbatched"]["levels"]):
        c = batched_level["concurrency"]
        speedups[str(c)] = round(
            batched_level["throughput_rps"]
            / unbatched_level["throughput_rps"], 2)
    payload = {
        "benchmark": "serving_load",
        "smoke": smoke,
        "horizon_s": horizon_s,
        "concurrency_levels": list(concurrency_levels),
        "speedup_batched_vs_unbatched": speedups,
        "top_concurrency": top,
        "modes": results,
    }

    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "serving_load.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")

    lines = [f"Serving load — batched vs unbatched "
             f"({'smoke' if smoke else 'full'}, horizon "
             f"{horizon_s / 3600.0:.0f} h)"]
    for mode in ("unbatched", "batched"):
        for level in results[mode]["levels"]:
            lat = level["latency_ms"]
            lines.append(
                f"  {mode:9s} c={level['concurrency']:4d}  "
                f"{level['throughput_rps']:8.1f} req/s  "
                f"p50 {lat['p50']:8.2f} ms  p99 {lat['p99']:8.2f} ms")
    lines.append(f"  speedup at c={top}: {speedups[str(top)]}x")
    histogram = results["batched"]["server_metrics"][
        "batch_size_histogram"]
    lines.append(f"  batched batch-size histogram: {histogram}")
    (OUTPUT_DIR / "serving_load.txt").write_text(
        "\n".join(lines) + "\n")
    print("\n".join(lines))

    floor = SMOKE_SPEEDUP_FLOOR if smoke else FULL_SPEEDUP_FLOOR
    top_speedup = speedups[str(top)]
    assert top_speedup >= floor, (
        f"batched throughput only {top_speedup:.2f}x unbatched at "
        f"c={top} (need >= {floor}x)")
    statuses = {
        status
        for mode in results.values()
        for level in mode["levels"]
        for status in level["statuses"]}
    assert statuses == {"200"}, f"non-200 responses seen: {statuses}"
    return payload


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="satiot.serving load benchmark")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (seconds, lower speedup "
                             "floor)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--server-workers", default=None,
                        metavar="K[,K...]",
                        help="fleet worker counts to sweep (default: "
                             "1,2 smoke / 1,2,4,8 full)")
    parser.add_argument("--clients", type=int, default=None,
                        help="concurrent clients per fleet level "
                             "(default: 64 smoke / 4096 full)")
    parser.add_argument("--fleet-only", action="store_true",
                        help="skip the batched-vs-unbatched phase")
    parser.add_argument("--no-fleet", action="store_true",
                        help="skip the multi-worker fleet phase")
    args = parser.parse_args(argv)
    if args.fleet_only and args.no_fleet:
        parser.error("--fleet-only and --no-fleet are exclusive")
    worker_counts = None
    if args.server_workers:
        worker_counts = tuple(
            int(k) for k in args.server_workers.split(",") if k.strip())
    if not args.fleet_only:
        run_benchmark(smoke=args.smoke, seed=args.seed)
    if not args.no_fleet:
        run_fleet_benchmark(smoke=args.smoke,
                            worker_counts=worker_counts,
                            clients=args.clients, seed=args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
