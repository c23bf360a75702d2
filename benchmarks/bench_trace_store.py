"""Trace store — row-object lists vs the columnar data plane.

Measures the four costs the PR 2 refactor targets, at campaign scale
(1e4 – 1e6 traces, shrunk to 1e4 by ``SATIOT_BENCH_TINY=1``):

* **build**   — turning per-pass receiver output into dataset pieces
  (row path: one ``BeaconTrace`` allocation per beacon; columnar path:
  ``TraceColumns.from_arrays`` straight from the sample arrays);
* **IPC**     — pickling the per-pass pieces, the serialisation a shard
  result pays to cross the worker-pool process boundary;
* **merge**   — what ``PassiveCampaign`` pays to assemble the campaign
  dataset from shard results: unpickling the shard payload and
  concatenating the pieces (row path: object unpickling + list extend;
  columnar path: array unpickling + one canonical block ``concat``);
* **filter**  — the standard analysis query: site + constellation +
  time-window cut, then extract the RSSI column (row path: chained
  predicate scans and a per-trace attribute comprehension, exactly the
  pre-columnar ``TraceDataset`` replicated inline below; columnar
  path: interned-code masks combined into one boolean gather of a
  single column).

It also archives the merged dataset as CSV and JSONL, spills it as a
sharded ``satiot-traces-v2`` archive, and records the sizes (v2: shards
plus manifest).

The **streaming tier** (``test_trace_store_streaming``, also runnable
standalone via ``python bench_trace_store.py --smoke``) spills a
campaign through :mod:`satiot.streams` in a child process and measures
the child's *peak RSS* (``VmHWM``, see ``_peak_rss_kib``): out-of-core memory
must stay within a fixed budget that does not grow with trace count,
while the streaming KPI reducers reproduce the in-RAM numbers exactly.
The spilled shard manifest is copied into ``benchmarks/output/`` for
the CI artifact.

Asserted contracts (the ISSUE acceptance numbers):

* at 1e5 traces the columnar merge+filter path is >= 5x faster than the
  row baseline (only checked when a >= 1e5 size is measured, i.e. not
  in tiny mode — tiny mode asserts the columnar path merely wins);
* the v2 archive is >= 3x smaller than the CSV archive at every size;
* the streaming tier's child peak RSS stays under
  :data:`STREAM_RSS_BUDGET_MIB` at every size (1e7 traces in full
  mode), and its KPIs are bit-identical to the in-RAM fold (checked
  directly up to 1e6; via shard-partitioning invariance at 1e7).

Metrics land in ``benchmarks/output/trace_store.json`` and
``trace_store_streaming.json`` for the CI artifact, next to the
human-readable tables.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import satiot
from satiot.core.report import format_table
from satiot.groundstation.traces import (BeaconTrace, TraceColumns,
                                         TraceDataset)

from conftest import OUTPUT_DIR, SEED, write_json, write_output

TINY = os.environ.get("SATIOT_BENCH_TINY", "").strip() in ("1", "true")

SIZES = (10_000,) if TINY else (10_000, 100_000, 1_000_000)
BEACONS_PER_PASS = 600
SITES = ("HK", "SYD")
CONSTELLATIONS = ("Tianqi", "FOSSA")

#: Streaming tier sizes: smoke keeps CI in seconds; full mode proves
#: the 1e7-trace acceptance bound.
STREAM_SIZES = (100_000,) if TINY else (1_000_000, 10_000_000)
STREAM_ROWS_PER_SHARD = 200_000
#: Peak-RSS ceiling for the spilling child process.  Fixed — it must
#: NOT scale with the trace count: interpreter + NumPy baseline plus
#: one shard buffer and O(passes) reducer state.  An in-RAM 1e7-trace
#: dataset alone is ~0.9 GiB resident, transiently doubled while the
#: campaign consolidates its blocks.
STREAM_RSS_BUDGET_MIB = 600.0
#: Largest size whose in-RAM reference fold is computed directly in
#: the parent; beyond it the equality is established by shard-
#: partitioning invariance (two children, different shard sizes).
STREAM_IN_RAM_CHECK_MAX = 1_000_000

_SRC_DIR = str(Path(satiot.__file__).resolve().parent.parent)


# ---------------------------------------------------------------------------
# Synthetic per-pass receiver output (arrays, as the PHY layer emits them)

def _iter_passes(n_traces: int):
    """Yield per-pass dicts of sample arrays, realistic and quantized.

    A generator so the streaming tier can spill a campaign that never
    exists in memory at once; the emitted stream is a deterministic
    function of ``(SEED, n_traces)``.
    """
    rng = np.random.default_rng(SEED)
    produced = 0
    index = 0
    while produced < n_traces:
        n = min(BEACONS_PER_PASS, n_traces - produced)
        site = SITES[index % len(SITES)]
        constellation = CONSTELLATIONS[index % len(CONSTELLATIONS)]
        norad = 44100 + (index % 7)
        t0 = 86400.0 * (index // len(SITES))
        yield dict(
            n=n,
            time_s=np.round(t0 + np.cumsum(rng.uniform(0.8, 1.2, n)), 3),
            station_id=f"{site}-1", site=site,
            constellation=constellation,
            satellite=f"{constellation}-{norad}",
            norad_id=norad, frequency_hz=400.45e6,
            rssi_dbm=np.round(rng.uniform(-140.0, -115.0, n) * 2) / 2,
            snr_db=np.round(rng.uniform(-20.0, 5.0, n) * 4) / 4,
            elevation_deg=np.round(rng.uniform(10.0, 80.0, n), 1),
            azimuth_deg=np.round(rng.uniform(0.0, 360.0, n), 1),
            range_km=np.round(rng.uniform(500.0, 2500.0, n), 1),
            doppler_hz=np.round(rng.uniform(-9000.0, 9000.0, n)),
            raining=bool(index % 5 == 0),
            pass_id=f"{site}-{norad}-{index}",
        )
        produced += n
        index += 1


def _synthesize_passes(n_traces: int):
    return list(_iter_passes(n_traces))


# ---------------------------------------------------------------------------
# Row baseline: the pre-columnar representation, replicated verbatim
# (a list of dataclass rows with predicate-scan query helpers — this is
# what ``satiot.groundstation.traces.TraceDataset`` was before PR 2).

class _RowDataset:
    def __init__(self, traces=None):
        self._traces = list(traces or [])

    def extend(self, traces):
        self._traces.extend(traces)

    def __len__(self):
        return len(self._traces)

    def __iter__(self):
        return iter(self._traces)

    def filter(self, predicate):
        return _RowDataset(t for t in self._traces if predicate(t))

    def by_constellation(self, name):
        name = name.lower()
        return self.filter(lambda t: t.constellation.lower() == name)

    def by_site(self, site):
        return self.filter(lambda t: t.site == site)


def _build_rows(passes) -> list:
    pieces = []
    for p in passes:
        pieces.append([
            BeaconTrace(
                time_s=float(p["time_s"][i]), station_id=p["station_id"],
                site=p["site"], constellation=p["constellation"],
                satellite=p["satellite"], norad_id=p["norad_id"],
                frequency_hz=p["frequency_hz"],
                rssi_dbm=float(p["rssi_dbm"][i]),
                snr_db=float(p["snr_db"][i]),
                elevation_deg=float(p["elevation_deg"][i]),
                azimuth_deg=float(p["azimuth_deg"][i]),
                range_km=float(p["range_km"][i]),
                doppler_hz=float(p["doppler_hz"][i]),
                raining=p["raining"], pass_id=p["pass_id"])
            for i in range(p["n"])])
    return pieces


def _merge_rows(pieces) -> _RowDataset:
    merged = _RowDataset()
    for piece in pieces:
        merged.extend(piece)
    return merged


def _filter_rows(rows: _RowDataset, t_lo, t_hi) -> np.ndarray:
    sub = rows.by_site("HK").by_constellation("tianqi") \
        .filter(lambda t: t_lo <= t.time_s < t_hi)
    return np.asarray([t.rssi_dbm for t in sub])


# ---------------------------------------------------------------------------
# Columnar path

def _build_blocks(passes):
    return [TraceColumns.from_arrays(**p) for p in passes]


def _merge_blocks(blob) -> TraceDataset:
    ds = TraceDataset()
    for block in pickle.loads(blob):
        ds.extend(block)
    ds.columns          # force consolidation so merge cost is measured
    return ds


def _filter_columns(ds: TraceDataset, t_lo, t_hi) -> np.ndarray:
    cols = ds.columns
    times = cols.column("time_s")
    mask = (cols.string_column("site").mask_eq("HK")
            & cols.string_column("constellation").mask_eq(
                "tianqi", casefold=True)
            & (times >= t_lo) & (times < t_hi))
    return cols.column("rssi_dbm")[mask]


# ---------------------------------------------------------------------------

def _timeit(fn, *args, repeats: int = 1):
    """Best-of-``repeats`` wall time (GC paused so a collection of the
    row-object heap doesn't land inside a timed columnar op)."""
    result, best = None, None
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            result = fn(*args)
            elapsed = time.perf_counter() - start
        finally:
            gc.enable()
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def _merge_rows_blob(blob) -> _RowDataset:
    return _merge_rows(pickle.loads(blob))


def _measure(n_traces: int) -> dict:
    passes = _synthesize_passes(n_traces)
    t_lo, t_hi = 0.0, float(np.median(
        np.concatenate([p["time_s"] for p in passes])))
    repeats = 3 if n_traces <= 100_000 else 1
    def dumps(payload):
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)

    row_pieces, row_build = _timeit(_build_rows, passes)
    row_blob, row_ipc = _timeit(dumps, row_pieces)
    rows, row_merge = _timeit(_merge_rows_blob, row_blob,
                              repeats=repeats)
    row_hits, row_filter = _timeit(_filter_rows, rows, t_lo, t_hi,
                                   repeats=repeats)

    col_pieces, col_build = _timeit(_build_blocks, passes)
    col_blob, col_ipc = _timeit(dumps, col_pieces)
    dataset, col_merge = _timeit(_merge_blocks, col_blob,
                                 repeats=repeats)
    col_hits, col_filter = _timeit(_filter_columns, dataset, t_lo, t_hi,
                                   repeats=repeats)

    # Both representations agree before we quote any speedups.
    assert len(rows) == len(dataset) == n_traces
    assert np.array_equal(row_hits, col_hits)
    assert list(rows)[:50] == list(dataset[:50])

    OUTPUT_DIR.mkdir(exist_ok=True)
    sizes = {}
    for fmt in ("csv", "jsonl"):
        path = OUTPUT_DIR / f"trace_store_probe.{fmt}"
        dataset.save(path, trace_format=fmt)
        sizes[fmt] = path.stat().st_size
        path.unlink()
    sizes["v2"] = _v2_archive_bytes(dataset)

    return {
        "traces": n_traces, "passes": len(passes),
        "filter_hits": int(col_hits.size),
        "row": {"build_s": row_build, "merge_s": row_merge,
                "filter_s": row_filter, "pickle_s": row_ipc,
                "pickle_bytes": len(row_blob)},
        "columnar": {"build_s": col_build, "merge_s": col_merge,
                     "filter_s": col_filter, "pickle_s": col_ipc,
                     "pickle_bytes": len(col_blob),
                     "resident_bytes": dataset.nbytes},
        "merge_filter_speedup":
            (row_merge + row_filter) / max(col_merge + col_filter, 1e-9),
        "archive_bytes": sizes,
        "csv_over_v2": sizes["csv"] / max(sizes["v2"], 1),
    }


def _v2_archive_bytes(dataset: TraceDataset) -> int:
    """On-disk bytes of the dataset spilled as ``satiot-traces-v2``."""
    from satiot.streams.spill import ShardSpillWriter
    with tempfile.TemporaryDirectory() as tmp:
        writer = ShardSpillWriter(tmp, fingerprint="bench-trace-store")
        writer.write_dataset(dataset)
        writer.finalize()
        return sum(path.stat().st_size
                   for path in Path(tmp).rglob("*") if path.is_file())


def test_trace_store(benchmark):
    results = benchmark.pedantic(
        lambda: [_measure(n) for n in SIZES], rounds=1, iterations=1)

    for res in results:
        assert res["csv_over_v2"] >= 3.0, \
            (f"v2 archive not >=3x smaller than CSV at {res['traces']} "
             f"traces (ratio {res['csv_over_v2']:.2f}x)")

    checked = [r for r in results if r["traces"] >= 100_000]
    for res in checked:
        assert res["merge_filter_speedup"] >= 5.0, \
            (f"merge+filter speedup {res['merge_filter_speedup']:.1f}x "
             f"< 5x at {res['traces']} traces")
    if not checked:   # tiny mode: the columnar path must still win
        assert all(r["merge_filter_speedup"] > 1.0 for r in results)

    rows = []
    for res in results:
        row, col = res["row"], res["columnar"]
        rows.append([
            res["traces"],
            f"{row['build_s'] / max(col['build_s'], 1e-9):.1f}x",
            f"{row['merge_s'] / max(col['merge_s'], 1e-9):.1f}x",
            f"{row['filter_s'] / max(col['filter_s'], 1e-9):.1f}x",
            f"{res['merge_filter_speedup']:.1f}x",
            f"{row['pickle_s'] / max(col['pickle_s'], 1e-9):.1f}x",
            f"{row['pickle_bytes'] / max(col['pickle_bytes'], 1):.1f}x",
            f"{res['csv_over_v2']:.1f}x",
        ])
    table = format_table(
        ["Traces", "build", "merge", "filter", "merge+filter",
         "pickle", "IPC bytes", "CSV/v2"], rows,
        title="Trace store — columnar speedup over row objects "
              "(higher is better)")
    write_output("trace_store", table)
    write_json("trace_store", {"tiny": TINY, "sizes": results})


# ---------------------------------------------------------------------------
# Streaming tier: out-of-core spill in a child process, peak RSS asserted

def _kpis_json(kpis) -> str:
    """Canonical text form of a reducer's finalized KPIs.

    NaN survives ``json.dumps``/``loads`` and float repr round-trips
    float64 exactly, so string equality here is bit equality of every
    KPI value.
    """
    return json.dumps({"/".join(subject): values
                       for subject, values in kpis.items()},
                      sort_keys=True)


def _peak_rss_kib() -> int:
    """This process's own peak RSS in KiB.

    Reads ``VmHWM`` from ``/proc/self/status``.  On Linux ``ru_maxrss``
    survives ``exec``, so a child forked from a large parent (a long
    pytest session) reports the parent's peak, not its own; it is only
    the fallback where ``/proc`` is unavailable.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _stream_child(spec: dict) -> None:
    """Child-process body: synthesize, spill, fold — never hold the
    campaign in memory.  Emits one JSON line on stdout."""
    from satiot.streams.reducers import StreamingKpiReducer
    from satiot.streams.spill import ShardSpillWriter

    n_traces = spec["n_traces"]
    writer = ShardSpillWriter(
        spec["spill_dir"], rows_per_shard=spec["rows_per_shard"],
        fingerprint=f"bench-trace-store-{n_traces}")
    reducer = StreamingKpiReducer()
    t_max = 0.0
    start = time.perf_counter()
    for p in _iter_passes(n_traces):
        block = TraceColumns.from_arrays(**p)
        t_max = max(t_max, float(p["time_s"][-1]))
        writer.write(block)
        reducer.update(block)
    manifest = writer.finalize(meta={"engine": "bench_trace_store"})
    span_s = t_max + 1.0
    kpis = reducer.finalize(span_s)
    print(json.dumps({
        "maxrss_kib": _peak_rss_kib(),
        "rows": manifest["total_rows"],
        "shards": len(manifest["shards"]),
        "span_s": span_s,
        "wall_s": time.perf_counter() - start,
        "kpis_json": _kpis_json(kpis),
    }))


def _run_stream_child(n_traces: int, rows_per_shard: int,
                      spill_dir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    spec = json.dumps({"n_traces": n_traces,
                       "rows_per_shard": rows_per_shard,
                       "spill_dir": str(spill_dir)})
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__),
         "--stream-child", spec],
        capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(
            f"stream child failed (rc {proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _in_ram_kpis_json(n_traces: int) -> str:
    """Reference fold with the whole campaign materialized at once."""
    from satiot.streams.reducers import StreamingKpiReducer

    blocks = [TraceColumns.from_arrays(**p)
              for p in _iter_passes(n_traces)]
    whole = TraceColumns.concat(blocks)
    t_max = float(whole.column("time_s").max())
    reducer = StreamingKpiReducer()
    reducer.update(whole)
    return _kpis_json(reducer.finalize(t_max + 1.0))


def _bytes_per_row_estimate() -> float:
    probe = TraceDataset()
    for p in _iter_passes(6_000):
        probe.extend(TraceColumns.from_arrays(**p))
    return probe.nbytes / len(probe)


def _measure_streaming(n_traces: int) -> dict:
    # Clamp so even smoke sizes cut several shards.
    rows_per_shard = min(STREAM_ROWS_PER_SHARD,
                         max(10_000, n_traces // 4))
    with tempfile.TemporaryDirectory(prefix="satiot-bench-spill-") as tmp:
        spill_dir = Path(tmp) / "spill"
        child = _run_stream_child(n_traces, rows_per_shard, spill_dir)
        manifest = json.loads(
            (spill_dir / "manifest.json").read_text())

        assert child["rows"] == n_traces
        maxrss_mib = child["maxrss_kib"] / 1024.0
        assert maxrss_mib <= STREAM_RSS_BUDGET_MIB, \
            (f"streaming child peaked at {maxrss_mib:.0f} MiB "
             f"(> {STREAM_RSS_BUDGET_MIB:.0f} MiB budget) "
             f"at {n_traces} traces")

        # Streaming KPIs must reproduce the in-RAM fold exactly.  Up
        # to STREAM_IN_RAM_CHECK_MAX the reference is computed here in
        # one consolidated block; past it the campaign no longer fits
        # comfortably, so a second child with a different shard size
        # must agree bit-for-bit (partition invariance — the one-block
        # fold is just the coarsest partition).
        if n_traces <= STREAM_IN_RAM_CHECK_MAX:
            reference, check = _in_ram_kpis_json(n_traces), "in-ram"
        else:
            with tempfile.TemporaryDirectory(
                    prefix="satiot-bench-spill-alt-") as alt:
                sibling = _run_stream_child(
                    n_traces, int(rows_per_shard * 0.65),
                    Path(alt) / "spill")
            reference, check = sibling["kpis_json"], "repartition"
        assert child["kpis_json"] == reference, \
            f"streaming KPIs diverged from {check} fold at {n_traces}"

    return {
        "traces": n_traces,
        "rows_per_shard": rows_per_shard,
        "shards": child["shards"],
        "wall_s": child["wall_s"],
        "maxrss_mib": maxrss_mib,
        "rss_budget_mib": STREAM_RSS_BUDGET_MIB,
        "in_ram_bytes_est": int(n_traces * _BYTES_PER_ROW),
        "kpi_check": check,
        "manifest": manifest,
    }


_BYTES_PER_ROW = None


def _run_streaming_tier(sizes) -> list:
    global _BYTES_PER_ROW
    if _BYTES_PER_ROW is None:
        _BYTES_PER_ROW = _bytes_per_row_estimate()
    results = [_measure_streaming(n) for n in sizes]

    rows = []
    for res in results:
        rows.append([
            res["traces"], res["shards"],
            f"{res['maxrss_mib']:.0f} MiB",
            f"{res['rss_budget_mib']:.0f} MiB",
            f"{res['in_ram_bytes_est'] / 2**20:.0f} MiB",
            f"{res['wall_s']:.1f} s",
            res["kpi_check"],
        ])
    table = format_table(
        ["Traces", "shards", "peak RSS", "budget", "in-RAM est",
         "wall", "KPI check"], rows,
        title="Trace store — streaming spill tier (child-process "
              "peak RSS vs fixed budget)")
    write_output("trace_store_streaming", table)
    write_json("trace_store_streaming", {
        "tiny": TINY,
        "sizes": [{k: v for k, v in r.items() if k != "manifest"}
                  for r in results],
    })
    # CI artifact: the shard manifest of the largest spilled archive.
    write_json("trace_store_stream_manifest", results[-1]["manifest"])
    return results


def test_trace_store_streaming(benchmark):
    benchmark.pedantic(lambda: _run_streaming_tier(STREAM_SIZES),
                       rounds=1, iterations=1)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="trace-store streaming benchmark tier")
    parser.add_argument("--smoke", action="store_true",
                        help="smoke sizes regardless of "
                             "SATIOT_BENCH_TINY")
    parser.add_argument("--stream-child", metavar="SPEC",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.stream_child:
        _stream_child(json.loads(args.stream_child))
        return 0
    sizes = (100_000,) if args.smoke else STREAM_SIZES
    results = _run_streaming_tier(sizes)
    for res in results:
        print(f"{res['traces']} traces -> {res['shards']} shards, "
              f"peak RSS {res['maxrss_mib']:.0f} MiB "
              f"(budget {res['rss_budget_mib']:.0f} MiB), "
              f"KPI check: {res['kpi_check']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
