"""Catalog-scale fleet sweep: 5 000 satellites through the full stack.

Exercises the PR 6 tentpole end to end against the committed fixture
(``tests/fixtures/megaconst_5k.3le.gz`` — the five-shell ``MEGA``
constellation):

* **ingest** — strict 3LE parse (checksums verified) of all 5 000
  element sets into an in-memory :class:`~satiot.catalog.db.TleDb`
  with name-derived shell groups;
* **select** — materializing the whole catalog into a
  :class:`~satiot.catalog.bridge.FleetSelection` (rows → verbatim-line
  parses → 5 000 ``SGP4`` propagators + the joint fleet fingerprint);
* **sweep** — one :func:`~satiot.catalog.bridge.fleet_passes` call,
  5 000 satellites x a multi-site observer set, flowing through
  ``SGP4Batch`` / ``find_passes_fleet``; per-shell pass statistics are
  reduced from the result.

* **disk** — the same sweep through an
  :class:`~satiot.runtime.EphemerisCache` writing a fresh segment
  directory (cold), then through a second cache over that directory
  (warm).

Asserted contract, checked in the timed run: a sampled subset of
satellites (spread across all five shells) produces windows **equal
field-for-field** to per-satellite ``PassPredictor.find_passes`` — the
catalog path inherits the batch layer's bit-identity guarantee.  The
cold and warm disk sweeps return windows equal to the in-memory sweep,
and a fill writes as many files for the whole fleet as for one
satellite (one segment).  Disk timings are reported, not asserted.

Metrics land in ``benchmarks/output/catalog_sweep.json`` (CI artifact)
next to the human-readable table.  ``--smoke`` shortens the horizon
and observer set but still sweeps all 5 000 satellites.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional

from satiot.catalog import (TleDb, fleet_passes, select_fleet,
                            shell_groups)
from satiot.orbits.frames import GeodeticPoint
from satiot.orbits.passes import PassPredictor
from satiot.runtime.ephemeris_cache import EphemerisCache

from conftest import write_json, write_output

FIXTURE = (Path(__file__).parent.parent
           / "tests" / "fixtures" / "megaconst_5k.3le.gz")

MIN_ELEVATION_DEG = 10.0

#: Observer sets: a paper-style site triplet for smoke, plus extra
#: coverage sites for the full run.
SMOKE_SITES = [GeodeticPoint(22.3, 114.2, 0.0),    # Hong Kong
               GeodeticPoint(51.5, -0.1, 0.0),     # London
               GeodeticPoint(-33.9, 151.2, 0.0)]   # Sydney
FULL_SITES = SMOKE_SITES + [GeodeticPoint(64.1, -21.9, 0.0),   # Reykjavik
                            GeodeticPoint(1.35, 103.8, 0.0)]   # Singapore


def _verify_sampled_identity(selection, observers, duration_s: float,
                             coarse_step_s: float,
                             results, sample_per_shell: int = 1) -> int:
    """Sampled windows must equal the per-satellite scalar path."""
    verified = 0
    for group, indices in shell_groups(selection).items():
        stride = max(1, len(indices) // sample_per_shell)
        for index in indices[::stride][:sample_per_shell]:
            prop = selection.propagators[index]
            for m, obs in enumerate(observers):
                reference = PassPredictor(
                    prop, obs,
                    min_elevation_deg=MIN_ELEVATION_DEG).find_passes(
                        selection.epoch, duration_s,
                        coarse_step_s=coarse_step_s, refine="interp")
                assert list(results[index][m]) == reference, (
                    f"windows diverged from per-satellite path at "
                    f"{group} member {index}, observer {m}")
                verified += 1
    return verified


def _shell_stats(selection, observers, results) -> List[dict]:
    rows = []
    for group, indices in shell_groups(selection).items():
        windows = [w for i in indices for m in range(len(observers))
                   for w in results[i][m]]
        count = len(windows)
        rows.append({
            "shell": group,
            "satellites": len(indices),
            "windows": count,
            "mean_duration_s": round(
                sum(w.duration_s for w in windows) / count, 3)
            if count else 0.0,
            "mean_max_elevation_deg": round(
                sum(w.max_elevation_deg for w in windows) / count, 3)
            if count else 0.0,
        })
    return rows


def _disk_phase(selection, observers, duration_s: float,
                coarse_step_s: float, reference) -> dict:
    """Sweep through a fresh segment directory, then re-read it."""
    def sweep(cache, propagators=None):
        start = time.perf_counter()
        results = cache.find_passes_fleet(
            selection.propagators if propagators is None
            else propagators, observers, selection.epoch, duration_s,
            coarse_step_s=coarse_step_s,
            min_elevation_deg=MIN_ELEVATION_DEG, refine="interp")
        return results, time.perf_counter() - start

    with tempfile.TemporaryDirectory(prefix="satiot-catalog-") as tmp:
        fleet_dir = Path(tmp) / "fleet"
        cold, cold_s = sweep(EphemerisCache(disk_dir=fleet_dir))
        fleet_files = sorted(fleet_dir.iterdir())
        warm, warm_s = sweep(EphemerisCache(disk_dir=fleet_dir))
        one_dir = Path(tmp) / "one"
        sweep(EphemerisCache(disk_dir=one_dir),
              selection.propagators[:1])
        one_files = sorted(one_dir.iterdir())
        disk_bytes = sum(path.stat().st_size for path in fleet_files)
    assert cold == reference, "cold disk sweep diverged from memory"
    assert warm == reference, "warm disk sweep diverged from memory"
    assert len(fleet_files) == len(one_files), (
        f"a {len(selection.propagators)}-satellite fill wrote "
        f"{len(fleet_files)} files, a 1-satellite fill "
        f"{len(one_files)}")
    return {"cold_s": round(cold_s, 6), "warm_s": round(warm_s, 6),
            "files_per_fill": len(fleet_files),
            "files_per_fill_one_satellite": len(one_files),
            "bytes": disk_bytes}


def run_benchmark(smoke: bool) -> dict:
    duration_s = (2.0 if smoke else 24.0) * 3600.0
    coarse_step_s = 60.0
    observers = SMOKE_SITES if smoke else FULL_SITES

    t0 = time.perf_counter()
    db = TleDb(":memory:")
    stats = db.insert_file(FIXTURE, group_from_name=True)
    ingest_s = time.perf_counter() - t0
    assert stats.inserted == 5000, f"fixture ingest: {stats}"

    t0 = time.perf_counter()
    selection = select_fleet(db)
    n_props = len(selection.propagators)   # forces the lazy build
    fingerprint = selection.fingerprint
    select_s = time.perf_counter() - t0
    assert n_props == 5000

    t0 = time.perf_counter()
    results = fleet_passes(selection, observers, duration_s,
                           cache=False, coarse_step_s=coarse_step_s,
                           min_elevation_deg=MIN_ELEVATION_DEG)
    sweep_s = time.perf_counter() - t0

    verified = _verify_sampled_identity(selection, observers,
                                        duration_s, coarse_step_s,
                                        results)
    shells = _shell_stats(selection, observers, results)
    total_windows = sum(row["windows"] for row in shells)
    disk = _disk_phase(selection, observers, duration_s, coarse_step_s,
                       results)

    payload = {
        "benchmark": "catalog_sweep",
        "smoke": smoke,
        "fixture": FIXTURE.name,
        "fingerprint": fingerprint,
        "n_sats": n_props,
        "n_obs": len(observers),
        "duration_s": duration_s,
        "coarse_step_s": coarse_step_s,
        "min_elevation_deg": MIN_ELEVATION_DEG,
        "ingest_s": round(ingest_s, 6),
        "select_s": round(select_s, 6),
        "sweep_s": round(sweep_s, 6),
        "sats_per_s": round(n_props / sweep_s, 1),
        "windows": total_windows,
        "identity_checks": verified,
        "shells": shells,
        "disk": disk,
    }
    write_json("catalog_sweep", payload)

    lines = [f"Catalog sweep — 5 000-satellite MEGA fixture "
             f"({'smoke' if smoke else 'full'}, "
             f"{duration_s / 3600.0:.0f} h @ {coarse_step_s:.0f} s, "
             f"{len(observers)} sites)",
             f"  ingest {ingest_s:6.2f} s   select {select_s:6.2f} s   "
             f"sweep {sweep_s:6.2f} s ({payload['sats_per_s']:.0f} "
             f"sats/s)   {total_windows} windows"]
    for row in shells:
        lines.append(
            f"  {row['shell']:14s} {row['satellites']:5d} sats  "
            f"{row['windows']:6d} windows  "
            f"mean {row['mean_duration_s']:6.1f} s @ "
            f"{row['mean_max_elevation_deg']:5.1f} deg max el")
    lines.append(f"  bit-identity: {verified} sampled "
                 f"(satellite, observer) pass lists equal the "
                 f"per-satellite scalar path")
    lines.append(f"  disk tier: cold {disk['cold_s']:6.2f} s   warm "
                 f"{disk['warm_s']:6.2f} s   "
                 f"{disk['files_per_fill']} files "
                 f"({disk['bytes'] / 2**20:.1f} MiB) per fill, "
                 f"{disk['files_per_fill_one_satellite']} for one "
                 f"satellite; windows equal the memory sweep")
    write_output("catalog_sweep", "\n".join(lines))
    return payload


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="catalog-scale 5k-satellite fleet sweep benchmark")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (2 h horizon, 3 sites; "
                             "still all 5 000 satellites)")
    args = parser.parse_args(argv)
    run_benchmark(smoke=args.smoke)
    return 0


if __name__ == "__main__":
    sys.exit(main())
