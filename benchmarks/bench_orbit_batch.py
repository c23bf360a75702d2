"""Batched SGP4 fleet pass search vs one call per (satellite, observer).

Benchmarks the PR 4 tentpole at three fleet sizes x two observer-grid
sizes (10 / 39 / 200 satellites x 8 / 27 sites).  Both sides run the
same SGP4 kernel; they differ in how many calls they make:

* **coarse phase** — producing the ECEF coarse grid every pass search
  starts from.  Per-pair baseline: N x M one-row calls, one
  ``SGP4.propagate`` plus one ``teme_to_ecef`` rotation per
  (satellite, observer) pair — exactly what per-site ``PassPredictor``
  calls used to cost across a site sweep with no cross-site sharing.
  Batched path: one ``SGP4Batch`` propagation of the ``(N, T, 3)``
  stack plus one rotation with GMST derived once.
* **full pipeline** — complete window prediction with interp
  refinement: nested per-(satellite, observer) ``find_passes`` vs one
  ``find_passes_fleet``.

Asserted contracts (the ISSUE acceptance numbers), checked in the same
run that is timed:

* batched ``(r, v)`` rows are **bit-identical** (``np.array_equal``)
  to each satellite's own ``SGP4.propagate`` output;
* fleet pass lists equal the nested per-pair pass lists window for
  window, field for field;
* the coarse phase is >= 5x faster at 39 satellites x 27 sites.

Metrics land in ``benchmarks/output/orbit_batch.json`` (CI artifact)
next to the human-readable table.  ``--smoke`` shrinks the horizon and
drops the 200-satellite fleet for CI.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from satiot.constellations.catalog import build_all_constellations
from satiot.constellations.shells import ShellSpec, generate_shell_tles
from satiot.core.sites import SITES
from satiot.orbits.frames import GeodeticPoint, teme_to_ecef
from satiot.orbits.passes import PassPredictor, find_passes_fleet
from satiot.orbits.sgp4 import SGP4
from satiot.orbits.sgp4_batch import SGP4Batch

from conftest import SEED, write_json, write_output

COARSE_STEP_S = 30.0
MIN_ELEVATION_DEG = 10.0
#: acceptance floor: coarse-grid phase at 39 sats x 27 sites
SPEEDUP_FLOOR = 5.0
ANCHOR = (39, 27)


# ---------------------------------------------------------------------------
# Workload construction (deterministic)

def _study_fleet(seed: int) -> List[SGP4]:
    """The paper's 39-satellite Table-3 catalog."""
    constellations = build_all_constellations(seed=seed)
    return [sat.propagator for con in constellations.values()
            for sat in con]


def _shell_fleet(count: int, seed: int) -> List[SGP4]:
    """A synthetic Walker-style shell for beyond-catalog sizes."""
    tles = generate_shell_tles(
        ShellSpec(name="bench", count=count, altitude_min_km=500.0,
                  altitude_max_km=620.0, inclination_deg=97.5),
        epochyr=24, epochdays=250.5, norad_base=90000, seed=seed)
    return [SGP4(tle) for tle in tles]


def _fleet(n_sats: int, seed: int) -> List[SGP4]:
    study = _study_fleet(seed)
    if n_sats <= len(study):
        return study[:n_sats]
    return _shell_fleet(n_sats, seed)


def _observers(n_obs: int) -> List[GeodeticPoint]:
    if n_obs <= len(SITES):
        return [site.location for site in list(SITES.values())[:n_obs]]
    # 3 latitude bands x 9 longitudes = 27 coverage sites.
    observers = []
    for lat in (-45.0, 0.0, 45.0):
        for k in range(9):
            observers.append(GeodeticPoint(lat, -180.0 + 40.0 * k, 0.0))
    return observers[:n_obs]


# ---------------------------------------------------------------------------
# Timed phases

def _time_best(fn, repeats: int) -> Tuple[float, object]:
    best = float("inf")
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def _coarse_per_pair(props: Sequence[SGP4], observers, epoch,
                     offsets: np.ndarray):
    """Per-(satellite, observer) propagation + rotation baseline."""
    jd = epoch.offset_jd(offsets)
    out = []
    for prop in props:
        delta = float(epoch - prop.tle.epoch)
        per_obs = []
        for _ in observers:
            r, v = prop.propagate(delta + offsets)
            per_obs.append(teme_to_ecef(r, jd))
        out.append(per_obs)
    return out


def _coarse_batched(props: Sequence[SGP4], epoch, offsets: np.ndarray):
    """One stacked propagation, one rotation for the whole fleet."""
    batch = SGP4Batch.from_propagators(props)
    r, v = batch.propagate_offsets(epoch, offsets)
    jd = epoch.offset_jd(offsets)
    return r, v, teme_to_ecef(r, jd)


def _passes_per_pair(props: Sequence[SGP4], observers, epoch,
                     duration_s: float):
    return [[PassPredictor(prop, obs,
                           min_elevation_deg=MIN_ELEVATION_DEG)
             .find_passes(epoch, duration_s,
                          coarse_step_s=COARSE_STEP_S, refine="interp")
             for obs in observers]
            for prop in props]


def _passes_fleet(props: Sequence[SGP4], observers, epoch,
                  duration_s: float):
    return find_passes_fleet(
        props, observers, epoch, duration_s,
        coarse_step_s=COARSE_STEP_S,
        min_elevation_deg=MIN_ELEVATION_DEG, refine="interp")


# ---------------------------------------------------------------------------
def _run_scenario(n_sats: int, n_obs: int, duration_s: float,
                  seed: int, repeats: int) -> dict:
    props = _fleet(n_sats, seed)
    observers = _observers(n_obs)
    epoch = props[0].tle.epoch
    offsets = PassPredictor.coarse_offsets(duration_s, COARSE_STEP_S)

    per_pair_coarse_s, per_pair_grids = _time_best(
        lambda: _coarse_per_pair(props, observers, epoch, offsets),
        repeats)
    batch_coarse_s, (r_batch, v_batch, _) = _time_best(
        lambda: _coarse_batched(props, epoch, offsets), repeats)

    # Bit-identity of the stacked states against per-satellite calls.
    for i, prop in enumerate(props):
        tsince = float(epoch - prop.tle.epoch) + offsets
        r_ref, v_ref = prop.propagate(tsince)
        assert np.array_equal(r_batch[i], r_ref), \
            f"r diverged for satellite {prop.tle.norad_id}"
        assert np.array_equal(v_batch[i], v_ref), \
            f"v diverged for satellite {prop.tle.norad_id}"
    del per_pair_grids

    per_pair_full_s, per_pair_passes = _time_best(
        lambda: _passes_per_pair(props, observers, epoch, duration_s), 1)
    fleet_full_s, fleet_passes = _time_best(
        lambda: _passes_fleet(props, observers, epoch, duration_s), 1)

    # Identical pass lists, window for window.
    windows = 0
    for n in range(len(props)):
        for m in range(len(observers)):
            assert list(fleet_passes[n][m]) == per_pair_passes[n][m], \
                f"pass list diverged at satellite {n}, observer {m}"
            windows += len(per_pair_passes[n][m])

    return {
        "n_sats": n_sats,
        "n_obs": n_obs,
        "duration_s": duration_s,
        "grid_points": int(offsets.size),
        "windows": windows,
        "coarse_per_pair_s": round(per_pair_coarse_s, 6),
        "coarse_batched_s": round(batch_coarse_s, 6),
        "coarse_speedup": round(per_pair_coarse_s / batch_coarse_s, 2),
        "full_per_pair_s": round(per_pair_full_s, 6),
        "full_fleet_s": round(fleet_full_s, 6),
        "full_speedup": round(per_pair_full_s / fleet_full_s, 2),
    }


def run_benchmark(smoke: bool, seed: int = SEED) -> dict:
    duration_s = (6.0 if smoke else 24.0) * 3600.0
    repeats = 2 if smoke else 3
    scenarios = [(10, 8), (39, 8), (39, 27)]
    if not smoke:
        scenarios += [(200, 8), (200, 27)]

    rows = [_run_scenario(n_sats, n_obs, duration_s, seed, repeats)
            for n_sats, n_obs in scenarios]

    anchor = next(r for r in rows
                  if (r["n_sats"], r["n_obs"]) == ANCHOR)
    payload = {
        "benchmark": "orbit_batch",
        "smoke": smoke,
        "coarse_step_s": COARSE_STEP_S,
        "min_elevation_deg": MIN_ELEVATION_DEG,
        "refine": "interp",
        "speedup_floor": SPEEDUP_FLOOR,
        "anchor": {"n_sats": ANCHOR[0], "n_obs": ANCHOR[1],
                   "coarse_speedup": anchor["coarse_speedup"],
                   "full_speedup": anchor["full_speedup"]},
        "scenarios": rows,
    }
    write_json("orbit_batch", payload)

    lines = [f"Fleet pass search — one fleet call vs N x M per-pair calls "
             f"({'smoke' if smoke else 'full'}, "
             f"{duration_s / 3600.0:.0f} h @ {COARSE_STEP_S:.0f} s)"]
    for row in rows:
        lines.append(
            f"  {row['n_sats']:4d} sats x {row['n_obs']:2d} sites  "
            f"coarse {row['coarse_per_pair_s'] * 1e3:9.1f} -> "
            f"{row['coarse_batched_s'] * 1e3:8.1f} ms "
            f"({row['coarse_speedup']:6.1f}x)   "
            f"full {row['full_per_pair_s']:7.2f} -> "
            f"{row['full_fleet_s']:6.2f} s "
            f"({row['full_speedup']:5.1f}x)   "
            f"{row['windows']:5d} windows")
    lines.append(
        f"  bit-identity: (r, v) rows and all pass lists verified "
        f"in-run; floor {SPEEDUP_FLOOR:.0f}x coarse at "
        f"{ANCHOR[0]}x{ANCHOR[1]}")
    write_output("orbit_batch", "\n".join(lines))

    assert anchor["coarse_speedup"] >= SPEEDUP_FLOOR, (
        f"coarse-grid speedup only {anchor['coarse_speedup']:.2f}x at "
        f"{ANCHOR[0]} sats x {ANCHOR[1]} sites "
        f"(need >= {SPEEDUP_FLOOR}x)")
    return payload


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="batched SGP4 fleet pass-search benchmark")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (6 h horizon, no "
                             "200-satellite fleet)")
    parser.add_argument("--seed", type=int, default=SEED)
    args = parser.parse_args(argv)
    run_benchmark(smoke=args.smoke, seed=args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
