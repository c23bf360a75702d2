"""Write ``sgp4_golden.npz``: reference SGP4 states for the golden test.

The fixture holds the verbatim two-line element sets of the paper's 39
study satellites (``build_all_constellations`` at its default seed)
plus four edge cases, and the TEME ``(r, v)`` that ``SGP4.propagate``
returns for each of them on one shared absolute time grid:

* ``isimp``: a 200 km orbit, below the simple-drag perigee cutoff;
* ``e=0.03``: an eccentric 1,200 km orbit;
* ``high-drag``: a 300 km orbit with B* = 2e-3 that loses altitude
  fast over the grid but does not decay;
* ``negative-time``: an element set whose epoch lies 2.5 days after
  the grid's reference epoch, so every instant propagates backwards.

Row 0's epoch is the reference: satellite ``n`` is propagated at
``float(epoch_0 - epoch_n) + offsets_s``.  The commit of the imported
``satiot`` and the NumPy version are stored beside the vectors.

Regenerate only on purpose, from a clean checkout whose kernel is
trusted (the vectors are what ``tests/orbits/test_sgp4.py`` holds the
propagator to)::

    PYTHONPATH=src python tests/fixtures/make_sgp4_golden.py
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

import numpy as np

import satiot
from satiot.constellations.catalog import build_all_constellations
from satiot.orbits.kepler import mean_motion_rev_day_from_altitude
from satiot.orbits.sgp4 import SGP4
from satiot.orbits.tle import TLE, format_tle, parse_tle

#: Shared grid: 6 h before the reference epoch to 2 days after it.
OFFSETS_S = np.linspace(-6 * 3600.0, 2 * 86400.0, 32)


def _case_lines(name: str, norad_id: int, altitude_km: float,
                eccentricity: float = 0.001, bstar: float = 1.0e-5,
                epochdays: float = 245.0):
    tle = TLE(
        name=name, norad_id=norad_id, classification="U",
        intl_designator="24001A", epochyr=24, epochdays=epochdays,
        ndot=0.0, nddot=0.0, bstar=bstar, ephemeris_type=0,
        element_set_no=999, inclination_deg=49.97, raan_deg=120.0,
        eccentricity=eccentricity, argp_deg=30.0, mean_anomaly_deg=10.0,
        mean_motion_rev_day=mean_motion_rev_day_from_altitude(altitude_km),
        rev_number=1)
    return (name, *format_tle(tle))


def element_sets():
    """``(name, line1, line2)`` of every satellite in the fixture."""
    rows = [(sat.tle.name, *format_tle(sat.tle))
            for con in build_all_constellations().values()
            for sat in con]
    rows += [
        _case_lines("isimp", 90001, 200.0),
        _case_lines("e=0.03", 90002, 1200.0, eccentricity=0.03),
        _case_lines("high-drag", 90003, 300.0, bstar=2.0e-3),
        _case_lines("negative-time", 90004, 850.0, epochdays=247.5),
    ]
    return rows


def _commit() -> str:
    root = Path(satiot.__file__).resolve().parents[2]
    try:
        return subprocess.run(
            ["git", "-C", str(root), "describe", "--always", "--dirty",
             "--abbrev=40"], capture_output=True, text=True,
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).with_name("sgp4_golden.npz"))
    args = parser.parse_args(argv)

    names, line1, line2 = zip(*element_sets())
    tles = [parse_tle(a, b, name=n) for n, a, b in zip(names, line1, line2)]
    epoch = tles[0].epoch
    r = np.empty((len(tles), OFFSETS_S.size, 3))
    v = np.empty_like(r)
    for n, tle in enumerate(tles):
        r[n], v[n] = SGP4(tle).propagate(float(epoch - tle.epoch)
                                         + OFFSETS_S)
    commit = _commit()
    np.savez_compressed(
        args.out, names=np.array(names), line1=np.array(line1),
        line2=np.array(line2), offsets_s=OFFSETS_S, r_km=r, v_km_s=v,
        commit=np.array(commit), numpy_version=np.array(np.__version__))
    print(f"wrote {args.out}: {len(tles)} satellites x {OFFSETS_S.size} "
          f"instants ({commit}, NumPy {np.__version__})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
