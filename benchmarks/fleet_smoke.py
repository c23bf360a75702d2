#!/usr/bin/env python
"""CI smoke: ``satiot serve --workers 2`` is byte-identical to 1 worker.

Drives the real CLI end to end — fork, port parsing from the banner,
SIGINT shutdown — not the in-process ServingFleet API (the test suite
covers that).  A deterministic request burst is replayed against

* ``--workers 1``  (the plain single-process server), then
* ``--workers 2``  (a supervised fleet),

and every response body must match byte for byte.  Two more probes sit
in the first probe's 0.01-degree cell (the default ``cache_decimals``):
a query is answered at its rounded site, so at both worker counts their
bodies must equal that probe's, whichever worker serves them.  Exit
status is the verdict, so CI can run this file directly:

    PYTHONPATH=src python benchmarks/fleet_smoke.py
"""

import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time

BANNER = re.compile(r"satiot serving on http://[\d.]+:(\d+)")


def passes_path(lat: float, lon: float) -> str:
    return (f"/v1/passes?constellation=pico&lat={lat:.6f}&lon={lon:.6f}"
            f"&horizon_s=3600&min_elevation_deg=10")


PATHS = tuple(passes_path(lat, lon) for lat, lon in (
    (22.3, 114.2), (-33.9, 18.4), (64.1, -21.9), (1.35, 103.8),
    (48.85, 2.35), (-12.05, -77.05)))
#: Other points of ``PATHS[0]``'s cell.
SAME_CELL = tuple(passes_path(lat, 114.2) for lat in (22.3012, 22.3044))


def start_server(workers: int, cache_dir: str):
    cmd = [sys.executable, "-m", "satiot", "serve", "--port", "0",
           "--constellations", "pico", "--step", "120",
           "--workers", str(workers), "--cache-dir", cache_dir]
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True,
                            env=env)
    deadline = time.monotonic() + 180.0
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server (workers={workers}) exited before its banner "
                f"(rc={proc.poll()})")
        sys.stdout.write(line)
        match = BANNER.search(line)
        if match:
            return proc, int(match.group(1))
    proc.kill()
    raise RuntimeError(f"no banner within 180 s (workers={workers})")


def fetch(port: int, path: str, retries: int = 100) -> bytes:
    last = None
    for _ in range(retries):
        try:
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=10.0) as sock:
                sock.sendall((f"GET {path} HTTP/1.1\r\nHost: s\r\n"
                              f"Connection: close\r\n\r\n").encode())
                data = b""
                while chunk := sock.recv(65536):
                    data += chunk
            head, sep, body = data.partition(b"\r\n\r\n")
            if not sep:
                raise OSError("truncated response")
            status = int(head.split(b" ", 2)[1])
            if status != 200:
                raise RuntimeError(f"{path} -> {status}: {body[:200]}")
            return body
        except OSError as error:
            last = error
            time.sleep(0.05)
    raise RuntimeError(f"unreachable after {retries} tries: {last}")


def burst(workers: int, cache_dir: str):
    proc, port = start_server(workers, cache_dir)
    try:
        return [fetch(port, path) for path in PATHS + SAME_CELL]
    finally:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def main() -> int:
    with tempfile.TemporaryDirectory(
            prefix="satiot-fleet-smoke-") as cache_dir:
        single = burst(1, cache_dir)
        fleet = burst(2, cache_dir)
    mismatches = [path for path, a, b in zip(PATHS, single, fleet)
                  if a != b]
    if mismatches:
        print(f"FAIL: {len(mismatches)}/{len(PATHS)} payloads differ "
              f"between --workers 1 and --workers 2:")
        for path in mismatches:
            print(f"  {path}")
        return 1
    off_cell = [f"{path} (--workers {workers})"
                for workers, bodies in ((1, single), (2, fleet))
                for path, body in zip(SAME_CELL, bodies[len(PATHS):])
                if body != bodies[0]]
    if off_cell:
        print(f"FAIL: {len(off_cell)} same-cell payloads differ from "
              f"their cell's first probe:")
        for line in off_cell:
            print(f"  {line}")
        return 1
    print(f"OK: {len(PATHS)}/{len(PATHS)} payloads byte-identical "
          f"across --workers 1 and --workers 2, and {len(SAME_CELL)} "
          f"same-cell probes equal their cell's at both")
    return 0


if __name__ == "__main__":
    sys.exit(main())
