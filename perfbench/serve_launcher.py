"""Start ``satiot serve`` for the ``serve`` workload.

Runs the stock CLI verb (one process, default settings) on an ephemeral
port.  With ``--trace PATH`` it installs the benchmark's span wrappers
before the server is built; each SIGUSR1 turns recording on or off; on
exit (SIGINT) it writes the spans to PATH.  Its last stdout line is always
``PERFBENCH-RESULT {json}`` with the process's peak RSS and, when
traced, the per-layer totals.  The server also shuts down when its
stdin closes, so it never outlives a benchmark that dies.

    python3 perfbench/serve_launcher.py --constellations tianqi,fossa
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--constellations", required=True)
    parser.add_argument("--trace", default=None, metavar="PATH")
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    sys.stdout.reconfigure(line_buffering=True)

    start = time.perf_counter()
    from satiot import cli
    import satiot.serving  # noqa: F401  (the server's own imports)
    print(f"PERFBENCH import_s {time.perf_counter() - start!r}")

    tracer = None
    if args.trace:
        from perfbench.tracing import Tracer
        tracer = Tracer()
        tracer.install()

        def toggle_tracing(signum, frame):
            # The client only toggles between blocks, with no request in
            # flight, so cache deltas settle at a quiet point.
            tracer.enabled = not tracer.enabled
            if not tracer.enabled:
                tracer.settle_caches()
            os.write(sys.stdout.fileno(), b"PERFBENCH tracing %s\n"
                     % (b"on" if tracer.enabled else b"off"))
        signal.signal(signal.SIGUSR1, toggle_tracing)

    def shut_down_on_eof():
        for _ in sys.stdin:
            pass
        os.kill(os.getpid(), signal.SIGINT)
    threading.Thread(target=shut_down_on_eof, daemon=True).start()

    code = cli.main(["serve", "--port", "0", "--workers", "1",
                     "--constellations", args.constellations])
    report = {"exit_code": code,
              "peak_rss_kib": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.enabled = False
        tracer.settle_caches()
        tracer.write_spans(args.trace)
        report["totals"] = tracer.totals()
    print("PERFBENCH-RESULT " + json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
