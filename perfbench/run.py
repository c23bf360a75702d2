"""satiot benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 25 --trace 0

Runs from a checkout of the repository (the program is imported from
``src/``).  Inputs are generated from ``--seed`` before timing, set-up
is repeated ``SETUP_REPEATS`` times, each in a fresh process, then the
workload runs closed loop for ``--seconds``.  Every output is checked;
checking is not timed.  The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the ``end_to_end`` metrics of BENCHMARK.json, or its ``per_layer``
metrics with ``--trace 1``).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"

#: How many fresh processes one run sets up (``setup_s`` is the median).
SETUP_REPEATS = 3
#: Last stdout line of a ``--setup-probe`` run.
SETUP_PROBE_TAG = "PERFBENCH-SETUP "
#: Traced runs time a fixed number of ops, so their counts repeat:
#: in-process workloads run one op per this many seconds of
#: ``--seconds``, ``serve`` this many requests per second of it, in
#: alternating untraced and traced blocks so host speed drift cancels.
TRACED_SECONDS_PER_OP = 8
TRACED_REQUESTS_PER_SECOND = 20
TRACED_SERVE_BLOCK_PAIRS = 3


def _prepare() -> None:
    """Import the program from this checkout's ``src/``, with none of
    the ``SATIOT_*`` switches of the calling environment."""
    if not (SRC / "satiot" / "__init__.py").is_file():
        print(f"perfbench: no satiot sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    for key in [k for k in os.environ if k.startswith("SATIOT_")]:
        del os.environ[key]
    sys.path[:0] = [str(SRC), str(ROOT)]
    # Locate the package without importing it: importing is set-up.
    spec = importlib.util.find_spec("satiot")
    origin = spec.origin if spec is not None else None
    if origin is None or Path(origin).resolve().parent != SRC / "satiot":
        print(f"perfbench: satiot found at {origin}, not under {SRC}",
              file=sys.stderr)
        sys.exit(2)


def _metric_units() -> Dict[str, Dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


# ----------------------------------------------------------------------
# Fingerprint
# ----------------------------------------------------------------------
def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "satiot").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(seed: int) -> dict:
    import numpy
    return {"commit": _commit(), "source_sha256": _source_digest(),
            "cpu": _cpu_model(), "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "seed": seed}


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def percentile(values: List[float], q: int) -> float:
    """``q``-th percentile, inclusive method (the median for q=50);
    0 when no op succeeded (the run then reports ``correct: false``)."""
    if len(values) <= 1:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _medians(rows: List[Dict[str, float]]) -> Dict[str, float]:
    keys = sorted({key for row in rows for key in row})
    return {key: statistics.median(row.get(key, 0.0) for row in rows)
            for key in keys}


class Outcome:
    """Latencies and failures of the ops a run attempted."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.attempted = 0
        self.failures: List[str] = []

    def add(self, seconds: float, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append("; ".join(problems))
        else:
            self.latencies.append(seconds)

    @classmethod
    def of(cls, results: Dict[int, tuple],
           failures: Dict[int, str]) -> "Outcome":
        """Outcome of served requests (index -> (seconds, ...))."""
        outcome = cls()
        for index in sorted(results):
            problem = failures.get(index)
            outcome.add(results[index][0], [problem] if problem else [])
        return outcome

    def p50_ms(self) -> float:
        return percentile(self.latencies, 50) * 1e3


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def _set_up(workload, **kwargs) -> Tuple[Dict[str, float], float]:
    """One set-up: (seconds per part, total seconds)."""
    start = time.perf_counter()
    layers = workload.set_up(**kwargs)
    return layers, time.perf_counter() - start


def _fresh_set_up(args) -> Tuple[Dict[str, float], float]:
    """One set-up in a fresh interpreter running this script with
    ``--setup-probe``, so every repetition pays first-call costs."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "0", "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=150)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines \
            or not lines[-1].startswith(SETUP_PROBE_TAG):
        raise RuntimeError(f"set-up probe failed ({done.returncode}):\n"
                           + done.stderr[-2000:])
    probe = json.loads(lines[-1][len(SETUP_PROBE_TAG):])
    return probe["layers"], probe["seconds"]


def _check(workload, k: int, output) -> List[str]:
    """The op's output problems; a check that raises is one."""
    try:
        return workload.check(k, output)
    except Exception:  # a check that raises fails the op, not the run
        return [traceback.format_exc()]


def _one_op(workload, k: int, outcome: Outcome, tracer=None) -> float:
    """Run and check op ``k``; returns the seconds spent after the op
    (checking it), which no timing includes."""
    from perfbench.tracing import OP_ID
    start = time.perf_counter()
    try:
        if tracer is not None:
            OP_ID.set(k)
            tracer.enabled = True
        try:
            output = workload.run_op(k)
        finally:
            if tracer is not None:
                tracer.enabled = False
    except Exception:  # an op that raises is a failed op, not a crash
        elapsed = time.perf_counter() - start
        outcome.add(elapsed, [traceback.format_exc()])
        return time.perf_counter() - start - elapsed
    elapsed = time.perf_counter() - start
    if tracer is not None:
        workload.after_op(output)
    outcome.add(elapsed, _check(workload, k, output))
    return time.perf_counter() - start - elapsed


def timed_loop(workload, seconds: float, outcome: Outcome) -> float:
    """Closed loop of ops until ``seconds`` of op time have passed;
    returns that op time (wall time minus the time spent checking)."""
    start = time.perf_counter()
    checking = 0.0
    k = 0
    while True:
        checking += _one_op(workload, k, outcome)
        k += 1
        if time.perf_counter() - start - checking >= seconds:
            return time.perf_counter() - start - checking


def run_in_process(workload, args, trace: bool) -> dict:
    repeats = [_fresh_set_up(args) for _ in range(SETUP_REPEATS - 1)]
    repeats.append(_set_up(workload))
    outcome = Outcome()
    warmup = _check(workload, -1, workload.warmup_output)
    workload.warmup_output = None
    if warmup:
        outcome.add(0.0, ["warm-up op: " + "; ".join(warmup)])
    report = {"setup_layers": _medians([r[0] for r in repeats]),
              "setup_seconds": [r[1] for r in repeats],
              "outcome": outcome}
    if not trace:
        report["elapsed"] = timed_loop(workload, args.seconds, outcome)
        report["peak_rss_kib"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
        return report
    # Each op runs untraced, then again traced on the same inputs, so
    # the gap between the two medians is the tracing overhead.  The
    # wrappers go in after set-up: every module they patch is loaded.
    workload.tracer.install()
    ops = max(1, round(args.seconds / TRACED_SECONDS_PER_OP))
    untraced, traced = Outcome(), Outcome()
    for k in range(ops):
        _one_op(workload, k, untraced)
        workload.forget()
        _one_op(workload, k, traced, workload.tracer)
    for part in (untraced, traced):
        outcome.latencies += part.latencies
        outcome.attempted += part.attempted
        outcome.failures += part.failures
    SPANS_DIR.mkdir(exist_ok=True)
    workload.tracer.write_spans(
        SPANS_DIR / f"{workload.name}-{workload.seed}.spans.jsonl")
    report.update(untraced=untraced, traced=traced, traced_ops=ops,
                  totals=workload.tracer.totals())
    return report


def run_serve(workload, seconds: float, trace: bool) -> dict:
    spans_path = None
    if trace:
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"serve-{workload.seed}.spans.jsonl"
    try:
        repeats = []
        for _ in range(SETUP_REPEATS):
            if workload.server is not None:
                workload.server.stop()
            repeats.append(_set_up(workload, spans_path=spans_path))
        if trace:
            per_block = max(20, round(seconds * TRACED_REQUESTS_PER_SECOND
                                      / TRACED_SERVE_BLOCK_PAIRS))
            untraced, traced = {}, {}
            for block in range(2 * TRACED_SERVE_BLOCK_PAIRS):
                first = block * per_block
                if block % 2:
                    workload.server.toggle_tracing()
                part, elapsed = workload.run_block(
                    first, first + per_block, float("inf"))
                if block % 2:
                    workload.server.toggle_tracing()
                (traced if block % 2 else untraced).update(part)
            results = {**untraced, **traced}
        else:
            results, elapsed = workload.run_block(
                0, len(workload.paths), time.perf_counter() + seconds)
    finally:
        if workload.server is not None:
            server_report = workload.server.stop()
    failures = workload.check_results(results)
    report = {"setup_layers": _medians([r[0] for r in repeats]),
              "setup_seconds": [r[1] for r in repeats],
              "outcome": Outcome.of(results, failures), "elapsed": elapsed,
              "peak_rss_kib": server_report["peak_rss_kib"]}
    if trace:
        report.update(untraced=Outcome.of(untraced, failures),
                      traced=Outcome.of(traced, failures),
                      traced_ops=len(traced),
                      totals=server_report["totals"],
                      rejected=sum(1 for answer in traced.values()
                                   if answer[1] != 200))
    return report


# ----------------------------------------------------------------------
def end_to_end_metrics(report: dict) -> Dict[str, float]:
    outcome = report["outcome"]
    latencies = outcome.latencies
    return {
        "setup_s": statistics.median(report["setup_seconds"]),
        "op_p50_ms": percentile(latencies, 50) * 1e3,
        "op_p75_ms": percentile(latencies, 75) * 1e3,
        "ops_per_s": outcome.attempted / report["elapsed"],
        "peak_rss_mib": report["peak_rss_kib"] / 1024.0,
    }


def per_layer_metrics(report: dict) -> Dict[str, float]:
    from perfbench.tracing import per_op
    metrics = per_op(report["totals"], report["traced_ops"])
    layers = report["setup_layers"]
    for name in ("setup.import_s", "setup.warmup_s", "catalog.ingest_s",
                 "catalog.select_s"):
        metrics[name] = layers.get(name, 0.0)
    metrics["serving.rejected"] = \
        report.get("rejected", 0) / report["traced_ops"]
    untraced = report["untraced"].p50_ms()
    traced = report["traced"].p50_ms()
    metrics["trace.untraced_op_p50_ms"] = untraced
    metrics["trace.traced_op_p50_ms"] = traced
    metrics["trace.overhead_pct"] = \
        (traced / untraced - 1.0) * 100.0 if untraced else 0.0
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="satiot benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True,
                        choices=("campaign", "serve", "catalog"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once in this process, print the "
                        "timings and exit (in-process workloads)")
    args = parser.parse_args(argv)
    if args.setup_probe and args.workload == "serve":
        parser.error("serve sets up a fresh server process every time")
    _prepare()
    units = _metric_units()

    from perfbench.inputs import digest
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS
    trace = bool(args.trace)
    workload = WORKLOADS[args.workload](args.seed, Tracer())
    if args.setup_probe:
        layers, seconds = _set_up(workload)
        print(SETUP_PROBE_TAG + json.dumps({"layers": layers,
                                            "seconds": seconds}))
        return 0
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"inputs digest={digest(workload.inputs)}")
    if args.workload == "serve":
        report = run_serve(workload, args.seconds, trace)
    else:
        report = run_in_process(workload, args, trace)
    # After set-up, so the fingerprint's imports are no part of it.
    print("fingerprint " + json.dumps(fingerprint(args.seed)))
    print("inputs " + json.dumps(workload.properties()))

    outcome = report["outcome"]
    kind = "per_layer" if trace else "end_to_end"
    values = per_layer_metrics(report) if trace \
        else end_to_end_metrics(report)
    if set(values) != set(units[kind]):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units[kind]))}"
                           f" disagree with BENCHMARK.json")
    failed = len(outcome.failures)
    latencies = outcome.latencies
    tails = {q: percentile(latencies, q) for q in (75, 99)}
    print(f"samples setup_repeats={len(report['setup_seconds'])} "
          f"setup_s={[round(s, 4) for s in report['setup_seconds']]} "
          f"ops={outcome.attempted} latency_samples={len(latencies)} "
          + " ".join(f"beyond_p{q}={sum(1 for x in latencies if x > v)}"
                     for q, v in tails.items())
          + f" op_p99_ms={tails[99] * 1e3:.3f}")
    if trace:
        print(f"traced ops={report['traced_ops']} (each untraced block "
              f"followed by a traced one) spans={report['totals']['spans']}")
    print(f"error_rate {failed / outcome.attempted:.6f} "
          f"({failed}/{outcome.attempted})")
    for failure in outcome.failures[:5]:
        print("failure: " + failure.strip().replace("\n", " | ")[:2000])
    for name in sorted(values):
        print(f"metric {name} {values[name]!r} {units[kind][name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[kind][name]}
                    for name in sorted(values)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
