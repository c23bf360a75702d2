"""Per-endpoint serving metrics: counters, histograms, latency quantiles.

Each endpoint owns an :class:`EndpointMetrics`; the server aggregates
them into a :class:`ServingMetrics` that exports a mergeable
:meth:`~ServingMetrics.snapshot` and renders the fixed-width table
format shared with the runtime telemetry report
(:func:`satiot.runtime.telemetry.render_fixed_table`).

Latency quantiles come from a bounded reservoir (most recent
``reservoir_size`` samples) — adequate for operational p50/p99 without
unbounded memory.  Batch sizes are tracked as an exact histogram over
power-of-two buckets, the batching engine's primary health signal.

JSON always comes from snapshots: :func:`merge_snapshots` renders one
server's ``/metrics`` from its own snapshot and a fleet's from every
worker's (sent over the control channel) — counters summed, batch-size
histograms merged bucket-wise, and latency quantiles computed over the
*pooled* reservoirs (quantiles of quantiles would lie).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..runtime.telemetry import render_fixed_table

__all__ = ["EndpointMetrics", "ServingMetrics", "merge_snapshots",
           "percentile"]

#: Upper edges of the batch-size histogram buckets (last is open-ended).
BATCH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample (q in 0..100)."""
    if not sorted_values:
        return 0.0
    if q <= 0:
        return float(sorted_values[0])
    if q >= 100:
        return float(sorted_values[-1])
    rank = max(0, min(len(sorted_values) - 1,
                      round(q / 100.0 * (len(sorted_values) - 1))))
    return float(sorted_values[rank])


@dataclass
class EndpointMetrics:
    """Counters and distributions of one HTTP endpoint."""

    name: str
    reservoir_size: int = 4096
    requests: int = 0
    ok: int = 0
    client_errors: int = 0
    server_errors: int = 0
    rejected: int = 0               # 429 backpressure rejections
    cache_hits: int = 0
    cache_misses: int = 0
    batches: int = 0
    batched_requests: int = 0
    #: Whole-batch re-dispatches after a transient handler failure
    #: (see :class:`satiot.serving.batcher.MicroBatcher`).
    handler_retries: int = 0
    batch_histogram: Dict[int, int] = field(default_factory=dict)
    _latencies_ms: List[float] = field(default_factory=list)

    # ------------------------------------------------------------------
    def observe_request(self, status: int, latency_s: float) -> None:
        self.requests += 1
        if status == 429:
            self.rejected += 1
        elif status >= 500:
            self.server_errors += 1
        elif status >= 400:
            self.client_errors += 1
        else:
            self.ok += 1
        self._latencies_ms.append(latency_s * 1000.0)
        if len(self._latencies_ms) > self.reservoir_size:
            del self._latencies_ms[:len(self._latencies_ms)
                                   - self.reservoir_size]

    def observe_batch(self, size: int) -> None:
        self.batches += 1
        self.batched_requests += size
        for edge in BATCH_BUCKETS:
            if size <= edge:
                bucket = edge
                break
        else:
            bucket = -1  # overflow bucket ("> last edge")
        self.batch_histogram[bucket] = \
            self.batch_histogram.get(bucket, 0) + 1

    def observe_cache(self, hit: bool) -> None:
        if hit:
            self.cache_hits += 1
        else:
            self.cache_misses += 1

    # ------------------------------------------------------------------
    #: Counter fields that merge across workers by summation.
    COUNTERS = ("requests", "ok", "client_errors", "server_errors",
                "rejected", "cache_hits", "cache_misses", "batches",
                "batched_requests", "handler_retries")

    def snapshot(self) -> dict:
        """Mergeable cross-process view: exact counters, raw histogram
        buckets, and the latency reservoir itself."""
        return {
            "counters": {name: getattr(self, name)
                         for name in self.COUNTERS},
            "batch_histogram": {str(bucket): count for bucket, count
                                in self.batch_histogram.items()},
            "latencies_ms": list(self._latencies_ms),
        }


@dataclass
class ServingMetrics:
    """All endpoint metrics of one server instance."""

    endpoints: Dict[str, EndpointMetrics] = field(default_factory=dict)
    #: Connections dropped server-side (``serving.connection`` faults).
    dropped_connections: int = 0
    #: Responses abandoned because the client would not drain the
    #: socket within the configured write timeout.
    write_timeouts: int = 0

    def endpoint(self, name: str) -> EndpointMetrics:
        if name not in self.endpoints:
            self.endpoints[name] = EndpointMetrics(name)
        return self.endpoints[name]

    def snapshot(self) -> dict:
        """Mergeable cross-process view of every endpoint."""
        return {
            "endpoints": {name: em.snapshot()
                          for name, em in self.endpoints.items()},
            "server": {
                "dropped_connections": self.dropped_connections,
                "write_timeouts": self.write_timeouts,
            },
        }

    def render(self, title: Optional[str] = None) -> str:
        """Fixed-width table view (same format as runtime telemetry) of
        the figures the JSON view shows: :func:`merge_snapshots` of
        this server's own snapshot."""
        header = ["endpoint", "req", "ok", "4xx", "429", "5xx",
                  "batches", "avg batch", "cache hit%",
                  "p50 ms", "p99 ms"]
        rows: List[List[str]] = []
        merged = merge_snapshots([self.snapshot()])
        for name in sorted(self.endpoints):
            em = merged[name]
            rows.append([
                name, str(em["requests"]), str(em["ok"]),
                str(em["client_errors"]), str(em["rejected_429"]),
                str(em["server_errors"]), str(em["batches"]),
                f"{em['mean_batch_size']:.1f}",
                f"{100.0 * em['cache_hit_rate']:.0f}",
                f"{em['latency_ms']['p50']:.2f}",
                f"{em['latency_ms']['p99']:.2f}"])
        return render_fixed_table(header, rows,
                                  title=title or "Serving metrics")


def merge_snapshots(snapshots: Sequence[dict]) -> dict:
    """Fold :meth:`ServingMetrics.snapshot` dicts into one ``/metrics``
    view: one server's own, or every fleet worker's.

    Counters and batch-size histograms are summed bucket-wise; latency
    quantiles are recomputed over the pooled per-worker reservoirs so
    the fleet p99 reflects actual request latencies, not an average of
    per-worker percentiles.
    """
    endpoints: Dict[str, dict] = {}
    server = {"dropped_connections": 0, "write_timeouts": 0}
    for snap in snapshots:
        for key in server:
            server[key] += int(snap.get("server", {}).get(key, 0))
        for name, em in snap.get("endpoints", {}).items():
            acc = endpoints.setdefault(name, {
                "counters": {k: 0 for k in EndpointMetrics.COUNTERS},
                "batch_histogram": {},
                "latencies_ms": [],
            })
            for key, value in em.get("counters", {}).items():
                acc["counters"][key] = \
                    acc["counters"].get(key, 0) + int(value)
            for bucket, count in em.get("batch_histogram", {}).items():
                acc["batch_histogram"][bucket] = \
                    acc["batch_histogram"].get(bucket, 0) + int(count)
            acc["latencies_ms"].extend(em.get("latencies_ms", ()))

    merged: Dict[str, object] = {}
    for name, acc in sorted(endpoints.items()):
        c = acc["counters"]
        ordered = sorted(acc["latencies_ms"])
        cache_total = c["cache_hits"] + c["cache_misses"]
        histogram = {
            (f"<={bucket}" if bucket > 0 else f">{BATCH_BUCKETS[-1]}"):
            count
            for bucket, count in sorted(
                ((int(b), n)
                 for b, n in acc["batch_histogram"].items()),
                key=lambda kv: (kv[0] < 0, kv[0]))
        }
        merged[name] = {
            "requests": c["requests"],
            "ok": c["ok"],
            "client_errors": c["client_errors"],
            "server_errors": c["server_errors"],
            "rejected_429": c["rejected"],
            "cache_hits": c["cache_hits"],
            "cache_misses": c["cache_misses"],
            "cache_hit_rate": round(
                c["cache_hits"] / cache_total, 4) if cache_total
            else 0.0,
            "batches": c["batches"],
            "handler_retries": c["handler_retries"],
            "mean_batch_size": round(
                c["batched_requests"] / c["batches"], 2)
            if c["batches"] else 0.0,
            "batch_size_histogram": histogram,
            "latency_ms": {
                "p50": round(percentile(ordered, 50.0), 3),
                "p90": round(percentile(ordered, 90.0), 3),
                "p99": round(percentile(ordered, 99.0), 3),
                "max": round(ordered[-1], 3) if ordered else 0.0,
            },
        }
    merged["_server"] = server
    return merged
