"""Span tracer for the traced benchmark run.

The tracer wraps public calls into each satiot layer from the
benchmark's own code; nothing under ``src/`` is edited.  Each wrapped
call records one span ``(id, parent, name, start_ns, end_ns, op, detail)``
kept in memory; parents come from a per-thread stack, so a layer's self
time is its span's duration minus its direct children's.  Spans are
written out once, when the run ends.

``install`` patches class attributes and every ``satiot`` module global
bound to a wrapped function (``from x import f`` copies).  It runs
before the program builds any object, because some objects keep bound
methods (the serving batchers keep their handlers); wrappers record
only while ``enabled`` is set, so one process can time an untraced
block and then a traced one.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import statistics
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

#: Id of the op (or served request) the current context works for.
OP_ID: contextvars.ContextVar = contextvars.ContextVar("perfbench_op",
                                                       default=None)

# Span names: the metric prefix each wrapped call reports under.
SGP4 = "orbits.sgp4"
WINDOWS = "orbits.windows"
SGP4_BATCH = "orbits.sgp4_batch"
FLEET = "orbits.fleet"
FILL = "runtime.ephemeris.fill"
LOOKUP = "runtime.ephemeris.lookup"
GRID = "runtime.ephemeris.grid"
GROUND_SEGMENT = "network.ground_segment"
SCHEDULE = "groundstation.schedule"
RECEIVE = "groundstation.receive"
BEACON_TRAIN = "network.beacon_train"
MAC = "network.mac"
DELIVERY = "network.delivery"
CHANNEL = "phy.channel"
TIMELINE = "energy.timeline"
PASSIVE = "core.passive"
ACTIVE = "core.active"
KPI = "core.kpi"
PARSE = "serving.parse"
ENCODE = "serving.encode"
HANDLER = "serving.handler"
RESULT_CACHE = "serving.result_cache"


class Tracer:
    """In-memory span recorder plus the counters spans cannot carry."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[tuple] = []
        self.counters: Dict[str, float] = {}
        self.resident_bytes: List[int] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: request object id -> (submit instant, request id)
        self._submitted: Dict[int, tuple] = {}
        #: EphemerisCache id -> (cache, stats snapshot at first sight)
        self._caches: Dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             detail: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call; ``detail(args, kwargs,
        result, start_ns)`` may attach counts to the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            extra = detail(args, kwargs, result, start) if detail else None
            tracer.spans.append((span_id, parent, name, start, end,
                                 OP_ID.get(), extra))
            return result
        return traced

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def see_cache(self, cache) -> None:
        """Remember an ephemeris cache and its stats at first sight."""
        if id(cache) not in self._caches:
            self._caches[id(cache)] = (cache, cache.stats.snapshot())

    def settle_caches(self) -> None:
        """Fold hit/miss deltas and resident bytes of every cache seen
        since the last call into the counters (call after each op)."""
        for cache, before in self._caches.values():
            after = cache.stats.snapshot()
            self.count("grid_hits", after[0] - before[0])
            self.count("grid_misses", after[1] - before[1])
            self.count("pass_hits", after[2] - before[2])
            self.count("pass_misses", after[3] - before[3])
            self.resident_bytes.append(cache.grid_resident_bytes())
        self._caches.clear()

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch_attr(self, owner, attr: str, name: Optional[str],
                   detail: Optional[Callable] = None,
                   hook: Optional[Callable] = None) -> None:
        """Wrap ``owner.attr`` (function, method or classmethod).

        ``hook(args)`` runs before each enabled call; with ``name``
        None the call records no span, only the hook runs.
        """
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(self.wrap(name, original.__func__,
                                            detail))
        else:
            fn = original if name is None else \
                self.wrap(name, original, detail)
            if hook is not None:
                inner = fn

                @functools.wraps(original)
                def fn(*args, **kwargs):
                    if self.enabled:
                        hook(args)
                    return inner(*args, **kwargs)
            wrapped = fn
        setattr(owner, attr, wrapped)

    def patch_function(self, fn: Callable, name: str,
                       detail: Optional[Callable] = None) -> None:
        """Wrap a module-level function wherever a satiot module binds
        it, including names copied in by ``from module import fn``."""
        wrapped = self.wrap(name, fn, detail)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("satiot"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics read."""
        import numpy as np

        from satiot.core.active import ActiveCampaign
        from satiot.core.campaign import PassiveCampaign
        from satiot.energy.behavior import (TerrestrialBehavior,
                                            TianqiBehavior)
        from satiot.groundstation.receiver import BeaconReceiver
        from satiot.groundstation.scheduler import Scheduler
        from satiot.network.beacon import build_beacon_train
        from satiot.network.mac import DtSMac
        from satiot.network.server import finalize_deliveries
        from satiot.network.store_forward import GroundSegment
        from satiot.orbits.passes import PassPredictor, find_passes_fleet
        from satiot.orbits.sgp4 import SGP4 as SGP4Class
        from satiot.orbits.sgp4_batch import SGP4Batch
        from satiot.phy.channel import DtSChannel
        from satiot.runtime.ephemeris_cache import EphemerisCache
        from satiot.serving import server as server_module
        from satiot.serving.batcher import MicroBatcher
        from satiot.serving.cache import ResultCache
        from satiot.serving.http import json_response
        from satiot.serving.service import (ConstellationService,
                                            LinkBudgetRequest,
                                            PassesRequest,
                                            PresenceRequest)

        def instants(args, kwargs, result, start):
            tsince = args[1] if len(args) > 1 else kwargs["tsince_s"]
            return {"instants": int(np.size(tsince))}

        def elements(args, kwargs, result, start):
            offsets = args[2] if len(args) > 2 else kwargs["offsets_s"]
            return {"elements": len(args[0]) * int(np.size(offsets))}

        def crossings(args, kwargs, result, start):
            return {"crossings": sum((not w.clipped_start)
                                     + (not w.clipped_end)
                                     for w in result)}

        def packets(args, kwargs, result, start):
            times = args[1] if len(args) > 1 else kwargs["times_s"]
            return {"packets": int(np.size(times))}

        def cache_hit(args, kwargs, result, start):
            return {"hit": result is not None}

        def handler(args, kwargs, result, start):
            requests = args[1]
            waits, request_ids = [], []
            for request in requests:
                submitted = self._submitted.pop(id(request), None)
                if submitted is not None:
                    waits.append(start - submitted[0])
                    request_ids.append(submitted[1])
            return {"batch": len(requests), "waits": waits,
                    "requests": request_ids}

        def search(args, kwargs, result, start):
            # Observer, epoch and span of a pass search: the
            # per-satellite calls of one serving group share them.
            return {"search": repr(args[2:5])}

        def submitted(args):
            self._submitted[id(args[1])] = (time.perf_counter_ns(),
                                            OP_ID.get())

        def seen(args):
            self.see_cache(args[0])

        self.patch_attr(SGP4Class, "propagate", SGP4, instants)
        self.patch_attr(PassPredictor, "windows_from_coarse", WINDOWS,
                        crossings)
        self.patch_attr(SGP4Batch, "propagate_offsets", SGP4_BATCH,
                        elements)
        self.patch_function(find_passes_fleet, FLEET)
        self.patch_attr(EphemerisCache, "find_passes_fleet", FLEET,
                        hook=seen)
        self.patch_attr(EphemerisCache, "constellation_grid", FILL,
                        hook=seen)
        self.patch_attr(EphemerisCache, "find_passes", LOOKUP, search,
                        hook=seen)
        self.patch_attr(EphemerisCache, "propagation_grid", GRID,
                        hook=seen)
        self.patch_attr(GroundSegment, "__init__", GROUND_SEGMENT)
        self.patch_attr(Scheduler, "build_schedule", SCHEDULE)
        self.patch_attr(BeaconReceiver, "receive_pass", RECEIVE)
        self.patch_function(build_beacon_train, BEACON_TRAIN)
        self.patch_attr(DtSMac, "run", MAC)
        self.patch_function(finalize_deliveries, DELIVERY)
        self.patch_attr(DtSChannel, "simulate_packets", CHANNEL, packets)
        self.patch_attr(TianqiBehavior, "timeline", TIMELINE)
        self.patch_attr(TerrestrialBehavior, "timeline", TIMELINE)
        self.patch_attr(PassiveCampaign, "run", PASSIVE)
        self.patch_attr(ActiveCampaign, "run", ACTIVE)
        for request_type in (PassesRequest, PresenceRequest,
                             LinkBudgetRequest):
            self.patch_attr(request_type, "from_params", PARSE)
        self.patch_function(json_response, ENCODE)
        self.patch_attr(MicroBatcher, "submit", None, hook=submitted)
        for method in ("passes_batch", "presence_batch",
                       "link_budget_batch"):
            self.patch_attr(ConstellationService, method, HANDLER,
                            handler)
        self.patch_attr(ResultCache, "get", RESULT_CACHE, cache_hit)

        # Request ids: the benchmark client sends X-Request-Id; each
        # connection task carries it in OP_ID for the spans it records.
        read_request = server_module.read_request

        async def read_request_with_id(reader):
            request = await read_request(reader)
            if request is not None and self.enabled:
                OP_ID.set(request.headers.get("x-request-id"))
            return request
        server_module.read_request = read_request_with_id

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def write_spans(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, name, start, end, op, extra in self.spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start_ns": start, "end_ns": end, "op": op,
                    "detail": extra}, separators=(",", ":")) + "\n")

    def totals(self) -> dict:
        """Per-layer totals over every span recorded (see ``per_op``)."""
        by_id = {span[0]: span for span in self.spans}
        child_ns: Dict[int, int] = {}
        for span_id, parent, _, start, end, _, _ in self.spans:
            if parent in by_id:
                child_ns[parent] = child_ns.get(parent, 0) + end - start

        def has_ancestor(span, name: str) -> bool:
            parent = by_id.get(span[1])
            while parent is not None:
                if parent[2] == name:
                    return True
                parent = by_id.get(parent[1])
            return False

        calls: Dict[str, int] = {}
        busy: Dict[str, float] = {}
        self_s: Dict[str, float] = {}
        details: Dict[str, float] = {}
        waits: List[float] = []
        batches: List[int] = []
        refine_instants = 0
        # A serving handler answers each group of its batch by per-
        # satellite EphemerisCache.find_passes calls for one observer
        # (a single group) or by one find_passes_fleet call.
        single_groups = set()
        fleet_groups = 0
        for span in self.spans:
            span_id, parent_id, name, start, end, _, extra = span
            duration = end - start
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + \
                (duration - child_ns.get(span_id, 0)) / 1e9
            if not has_ancestor(span, name):
                busy[name] = busy.get(name, 0.0) + duration / 1e9
            parent = by_id.get(parent_id)
            under_handler = parent is not None and parent[2] == HANDLER
            if under_handler and name == FLEET:
                fleet_groups += 1
            if not extra:
                continue
            if name == HANDLER:
                waits.extend(w / 1e6 for w in extra["waits"])
                batches.append(extra["batch"])
                continue
            if name == LOOKUP:
                if under_handler:
                    single_groups.add((parent_id, extra["search"]))
                continue
            for key, value in extra.items():
                details[f"{name}.{key}"] = \
                    details.get(f"{name}.{key}", 0) + value
            if name == SGP4 and has_ancestor(span, WINDOWS):
                refine_instants += extra["instants"]
        details["handler.single_groups"] = len(single_groups)
        details["handler.fleet_groups"] = fleet_groups
        return {"calls": calls, "busy_s": busy, "self_s": self_s,
                "details": details, "refine_instants": refine_instants,
                "queue_waits_ms": waits, "batch_sizes": batches,
                "counters": dict(self.counters),
                "resident_bytes": list(self.resident_bytes),
                "spans": len(self.spans)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _quantile(values: List[float], q: int) -> float:
    """``q``-th percentile (inclusive method); 0 without samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_op(totals: dict, ops: int) -> Dict[str, float]:
    """Per-layer metric values (per op where a rate) from ``totals``."""
    calls, busy, self_s = totals["calls"], totals["busy_s"], \
        totals["self_s"]
    details, counters = totals["details"], totals["counters"]
    ops = max(ops, 1)

    def n(name):
        return calls.get(name, 0) / ops

    def b(name):
        return busy.get(name, 0.0) / ops

    def s(name):
        return self_s.get(name, 0.0) / ops

    def d(key):
        return details.get(key, 0) / ops

    grid_hits = counters.get("grid_hits", 0.0)
    pass_hits = counters.get("pass_hits", 0.0)
    cache_hits = details.get(f"{RESULT_CACHE}.hit", 0)
    resident = totals["resident_bytes"]
    return {
        "orbits.sgp4.calls": n(SGP4),
        "orbits.sgp4.instants": d(f"{SGP4}.instants"),
        "orbits.sgp4.busy_s": b(SGP4),
        "orbits.windows.calls": n(WINDOWS),
        "orbits.windows.busy_s": b(WINDOWS),
        "orbits.windows.self_s": s(WINDOWS),
        "orbits.refine.instants_per_crossing": _ratio(
            totals["refine_instants"],
            details.get(f"{WINDOWS}.crossings", 0)),
        "orbits.sgp4_batch.calls": n(SGP4_BATCH),
        "orbits.sgp4_batch.elements": d(f"{SGP4_BATCH}.elements"),
        "orbits.sgp4_batch.busy_s": b(SGP4_BATCH),
        "orbits.sgp4_batch.computed_mib": d(f"{SGP4_BATCH}.elements")
        * 3 * 8 * 2 / 2**20,
        "orbits.fleet.self_s": s(FLEET),
        "runtime.ephemeris.grid_hit_ratio": _ratio(
            grid_hits, grid_hits + counters.get("grid_misses", 0.0)),
        "runtime.ephemeris.pass_hit_ratio": _ratio(
            pass_hits, pass_hits + counters.get("pass_misses", 0.0)),
        "runtime.ephemeris.fill_self_s": s(FILL),
        "runtime.ephemeris.lookup_self_s": s(LOOKUP),
        "runtime.ephemeris.resident_mib":
            max(resident) / 2**20 if resident else 0.0,
        "network.ground_segment.busy_s": b(GROUND_SEGMENT),
        "groundstation.schedule.busy_s": b(SCHEDULE),
        "groundstation.receive.calls": n(RECEIVE),
        "groundstation.receive.busy_s": b(RECEIVE),
        "groundstation.traces.rows":
            counters.get("traces.rows", 0.0) / ops,
        "network.beacon_train.busy_s": b(BEACON_TRAIN),
        "network.mac.busy_s": b(MAC),
        "network.delivery.busy_s": b(DELIVERY),
        "phy.channel.packets": d(f"{CHANNEL}.packets"),
        "phy.channel.busy_s": b(CHANNEL),
        "energy.timeline.busy_s": b(TIMELINE),
        "core.passive.busy_s": b(PASSIVE),
        "core.active.busy_s": b(ACTIVE),
        "core.kpi.busy_s": b(KPI),
        "serving.parse.busy_s": b(PARSE),
        "serving.encode.busy_s": b(ENCODE),
        "serving.batcher.queue_wait_p50_ms":
            _quantile(totals["queue_waits_ms"], 50),
        "serving.batcher.queue_wait_p99_ms":
            _quantile(totals["queue_waits_ms"], 99),
        "serving.batcher.batch_size_mean":
            statistics.fmean(totals["batch_sizes"])
            if totals["batch_sizes"] else 0.0,
        "serving.batcher.flushes": n(HANDLER),
        "serving.handler.busy_s": b(HANDLER),
        "serving.handler.single_groups": d("handler.single_groups"),
        "serving.handler.fleet_groups": d("handler.fleet_groups"),
        "serving.result_cache.hit_ratio": _ratio(
            cache_hits, calls.get(RESULT_CACHE, 0)),
        "trace.spans": totals["spans"] / ops,
    }
