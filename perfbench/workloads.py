"""The three benchmark workloads: ``campaign``, ``serve`` and ``catalog``.

Each workload is closed loop and repeats one kind of op:

* ``campaign`` — one client; an op is one cold paper unit: the passive
  campaign over four sites and four constellations, the active Tianqi
  campaign over the same span, then the KPI folds ``satiot report``
  prints.  Every op has its own seed and a fresh ``EphemerisCache``.
* ``serve`` — two keep-alive connections against one ``satiot serve``
  process; an op is one HTTP request.
* ``catalog`` — one client; an op is one ``fleet_passes`` sweep of the
  whole 5 000-satellite fixture over a fresh time window.

A workload offers ``set_up`` (everything one process pays before its
first timed op), ``run_op``/``check`` (in-process workloads) or its own
request phase (``serve``).  ``run.py`` drives them and computes the
metrics.
"""

from __future__ import annotations

import http.client
import importlib
import itertools
import json
import math
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qsl, urlencode, urlsplit

from perfbench import inputs as gen
from perfbench.tracing import KPI, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURE = ROOT / "tests" / "fixtures" / "megaconst_5k.3le.gz"


class InProcessWorkload:
    """Ops that run inside the benchmark process."""

    name = ""
    #: modules whose import is this workload's first share of set-up
    import_modules: Tuple[str, ...] = ()

    def __init__(self, seed: int, tracer: Tracer) -> None:
        self.seed = seed
        self.tracer = tracer
        self.warmup_output = None

    def set_up(self) -> Dict[str, float]:
        """Everything this process pays once before its first timed op:
        importing the workload's modules, building the state its ops
        share and one untimed warm-up op (on its own input, kept in
        ``warmup_output`` for checking).  Returns seconds per part."""
        start = time.perf_counter()
        for module in self.import_modules:
            importlib.import_module(module)
        layers = {"setup.import_s": time.perf_counter() - start}
        layers.update(self.build())
        start = time.perf_counter()
        self.warmup_output = self.run_op(-1)
        layers["setup.warmup_s"] = time.perf_counter() - start
        return layers

    def build(self) -> Dict[str, float]:
        """Build the state every op shares: seconds per part."""
        return {}

    def after_op(self, output) -> None:
        """Traced runs: fold op-level counts into the tracer."""
        self.tracer.settle_caches()

    def forget(self) -> None:
        """Drop state an earlier op left, so a repeated op runs cold."""


# ----------------------------------------------------------------------
def fold_kpis(passive, active):
    """The KPI folds ``satiot report`` prints: contact statistics per
    (site, constellation) and the satellite/terrestrial comparison."""
    from satiot.core.contacts import analyze_contacts
    from satiot.core.performance import compare_systems

    contacts = {(code, name): analyze_contacts(
        passive.receptions(code, name), passive.duration_s)
        for code in passive.config.sites
        for name in passive.config.constellations}
    comparison = compare_systems(active.all_satellite_records(),
                                 active.all_terrestrial_records())
    return contacts, comparison


class Campaign(InProcessWorkload):
    name = "campaign"
    import_modules = ("satiot.core.campaign", "satiot.core.active",
                      "satiot.core.contacts", "satiot.core.performance")

    def __init__(self, seed: int, tracer: Tracer) -> None:
        super().__init__(seed, tracer)
        self.inputs = gen.campaign_inputs(seed)

    def properties(self) -> Dict[str, object]:
        return gen.campaign_properties(self.inputs)

    def _seed(self, k: int) -> int:
        return self.inputs["op_seeds"][k] if k >= 0 \
            else self.inputs["warmup_seed"]

    def run_op(self, k: int):
        from satiot.core.active import ActiveCampaign, ActiveCampaignConfig
        from satiot.core.campaign import (PassiveCampaign,
                                          PassiveCampaignConfig)
        from satiot.runtime.ephemeris_cache import EphemerisCache

        seed = self._seed(k)
        days = self.inputs["span_s"] / 86400.0
        passive = PassiveCampaign(
            PassiveCampaignConfig(
                sites=tuple(self.inputs["sites"]),
                constellations=tuple(self.inputs["constellations"]),
                days=days, seed=seed),
            workers=1, ephemeris_cache=EphemerisCache()).run()
        active = ActiveCampaign(ActiveCampaignConfig(days=days,
                                                     seed=seed)).run()
        contacts, comparison = self.tracer.wrap(KPI, fold_kpis)(
            passive, active)
        return {"passive": passive, "active": active,
                "contacts": contacts, "comparison": comparison}

    def after_op(self, output) -> None:
        super().after_op(output)
        self.tracer.count("traces.rows", len(output["passive"].dataset))

    def check(self, k: int, output) -> List[str]:
        """Refined crossings straddle the mask, trace rows equal the
        received beacons, delivered <= generated, KPIs are finite."""
        from satiot.orbits.passes import PassPredictor

        passive, active = output["passive"], output["active"]
        mask = passive.config.min_elevation_deg
        problems: List[str] = []
        windows = [scheduled
                   for site in passive.site_results.values()
                   for scheduled in site.schedule.assigned
                   if not scheduled.window.clipped_start
                   and not scheduled.window.clipped_end
                   and scheduled.window.duration_s > 10.0]
        rng = random.Random(self._seed(k))
        for scheduled in rng.sample(windows, min(4, len(windows))):
            window = scheduled.window
            predictor = PassPredictor(scheduled.satellite.propagator,
                                      scheduled.station.location, mask)
            before_rise, after_rise, before_set, after_set = (
                predictor.elevation_at(passive.epoch, t)
                for t in (window.rise_s - 1.0, window.rise_s + 1.0,
                          window.set_s - 1.0, window.set_s + 1.0))
            if not (before_rise <= mask < after_rise
                    and before_set > mask >= after_set):
                problems.append(
                    f"window {window} does not straddle the {mask} deg "
                    f"mask one second either side of rise and set")
        received = sum(reception.beacons_received
                       for site in passive.site_results.values()
                       for reception in site.receptions)
        if len(passive.dataset) != received:
            problems.append(f"{len(passive.dataset)} trace rows for "
                            f"{received} received beacons")
        generated = sum(len(r) for r in active.readings.values())
        delivered = sum(1 for r in active.all_satellite_records()
                        if r.delivered)
        if delivered > generated:
            problems.append(f"{delivered} delivered of {generated} "
                            f"generated readings")
        comparison = output["comparison"]
        kpis = [comparison.satellite_reliability,
                comparison.terrestrial_reliability]
        for stats in output["contacts"].values():
            kpis += [stats.theoretical_daily_hours,
                     stats.effective_daily_hours,
                     stats.duration_shrinkage]
        if not all(math.isfinite(value) for value in kpis):
            problems.append("non-finite KPI")
        return problems


# ----------------------------------------------------------------------
class Catalog(InProcessWorkload):
    name = "catalog"
    import_modules = ("satiot.catalog",)

    def __init__(self, seed: int, tracer: Tracer) -> None:
        super().__init__(seed, tracer)
        self.inputs = gen.catalog_inputs(seed)
        self.selection = None
        self.shells: Dict[str, List[int]] = {}

    def properties(self) -> Dict[str, object]:
        from satiot.orbits.passes import PassPredictor
        samples = PassPredictor.coarse_offsets(
            self.inputs["horizon_s"], self.inputs["coarse_step_s"]).size
        return gen.catalog_properties(self.inputs, len(self.selection),
                                      samples)

    def build(self) -> Dict[str, float]:
        """Ingest the fixture and select the whole fleet."""
        from satiot.catalog import TleDb, select_fleet, shell_groups

        start = time.perf_counter()
        db = TleDb(":memory:")
        try:
            stats = db.insert_file(FIXTURE, group_from_name=True)
            ingested = time.perf_counter()
            selection = select_fleet(db)
            selection.propagators  # the lazy build is part of select
            selected = time.perf_counter()
        finally:
            db.close()
        if stats.inserted != 5000:
            raise RuntimeError(f"fixture ingest: {stats}")
        self.selection = selection
        self.shells = shell_groups(selection)
        return {"catalog.ingest_s": ingested - start,
                "catalog.select_s": selected - ingested}

    def forget(self) -> None:
        from satiot.runtime.ephemeris_cache import get_default_cache
        get_default_cache().clear_memory()

    def _epoch(self, k: int):
        return self.selection.epoch + k * self.inputs["horizon_s"]

    def _observers(self):
        from satiot.orbits.frames import GeodeticPoint
        return [GeodeticPoint(*o) for o in self.inputs["observers"]]

    def run_op(self, k: int):
        from satiot.catalog import fleet_passes
        return fleet_passes(
            self.selection, self._observers(), self.inputs["horizon_s"],
            epoch=self._epoch(k),
            coarse_step_s=self.inputs["coarse_step_s"],
            min_elevation_deg=self.inputs["min_elevation_deg"])

    def check(self, k: int, output) -> List[str]:
        """A seeded member of every shell equals the single-satellite
        ``PassPredictor.find_passes(refine="interp")`` answer."""
        from satiot.orbits.passes import PassPredictor

        rng = random.Random(f"{self.inputs['check_seed']}/{k}")
        problems: List[str] = []
        for group, members in self.shells.items():
            index = rng.choice(members)
            propagator = self.selection.propagators[index]
            for m, observer in enumerate(self._observers()):
                reference = PassPredictor(
                    propagator, observer,
                    self.inputs["min_elevation_deg"]).find_passes(
                        self._epoch(k), self.inputs["horizon_s"],
                        coarse_step_s=self.inputs["coarse_step_s"],
                        refine="interp")
                if list(output[index][m]) != reference:
                    problems.append(f"{group} member {index} observer "
                                    f"{m}: fleet windows differ")
        return problems


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
#: Fields every 200 response of each endpoint carries.
RESPONSE_FIELDS = {
    "passes": {"site", "constellation", "epoch", "horizon_s",
               "min_elevation_deg", "count", "next_pass", "passes"},
    "presence": {"site", "constellation", "horizon_s",
                 "min_elevation_deg", "coverage_fraction", "covered_s",
                 "windows", "raw_passes", "mean_window_s", "max_gap_s",
                 "mean_gap_s"},
    "link_budget": {"site", "constellation", "t_offset_s",
                    "min_elevation_deg", "spreading_factor",
                    "payload_bytes", "sensitivity_dbm", "airtime_s",
                    "raining", "visible_count", "best", "satellites"},
}
#: Timed requests compared with an in-process service answer per run.
SERVE_CHECK_SAMPLE = 40


def request_path(query: dict) -> str:
    return f"/v1/{query['endpoint']}?{urlencode(query['params'])}"


def check_response(query: dict, status: Optional[int],
                   body: bytes) -> Optional[str]:
    """Why a response fails its output check, or None when it passes."""
    if status != 200:
        return f"HTTP {status}"
    try:
        payload = json.loads(body)
    except ValueError:
        return "body is not JSON"
    missing = RESPONSE_FIELDS[query["endpoint"]] - set(payload)
    if missing:
        return f"missing fields {sorted(missing)}"
    params = query["params"]
    site = payload["site"]
    if (site.get("latitude_deg"), site.get("longitude_deg")) != \
            (params["lat"], params["lon"]) or \
            str(payload["constellation"]).lower() != \
            params["constellation"]:
        return "answer for another query"
    return None


class ServerProcess:
    """One ``satiot serve`` process started by the benchmark launcher."""

    def __init__(self, constellations: List[str],
                 spans_path: Optional[Path] = None) -> None:
        command = [sys.executable, str(HERE / "serve_launcher.py"),
                   "--constellations", ",".join(constellations)]
        if spans_path is not None:
            command += ["--trace", str(spans_path)]
        self.lines: List[str] = []
        self._ready = threading.Event()
        self._toggles = 0
        self.port = 0
        self.proc = subprocess.Popen(command, cwd=ROOT, text=True,
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.STDOUT)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line.rstrip("\n"))
            if line.startswith("satiot serving on http://"):
                self.port = int(line.split()[3].rsplit(":", 1)[1])
                self._ready.set()

    def _wait(self, done, what: str) -> None:
        deadline = time.monotonic() + 120.0
        while not done():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"server never {what}:\n"
                                   + "\n".join(self.lines[-20:]))
            time.sleep(0.005)

    def wait_ready(self) -> int:
        self._wait(self._ready.is_set, "came up")
        return self.port

    def toggle_tracing(self) -> None:
        """Turn span recording on or off and wait for the server's ack."""
        self._toggles += 1
        self.proc.send_signal(signal.SIGUSR1)
        self._wait(lambda: sum(line.startswith("PERFBENCH tracing")
                               for line in list(self.lines))
                   >= self._toggles, "acknowledged tracing")

    def stop(self) -> dict:
        """Interrupt the server and return the launcher's exit report."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
        self._reader.join(timeout=30)
        for line in reversed(self.lines):
            if line.startswith("PERFBENCH-RESULT "):
                return json.loads(line.split(" ", 1)[1])
        raise RuntimeError("server exited without a report:\n"
                           + "\n".join(self.lines[-20:]))


class Serve:
    name = "serve"
    connections = 2

    def __init__(self, seed: int, tracer: Tracer) -> None:
        self.seed = seed
        self.inputs = gen.serve_inputs(seed)
        self.paths = [request_path(q) for q in self.inputs["requests"]]
        self.server: Optional[ServerProcess] = None
        self.sent = 0

    def properties(self) -> Dict[str, object]:
        return gen.serve_properties(self.inputs, self.sent)

    # ------------------------------------------------------------------
    def exchange(self, conn: http.client.HTTPConnection, path: str,
                 request_id: int) -> Tuple[float, Optional[int], bytes]:
        """One request on a keep-alive connection: (seconds, status,
        body); a transport failure has status None."""
        start = time.perf_counter()
        try:
            conn.request("GET", path,
                         headers={"X-Request-Id": str(request_id)})
            response = conn.getresponse()
            body = response.read()
            status: Optional[int] = response.status
        except (OSError, http.client.HTTPException) as error:
            conn.close()
            status, body = None, repr(error).encode()
        return time.perf_counter() - start, status, body

    def _connections(self) -> List[http.client.HTTPConnection]:
        return [http.client.HTTPConnection("127.0.0.1", self.server.port,
                                           timeout=120)
                for _ in range(self.connections)]

    def set_up(self, spans_path: Optional[Path] = None,
               ) -> Dict[str, float]:
        """Start a server process and answer every warm-up query:
        seconds per part.  The server stays up for the timed phase."""
        self.server = ServerProcess(self.inputs["constellations"],
                                    spans_path)
        self.server.wait_ready()
        ready = time.perf_counter()
        conns = self._connections()
        try:
            for step in self.inputs["warmup"]:
                answers: List[tuple] = [None] * len(step)

                def send(i: int, query: dict) -> None:
                    answers[i] = self.exchange(conns[i],
                                               request_path(query), -1)
                threads = [threading.Thread(target=send, args=(i, q))
                           for i, q in enumerate(step)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                for query, (_, status, body) in zip(step, answers):
                    problem = check_response(query, status, body)
                    if problem:
                        raise RuntimeError(f"warm-up query failed: "
                                           f"{problem}")
        finally:
            for conn in conns:
                conn.close()
        warmed = time.perf_counter()
        import_line = next(line for line in self.server.lines
                           if line.startswith("PERFBENCH import_s "))
        return {"setup.import_s": float(import_line.split()[2]),
                "setup.warmup_s": warmed - ready}

    def run_block(self, first: int, stop: int,
                  deadline: float) -> Tuple[Dict[int, tuple], float]:
        """Closed loop over requests ``first..stop-1`` (or until the
        deadline) on every connection: results by index, wall time."""
        counter = itertools.count(first)
        results: Dict[int, tuple] = {}
        conns = self._connections()

        def client(conn: http.client.HTTPConnection) -> None:
            for index in counter:
                if index >= stop or time.perf_counter() >= deadline:
                    return
                results[index] = self.exchange(conn, self.paths[index],
                                               index)

        threads = [threading.Thread(target=client, args=(conn,))
                   for conn in conns]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        for conn in conns:
            conn.close()
        self.sent = max(self.sent, max(results, default=-1) + 1)
        return results, elapsed

    def check_results(self, results: Dict[int, tuple]) -> Dict[int, str]:
        """Per-request output checks, then a seeded sample compared
        with an in-process ``ConstellationService`` answer."""
        from satiot.serving.service import (ConstellationService,
                                            LinkBudgetRequest,
                                            PassesRequest,
                                            PresenceRequest)

        requests = self.inputs["requests"]
        failures: Dict[int, str] = {}
        for index, (_, status, body) in results.items():
            problem = check_response(requests[index], status, body)
            if problem:
                failures[index] = problem
        candidates = sorted(i for i in results if i not in failures)
        rng = random.Random(self.inputs["check_seed"])
        sample = rng.sample(candidates,
                            min(SERVE_CHECK_SAMPLE, len(candidates)))
        service = ConstellationService(
            constellations=tuple(self.inputs["constellations"]))
        request_types = {"passes": PassesRequest,
                         "presence": PresenceRequest,
                         "link_budget": LinkBudgetRequest}
        for index in sample:
            query = requests[index]
            params = dict(parse_qsl(urlsplit(self.paths[index]).query))
            request = request_types[query["endpoint"]].from_params(
                params, known=service.constellation_names,
                epochs=service.epochs)
            handler = getattr(service, f"{query['endpoint']}_batch")
            expected = json.loads(json.dumps(
                handler([request])[0], separators=(",", ":"),
                allow_nan=False))
            if json.loads(results[index][2]) != expected:
                failures[index] = "differs from the in-process answer"
        return failures


WORKLOADS = {"campaign": Campaign, "serve": Serve, "catalog": Catalog}
