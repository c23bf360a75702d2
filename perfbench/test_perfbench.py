"""The benchmark's own tests (not part of the satiot suite).

    python3 -m pytest perfbench -q

Tiny runs of every workload, in both modes, must print every metric
BENCHMARK.json names, with its unit; a corrupted op output must count as
a failed op; input digests must follow the seed.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs as gen  # noqa: E402
from perfbench import run, workloads  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = _result(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == expected
    assert f"samples setup_repeats={run.SETUP_REPEATS} " in done.stdout
    assert "fingerprint " in done.stdout


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_corrupted_campaign_output_is_a_failed_op(monkeypatch):
    workload = workloads.Campaign(3, Tracer())
    honest = workload.run_op

    def corrupted(k):
        output = honest(k)
        output["comparison"] = dataclasses.replace(
            output["comparison"], satellite_reliability=float("nan"))
        return output
    monkeypatch.setattr(workload, "run_op", corrupted)
    outcome = run.Outcome()
    run._one_op(workload, 0, outcome)
    assert outcome.attempted == 1
    assert len(outcome.failures) == 1 and not outcome.latencies


def test_setup_probe_times_import_and_warmup_op(capsys):
    assert run.main(["--workload", "campaign", "--seed", "3",
                     "--seconds", "0", "--setup-probe"]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith(run.SETUP_PROBE_TAG)
    probe = json.loads(line[len(run.SETUP_PROBE_TAG):])
    layers = probe["layers"]
    assert set(layers) == {"setup.import_s", "setup.warmup_s"}
    assert probe["seconds"] >= layers["setup.warmup_s"] > 0


class _SlowCheck:
    """An op of about 10 ms whose check takes 50 ms."""

    def run_op(self, k):
        time.sleep(0.01)
        return k

    def check(self, k, output):
        time.sleep(0.05)
        return []


def test_timed_loop_leaves_checking_out():
    outcome = run.Outcome()
    elapsed = run.timed_loop(_SlowCheck(), 0.2, outcome)
    assert elapsed >= 0.2
    assert elapsed < sum(outcome.latencies) + 0.01 * outcome.attempted
    assert outcome.attempted / elapsed > 50  # checked: < 17 ops/s


def test_serving_groups_come_from_the_cache_calls_a_handler_makes():
    from perfbench import tracing

    tracer = Tracer()
    tracer.enabled = True
    one_observer = ("site-1", "epoch", 43200.0)
    pass_search = tracer.wrap(tracing.LOOKUP, lambda *a: [],
                              lambda a, k, r, s: {"search": repr(a[2:5])})
    fleet_search = tracer.wrap(tracing.FLEET, lambda: [])

    def batch(requests):
        # one single group (two satellites, one observer), one fleet group
        for satellite in ("sat-a", "sat-b"):
            pass_search(None, satellite, *one_observer)
        fleet_search()
    tracer.wrap(tracing.HANDLER, batch,
                lambda a, k, r, s: {"batch": 3, "waits": [],
                                    "requests": []})(["r1", "r2", "r3"])
    pass_search(None, "sat-c", *one_observer)  # outside any handler
    details = tracer.totals()["details"]
    assert details["handler.single_groups"] == 1
    assert details["handler.fleet_groups"] == 1


def test_corrupted_catalog_output_is_a_failed_op():
    from satiot.orbits.passes import ContactWindow

    workload = workloads.Catalog(3, Tracer())
    workload.build()
    output = workload.run_op(0)
    assert workload.check(0, output) == []
    bogus = ContactWindow(rise_s=0.0, set_s=60.0, culmination_s=30.0,
                          max_elevation_deg=45.0)
    corrupted = [[list(windows) + [bogus] for windows in per_satellite]
                 for per_satellite in output]
    assert workload.check(0, corrupted)


def test_corrupted_serve_response_is_a_failed_op(monkeypatch, capsys):
    honest = workloads.Serve.exchange

    def corrupted(self, conn, path, request_id):
        seconds, status, body = honest(self, conn, path, request_id)
        if request_id == 0:
            payload = json.loads(body)
            payload["site"]["latitude_deg"] += 1.0
            body = json.dumps(payload).encode()
        return seconds, status, body
    monkeypatch.setattr(workloads.Serve, "exchange", corrupted)
    assert run.main(["--workload", "serve", "--seed", "3",
                     "--seconds", "1", "--trace", "0"]) == 0
    result = _result(capsys.readouterr().out)
    assert result["failed"] >= 1 and not result["correct"]


def test_serve_response_checks():
    query = gen.serve_inputs(3)["requests"][0]
    assert workloads.check_response(query, 429, b"{}") == "HTTP 429"
    assert workloads.check_response(query, 200, b"not json")
    assert workloads.check_response(query, 200, b"{}").startswith(
        "missing fields")


@pytest.mark.parametrize("make", [gen.campaign_inputs, gen.serve_inputs,
                                  gen.catalog_inputs])
def test_input_digest_follows_the_seed(make):
    assert gen.digest(make(7)) == gen.digest(make(7))
    assert gen.digest(make(7)) != gen.digest(make(8))


def test_serve_inputs_have_the_documented_mix():
    inputs = gen.serve_inputs(5)
    props = gen.serve_properties(inputs, len(inputs["requests"]))
    assert abs(props["repeat_share"] - gen.SERVE_REPEAT_SHARE) < 0.02
    fresh = [r for r in inputs["requests"] if not r["repeat"]]
    sites = {(r["params"]["lat"], r["params"]["lon"]) for r in fresh}
    assert len(sites) == len(fresh)  # only repeats can hit the cache
