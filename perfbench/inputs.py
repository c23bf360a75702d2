"""Seeded input generation for the benchmark workloads.

Every input a run feeds the program is drawn here from the workload
seed, before any timing starts; the same seed always yields the same
inputs (and the same digest), a different seed different ones.  Each
generator returns a plain JSON-able dict, whose digest is printed with
the properties an optimisation might key on.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, Tuple

#: Sites of the passive campaign (paper Section 2.2) and the four
#: Table-3 constellations every campaign op observes.
CAMPAIGN_SITES = ("HK", "SYD", "LDN", "PGH")
CAMPAIGN_CONSTELLATIONS = ("tianqi", "fossa", "pico", "cstp")
#: Simulated span of one campaign op (both campaigns).
CAMPAIGN_SPAN_S = 2 * 3600.0
#: Campaign op seeds generated per seed: far more than one run uses.
OPS_PER_SEED = 1024

SERVE_CONSTELLATIONS = ("tianqi", "fossa", "pico", "cstp")
#: Share of each constellation among generated queries.
SERVE_CONSTELLATION_WEIGHTS = (0.7, 0.1, 0.1, 0.1)
#: Pass/presence horizon per constellation: every fresh query scans the
#: same satellites x samples as a 12-h Tianqi query (22 satellites, paper
#: Table 3), so cache misses form one latency mode and the median does
#: not sit between the modes of cheap and dear constellations.
SERVE_SATELLITES = {"tianqi": 22, "fossa": 3, "pico": 9, "cstp": 5}
SERVE_SATELLITE_SECONDS = SERVE_SATELLITES["tianqi"] * 43200.0
SERVE_HORIZONS_S = {
    name: round(SERVE_SATELLITE_SECONDS / count / 30.0) * 30.0
    for name, count in SERVE_SATELLITES.items()}
#: Link-budget instants: few enough that warm-up fills every grid
#: they need inside the ephemeris LRU.
SERVE_T_OFFSETS_S = (0.0, 900.0, 1800.0, 2700.0)
SERVE_REPEAT_SHARE = 0.2
SERVE_LINK_BUDGET_SHARE = 0.1
#: A repeat copies a request at least this many positions earlier, so
#: its original has answered (two connections) and been cached.
SERVE_REPEAT_MIN_GAP = 8
SERVE_REQUESTS = 20000

CATALOG_OBSERVERS = 3
CATALOG_HORIZON_S = 3600.0
CATALOG_MIN_ELEVATION_DEG = 10.0
CATALOG_COARSE_STEP_S = 30.0


def digest(inputs: dict) -> str:
    """Short stable digest of a generated input set."""
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}")


def campaign_inputs(seed: int) -> dict:
    """Per-op campaign seeds (op -1 is the untimed warm-up op)."""
    rng = _rng("campaign", seed)
    return {
        "sites": list(CAMPAIGN_SITES),
        "constellations": list(CAMPAIGN_CONSTELLATIONS),
        "span_s": CAMPAIGN_SPAN_S,
        "warmup_seed": rng.randrange(1, 2**31),
        "op_seeds": [rng.randrange(1, 2**31) for _ in range(OPS_PER_SEED)],
    }


def campaign_properties(inputs: dict) -> Dict[str, object]:
    return {
        "span_s": inputs["span_s"],
        "sites_x_constellations": len(inputs["sites"])
        * len(inputs["constellations"]),
        "sites": ",".join(inputs["sites"]),
        "constellations": ",".join(inputs["constellations"]),
    }


def _site_picker(rng: random.Random):
    """Fresh observers whose 0.01-degree cache keys never collide, so
    only deliberate repeats can hit the serving result cache."""
    used = set()

    def pick() -> Tuple[float, float]:
        while True:
            site = (round(rng.uniform(-60.0, 60.0), 2),
                    round(rng.uniform(-180.0, 180.0), 2))
            if site not in used:
                used.add(site)
                return site
    return pick


def _query(endpoint: str, site: Tuple[float, float], constellation: str,
           **extra) -> Dict[str, object]:
    params = {"lat": site[0], "lon": site[1],
              "constellation": constellation}
    params.update(extra)
    return {"endpoint": endpoint, "params": params}


def serve_inputs(seed: int) -> dict:
    """Warm-up queries plus the ordered request stream of one run."""
    rng = _rng("serve", seed)
    pick = _site_picker(rng)
    warmup: List[List[dict]] = []
    for name in SERVE_CONSTELLATIONS:
        # One lone query fills the per-satellite grids, a concurrent
        # pair the constellation stack, then every link-budget instant.
        horizon_s = SERVE_HORIZONS_S[name]
        warmup.append([_query("passes", pick(), name,
                              horizon_s=horizon_s)])
        warmup.append([_query("presence", pick(), name,
                              horizon_s=horizon_s)
                       for _ in range(2)])
        for t in SERVE_T_OFFSETS_S:
            warmup.append([_query("link_budget", pick(), name,
                                  t_offset_s=t)])
    requests: List[dict] = []
    for index in range(SERVE_REQUESTS):
        draw = rng.random()
        if draw < SERVE_REPEAT_SHARE and index >= SERVE_REPEAT_MIN_GAP:
            original = requests[rng.randrange(
                0, index - SERVE_REPEAT_MIN_GAP + 1)]
            requests.append(dict(original, repeat=True))
            continue
        name = rng.choices(SERVE_CONSTELLATIONS,
                           weights=SERVE_CONSTELLATION_WEIGHTS)[0]
        if draw < SERVE_REPEAT_SHARE + SERVE_LINK_BUDGET_SHARE:
            query = _query("link_budget", pick(), name,
                           t_offset_s=rng.choice(SERVE_T_OFFSETS_S))
        else:
            query = _query(rng.choice(("passes", "presence")), pick(),
                           name, horizon_s=SERVE_HORIZONS_S[name])
        requests.append(dict(query, repeat=False))
    return {"constellations": list(SERVE_CONSTELLATIONS),
            "warmup": warmup, "requests": requests,
            "check_seed": rng.randrange(1, 2**31)}


def serve_properties(inputs: dict, used: int) -> Dict[str, object]:
    """Shares over the first ``used`` requests (those a run sent)."""
    sent = inputs["requests"][:max(used, 1)]
    total = len(sent)
    props: Dict[str, object] = {
        "requests": total,
        "repeat_share": round(sum(r["repeat"] for r in sent) / total, 4),
    }
    for endpoint in ("passes", "presence", "link_budget"):
        props[f"share.{endpoint}"] = round(
            sum(r["endpoint"] == endpoint for r in sent) / total, 4)
    for name in inputs["constellations"]:
        props[f"share.{name}"] = round(
            sum(r["params"]["constellation"] == name for r in sent)
            / total, 4)
    return props


def catalog_inputs(seed: int) -> dict:
    """Observers, horizon and per-op check samples of the sweep.

    Op ``k`` sweeps ``[epoch + k * horizon, epoch + (k + 1) * horizon]``
    (op -1 is the untimed warm-up), so every op fills cold windows.
    """
    rng = _rng("catalog", seed)
    observers = [[round(rng.uniform(-55.0, 55.0), 4),
                  round(rng.uniform(-180.0, 180.0), 4), 0.0]
                 for _ in range(CATALOG_OBSERVERS)]
    return {
        "observers": observers,
        "horizon_s": CATALOG_HORIZON_S,
        "min_elevation_deg": CATALOG_MIN_ELEVATION_DEG,
        "coarse_step_s": CATALOG_COARSE_STEP_S,
        "check_seed": rng.randrange(1, 2**31),
    }


def catalog_properties(inputs: dict, satellites: int,
                       samples: int) -> Dict[str, object]:
    return {
        "satellites": satellites,
        "samples_per_op": samples,
        "observers": len(inputs["observers"]),
        "satellites_x_samples_x_observers":
            satellites * samples * len(inputs["observers"]),
        "horizon_s": inputs["horizon_s"],
    }
