"""Seeded, deterministic fault-injection plane.

The paper's headline finding is that satellite IoT availability is
dominated by *failure modes* — missed passes, lost beacons, dead
uplinks.  This module gives the system layers the same treatment: a
:class:`FaultPlane` holds a schedule of named **injection sites** that
production code consults at the seams it already owns (disk-cache
reads/writes, shard worker execution, serving connection handling,
micro-batch flushes).  When a consult "fires", the seam injects a
realistic failure — a corrupted ``.npy`` segment, a raised worker
exception, a ``SIGKILL``-ed pool worker, a dropped client connection —
and the seam's *hardening* (checksums + quarantine, retry + serial
fallback, batch re-dispatch) must absorb it.

The capstone contract, enforced by ``tests/chaos``: any campaign or
serving run under any fault schedule that the system survives produces
**byte-identical** trace columns / response payloads to the clean run.
Faults may cost time and telemetry, never output.

Schedules are configured with a compact spec string (environment
variable ``SATIOT_FAULTS`` or CLI ``--faults``)::

    seed=7;cache.disk_read=p0.5;executor.task=n1;serving.connection=@3

Per-site rules:

``pX``
    fire each consult independently with probability ``X`` (seeded,
    per-site RNG stream — reproducible across runs);
``nK`` (or a bare integer ``K``)
    fire on the first ``K`` consults of the site;
``@K``
    fire on exactly the ``K``-th consult (1-based) — "crash once,
    mid-run";
``off`` / ``0``
    disabled (useful to mask one site of a longer spec).

Determinism: probability rules draw from a per-site
``random.Random`` stream seeded by ``(seed, site)``, and count rules
advance per-site consult counters, so a given spec replays the same
firing pattern in the same process.  Worker processes rebuild their
plane from ``SATIOT_FAULTS`` and keep independent counters — the
*output* determinism contract never depends on which process a fault
fires in, only on every seam degrading gracefully.
"""

from __future__ import annotations

import hashlib
import os
import random
import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = ["FAULTS_ENV", "SITES", "FaultInjected", "FaultRule",
           "FaultPlane", "fault_fires", "get_default_plane",
           "install_plane", "reset_default_plane"]

#: Environment variable holding the process-default fault spec.
FAULTS_ENV = "SATIOT_FAULTS"

#: Injection-site catalog: every seam production code consults.
SITES: Dict[str, str] = {
    "cache.disk_read":
        "corrupt the on-disk .npy grid segment before the cache reads it "
        "(detected by checksum, quarantined as *.bad, treated as a miss)",
    "cache.disk_write":
        "fail the disk-cache write with an OSError "
        "(counted, warned once, memory tier unaffected)",
    "executor.task":
        "raise FaultInjected inside the shard worker task "
        "(retried with capped exponential backoff, then per-shard "
        "serial fallback in the parent)",
    "executor.worker_kill":
        "SIGKILL the pool worker mid-shard (pool-child processes only; "
        "the broken pool degrades to per-shard serial fallback)",
    "serving.handler":
        "raise FaultInjected inside a micro-batch handler "
        "(the batch is re-dispatched up to max_retries, then each "
        "request gets a contained 500)",
    "serving.connection":
        "drop the client connection before the response is written "
        "(counted; the accept loop survives)",
    "serving.worker_kill":
        "SIGKILL the serving worker process as it accepts a connection "
        "(fleet workers only; the supervisor restarts the worker and "
        "retrying clients land on a live sibling with byte-identical "
        "payloads)",
    "batcher.flush":
        "defer a micro-batch flush by one coalescing window "
        "(costs latency, never output)",
    "stream.shard_write":
        "tear a spilled trace-shard write (half the bytes land); the "
        "writer's readback checksum detects it and rewrites, so the "
        "archive stays byte-identical",
    "twin.extend":
        "abandon the incremental ephemeris extension fast path for one "
        "grid request (falls back to a cold full-range propagation — "
        "costs compute, output stays bit-identical)",
}


class FaultInjected(RuntimeError):
    """An injected fault (carries its injection site)."""

    def __init__(self, site: str) -> None:
        super().__init__(f"injected fault at site {site!r}")
        self.site = site


@dataclass(frozen=True)
class FaultRule:
    """One site's firing schedule (exactly one mode is active)."""

    site: str
    probability: float = 0.0   # pX: independent per-consult probability
    count: int = 0             # nK: fire on the first K consults
    at: int = 0                # @K: fire on exactly the K-th consult

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; known sites: "
                f"{', '.join(sorted(SITES))}")
        modes = sum([self.probability > 0, self.count > 0, self.at > 0])
        if modes > 1:
            raise ValueError(
                f"fault rule for {self.site!r} must use exactly one of "
                f"p/n/@")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"fault probability for {self.site!r} must be in "
                f"[0, 1], got {self.probability}")
        if self.count < 0 or self.at < 0:
            raise ValueError(
                f"fault counts for {self.site!r} must be non-negative")

    @property
    def enabled(self) -> bool:
        return self.probability > 0 or self.count > 0 or self.at > 0

    def token(self) -> str:
        """The spec-string token this rule round-trips to."""
        if self.probability > 0:
            return f"p{self.probability:g}"
        if self.at > 0:
            return f"@{self.at}"
        if self.count > 0:
            return f"n{self.count}"
        return "off"

    @classmethod
    def parse(cls, site: str, token: str) -> "FaultRule":
        token = token.strip().lower()
        if token in ("off", "0", ""):
            return cls(site=site)
        try:
            if token.startswith("p"):
                return cls(site=site, probability=float(token[1:]))
            if token.startswith("@"):
                return cls(site=site, at=int(token[1:]))
            if token.startswith("n"):
                return cls(site=site, count=int(token[1:]))
            return cls(site=site, count=int(token))
        except ValueError as exc:
            # Re-raise our own validation messages verbatim; wrap raw
            # int()/float() parse failures with the grammar hint.
            if "fault" in str(exc):
                raise
            raise ValueError(
                f"bad fault rule {token!r} for site {site!r} "
                f"(expected pFLOAT, nINT, @INT, INT or off)") from exc


class FaultPlane:
    """A seeded schedule of injection rules, consulted by name.

    Thread-safe: the serving layer consults from both the event loop
    and its handler worker thread.
    """

    def __init__(self, rules: Dict[str, FaultRule], seed: int = 0) -> None:
        self.seed = int(seed)
        self.rules: Dict[str, FaultRule] = {
            site: rule for site, rule in rules.items() if rule.enabled}
        for site in self.rules:
            if site not in SITES:
                raise ValueError(f"unknown fault site {site!r}")
        #: Per-site consult counters (every consult, firing or not).
        self.consults: Dict[str, int] = {}
        #: Per-site fired counters (telemetry).
        self.fired: Dict[str, int] = {}
        self._rngs: Dict[str, random.Random] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlane":
        """Parse a ``seed=K;site=rule;...`` spec string."""
        seed = 0
        rules: Dict[str, FaultRule] = {}
        for entry in spec.replace(",", ";").split(";"):
            entry = entry.strip()
            if not entry:
                continue
            name, sep, token = entry.partition("=")
            name = name.strip().lower()
            if not sep:
                raise ValueError(
                    f"bad fault spec entry {entry!r} "
                    f"(expected site=rule or seed=INT)")
            if name == "seed":
                try:
                    seed = int(token)
                except ValueError as exc:
                    raise ValueError(
                        f"bad fault seed {token!r}") from exc
                continue
            rules[name] = FaultRule.parse(name, token)
        return cls(rules, seed=seed)

    def to_spec(self) -> str:
        """The canonical spec string (``from_spec`` round-trips it)."""
        parts = [f"seed={self.seed}"]
        parts.extend(f"{site}={rule.token()}"
                     for site, rule in sorted(self.rules.items()))
        return ";".join(parts)

    # ------------------------------------------------------------------
    def _rng(self, site: str) -> random.Random:
        rng = self._rngs.get(site)
        if rng is None:
            digest = hashlib.sha256(
                f"{self.seed}/{site}".encode("utf-8")).hexdigest()
            rng = random.Random(int(digest[:16], 16))
            self._rngs[site] = rng
        return rng

    def should_fire(self, site: str) -> bool:
        """Consult ``site`` once; True when the schedule fires.

        Every consult advances the site's counter, so count-based rules
        (``nK``/``@K``) are a deterministic function of consult order
        within one process.
        """
        with self._lock:
            k = self.consults.get(site, 0) + 1
            self.consults[site] = k
            rule = self.rules.get(site)
            if rule is None:
                return False
            if rule.at > 0:
                fire = k == rule.at
            elif rule.count > 0:
                fire = k <= rule.count
            else:
                fire = self._rng(site).random() < rule.probability
            if fire:
                self.fired[site] = self.fired.get(site, 0) + 1
            return fire

    def summary(self) -> dict:
        """Telemetry view: per-site rule, consult and fired counts."""
        with self._lock:
            sites = sorted(set(self.rules) | set(self.consults))
            return {
                "seed": self.seed,
                "spec": self.to_spec(),
                "sites": {
                    site: {
                        "rule": (self.rules[site].token()
                                 if site in self.rules else "off"),
                        "consults": self.consults.get(site, 0),
                        "fired": self.fired.get(site, 0),
                    }
                    for site in sites
                },
            }


# ----------------------------------------------------------------------
# Process-default plane
# ----------------------------------------------------------------------
_installed: Optional[FaultPlane] = None
_env_plane: Optional[Tuple[str, FaultPlane]] = None


def install_plane(plane: Optional[FaultPlane]) -> None:
    """Install an explicit process-wide plane (overrides the env spec).

    Pass ``None`` to uninstall (the env spec becomes authoritative
    again).  Worker processes do **not** see an installed plane — export
    ``SATIOT_FAULTS`` (the CLI's ``--faults`` does both) when faults
    must reach a shard pool.
    """
    global _installed
    _installed = plane


def get_default_plane() -> Optional[FaultPlane]:
    """The process-default plane, or ``None`` when no faults are armed.

    Resolution order: an :func:`install_plane`-ed plane, then the
    ``SATIOT_FAULTS`` environment spec (parsed once per distinct
    value).  Worker processes rebuild from the environment, so an
    exported spec reaches the whole shard pool.
    """
    global _env_plane
    if _installed is not None:
        return _installed
    spec = os.environ.get(FAULTS_ENV, "").strip()
    if not spec:
        return None
    if _env_plane is None or _env_plane[0] != spec:
        _env_plane = (spec, FaultPlane.from_spec(spec))
    return _env_plane[1]


def reset_default_plane() -> None:
    """Forget installed and env-derived planes (mainly for tests)."""
    global _installed, _env_plane
    _installed = None
    _env_plane = None


def fault_fires(site: str) -> bool:
    """Cheap production-code consult: False when no plane is armed."""
    plane = get_default_plane()
    return plane is not None and plane.should_fire(site)
