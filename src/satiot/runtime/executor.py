"""Shard-based work scheduler for campaign execution.

A campaign is split into :class:`Shard` units (one per site, per
constellation, or per sampled week), each of which can be computed
independently and deterministically from the campaign configuration.
:class:`ShardExecutor` runs the shards either serially in-process (the
zero-dependency fallback) or on a ``concurrent.futures``
``ProcessPoolExecutor``, and always returns results **in shard order**
so the merge into the campaign result is deterministic regardless of
worker scheduling.

Failure handling is layered — shards are pure functions of their
payload, so re-running one is always safe:

1. a failed task is **retried** with capped exponential backoff
   (``max_retries`` attempts, base/cap from ``SATIOT_SHARD_BACKOFF_S``
   or the constructor);
2. a task that keeps failing in the pool — or whose worker died
   (``BrokenProcessPool``: OOM kill, ``SIGKILL``, missing
   ``/dev/shm``) — falls back to **per-shard serial execution in the
   parent**, where it gets its own retry budget;
3. only a shard that fails even in-parent raises :class:`ShardError`,
   carrying the failing shard's label with the original exception
   chained as ``__cause__``.

The ``retries`` / ``fallbacks`` counters surface in the campaign's
``--timing`` telemetry.  The :mod:`satiot.faults` plane exercises both
paths via the ``executor.task`` (raise) and ``executor.worker_kill``
(``SIGKILL`` the pool child) injection sites.

The worker count resolves, in priority order, from the explicit
``workers`` argument, the ``SATIOT_WORKERS`` environment variable, and
finally a serial default of 1.  ``workers=0`` (or a negative value)
means "auto": one worker per available CPU.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from ..faults import FaultInjected, fault_fires

__all__ = ["Shard", "ShardError", "ShardExecutor", "ShardOutcome",
           "resolve_workers", "WORKERS_ENV", "BACKOFF_ENV"]

#: Environment variable consulted when no explicit worker count is given.
WORKERS_ENV = "SATIOT_WORKERS"
#: Environment override for the retry backoff base (seconds).
BACKOFF_ENV = "SATIOT_SHARD_BACKOFF_S"

#: Default retry budget per shard per execution venue (pool / parent).
DEFAULT_MAX_RETRIES = 2
#: Default capped-exponential backoff base and cap (seconds).
DEFAULT_BACKOFF_S = 0.05
DEFAULT_BACKOFF_CAP_S = 1.0


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve the effective worker count.

    ``None`` defers to ``SATIOT_WORKERS`` (defaulting to 1, i.e. serial);
    ``0`` or a negative count means one worker per available CPU.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        if raw:
            try:
                workers = int(raw)
            except ValueError:
                raise ValueError(
                    f"{WORKERS_ENV} must be an integer, got {raw!r}")
        else:
            workers = 1
    if workers <= 0:
        workers = os.cpu_count() or 1
    return max(1, int(workers))


@dataclass(frozen=True)
class Shard:
    """One independent unit of campaign work.

    ``kind`` names the sharding axis (``"site"``, ``"constellation"``,
    ``"week"`` …), ``key`` identifies the unit on that axis and
    ``payload`` carries whatever picklable inputs the worker function
    needs to recompute the unit from scratch.
    """

    index: int
    kind: str
    key: str
    payload: Any = None

    @property
    def label(self) -> str:
        return f"{self.kind}:{self.key}"


class ShardError(RuntimeError):
    """A shard's worker raised; carries the shard context."""

    def __init__(self, shard: Shard, cause: BaseException) -> None:
        super().__init__(
            f"shard {shard.label} (index {shard.index}) failed: "
            f"{type(cause).__name__}: {cause}")
        self.shard = shard


@dataclass
class ShardOutcome:
    """Result envelope of one executed shard."""

    shard: Shard
    result: Any
    wall_s: float
    worker: str = "serial"


def _consult_faults() -> None:
    """Fault-plane consults at the worker-task seam.

    ``executor.worker_kill`` only acts inside a pool child (killing the
    parent would take the whole campaign down, which is not a failure
    mode the executor can be expected to absorb); in the parent the
    consult still advances the schedule but is a no-op.
    """
    if fault_fires("executor.worker_kill"):
        import multiprocessing
        if multiprocessing.parent_process() is not None:
            import signal
            os.kill(os.getpid(), signal.SIGKILL)
    if fault_fires("executor.task"):
        raise FaultInjected("executor.task")


def _timed_call(fn: Callable[[Shard], Any], shard: Shard):
    """Run ``fn(shard)`` and time it (executes inside the worker)."""
    t0 = time.perf_counter()
    _consult_faults()
    result = fn(shard)
    return result, time.perf_counter() - t0, f"pid:{os.getpid()}"


class ShardExecutor:
    """Runs shard worker functions serially or on a process pool.

    Parameters
    ----------
    workers:
        Worker count; see :func:`resolve_workers`.  With one worker (the
        default) everything runs in-process with zero dependencies on
        ``multiprocessing`` — important for restricted environments.
    max_retries:
        Retry budget per shard per venue (pool submissions, then again
        for the in-parent fallback).
    backoff_s / backoff_cap_s:
        Capped exponential backoff between retries
        (``min(cap, base * 2**attempt)``).  ``SATIOT_SHARD_BACKOFF_S``
        overrides the base when no explicit value is given (chaos tests
        set it to ``0``).
    """

    def __init__(self, workers: Optional[int] = None,
                 max_retries: int = DEFAULT_MAX_RETRIES,
                 backoff_s: Optional[float] = None,
                 backoff_cap_s: float = DEFAULT_BACKOFF_CAP_S) -> None:
        self.workers = resolve_workers(workers)
        if backoff_s is None:
            raw = os.environ.get(BACKOFF_ENV, "").strip()
            backoff_s = float(raw) if raw else DEFAULT_BACKOFF_S
        self.max_retries = max(0, int(max_retries))
        self.backoff_s = max(0.0, float(backoff_s))
        self.backoff_cap_s = max(0.0, float(backoff_cap_s))
        #: Set by :meth:`imap` — "serial" or "process".
        self.mode = "serial"
        #: Failed task executions that were retried.
        self.retries = 0
        #: Shards recomputed in-parent after the pool failed them.
        self.fallbacks = 0
        #: Pool bring-up failure that forced a serial fallback, if any.
        self._pool_error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    def map(self, fn: Callable[[Shard], Any],
            shards: Sequence[Shard]) -> List[ShardOutcome]:
        """Execute ``fn`` over every shard, results in shard order.

        ``fn`` must be a module-level (picklable) callable when more
        than one worker is configured.
        """
        return list(self.imap(fn, shards))

    def imap(self, fn: Callable[[Shard], Any],
             shards: Sequence[Shard]):
        """Execute ``fn`` over every shard, yielding outcomes in shard
        order.

        The executor's one driver (:meth:`map` collects it).  The
        caller consumes each outcome (and can drop it) before the next
        one is awaited — the spill plane folds every week's traces to
        disk without ever holding more than the in-flight results.
        One worker, one shard or a pool that cannot start runs the
        shards in-process, through the same retry budget and fault
        sites as pool tasks.  The pool is shut down, and its workers
        waited for, once the last outcome has been yielded (or the
        caller stops early).
        """
        shards = list(shards)
        pool = None
        if self.workers > 1 and len(shards) > 1:
            from concurrent.futures.process import BrokenProcessPool
            try:
                from concurrent.futures import ProcessPoolExecutor
                pool = ProcessPoolExecutor(
                    max_workers=min(self.workers, len(shards)))
                futures = [pool.submit(_timed_call, fn, shard)
                           for shard in shards]
            except (ImportError, OSError, PermissionError,
                    BrokenProcessPool) as exc:
                # Pool could not be brought up (no /dev/shm, forbidden
                # fork, …): degrade gracefully to the serial path.
                self._pool_error = exc
                if pool is not None:
                    pool.shutdown(wait=True, cancel_futures=True)
                pool = None
        if pool is None:
            self.mode = "serial"
            for shard in shards:
                yield self._run_with_retries(fn, shard)
            return
        self.mode = "process"
        try:
            for shard, future in zip(shards, futures):
                yield self._collect(pool, fn, shard, future)
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    # ------------------------------------------------------------------
    def _backoff(self, attempt: int) -> None:
        delay = min(self.backoff_cap_s,
                    self.backoff_s * (2.0 ** attempt))
        if delay > 0.0:
            time.sleep(delay)

    def _run_with_retries(self, fn: Callable[[Shard], Any],
                          shard: Shard) -> ShardOutcome:
        """In-process execution with the retry/backoff loop."""
        attempt = 0
        while True:
            try:
                result, wall_s, worker = _timed_call(fn, shard)
            except Exception as exc:
                if attempt >= self.max_retries:
                    raise ShardError(shard, exc) from exc
                self.retries += 1
                self._backoff(attempt)
                attempt += 1
                continue
            return ShardOutcome(shard=shard, result=result,
                                wall_s=wall_s, worker=worker)

    # ------------------------------------------------------------------
    def _fallback_serial(self, fn: Callable[[Shard], Any],
                         shard: Shard) -> ShardOutcome:
        """Per-shard in-parent fallback after the pool failed it."""
        self.fallbacks += 1
        return self._run_with_retries(fn, shard)

    def _collect(self, pool, fn: Callable[[Shard], Any], shard: Shard,
                 future) -> ShardOutcome:
        """Await one shard's pool future, retrying and falling back."""
        from concurrent.futures.process import BrokenProcessPool
        attempt = 0
        while True:
            try:
                result, wall_s, worker = future.result()
            except BrokenProcessPool:
                # The worker (or the whole pool) died mid-shard; the
                # shard is pure, so recompute it in the parent.
                return self._fallback_serial(fn, shard)
            except Exception:
                if attempt >= self.max_retries:
                    return self._fallback_serial(fn, shard)
                self.retries += 1
                self._backoff(attempt)
                attempt += 1
                try:
                    future = pool.submit(_timed_call, fn, shard)
                except (RuntimeError, BrokenProcessPool):
                    # Pool shut down or broke while we were backing off.
                    return self._fallback_serial(fn, shard)
                continue
            return ShardOutcome(shard=shard, result=result,
                                wall_s=wall_s, worker=worker)
