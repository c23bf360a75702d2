"""TTL + LRU result cache for serving responses.

Fleet queries exhibit strong geographic locality: thousands of deployed
nodes share a handful of deployment regions, and a pass prediction for
(47.37°N, 8.54°E) is equally valid a few hundred metres away.  The
serving layer therefore rounds request coordinates when it parses them
(``quantize_coord``, default 0.01°, ~1.1 km), answers at the rounded
site, and caches the *encoded response body* under the parsed request:
every query of one cell gets the same bytes, whichever came first.  The
JSON bytes are a few times smaller than the payload objects they
encode, and a hit sends them without encoding again.

Entries expire after ``ttl_s`` (ephemerides age; default 60 s) and the
cache is LRU-bounded at ``max_entries``.  Expired entries are evicted
lazily on access and during inserts, so the cache needs no background
task.  A monotonic ``clock`` can be injected for deterministic tests.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Any, Callable, Hashable, Optional, Tuple


__all__ = ["ResultCache", "quantize_coord"]


def quantize_coord(value: float, decimals: int = 2) -> float:
    """Round a coordinate to ``decimals`` places (default ~1.1 km).

    -0.0 comes back as 0.0: the two are one cell, so one echoed text.
    """
    return round(float(value), decimals) or 0.0


class ResultCache:
    """Bounded TTL+LRU mapping from request keys to response bodies."""

    def __init__(self, max_entries: int = 4096, ttl_s: float = 60.0,
                 clock: Optional[Callable[[], float]] = None) -> None:
        if max_entries < 1:
            raise ValueError("cache capacity must be positive")
        if ttl_s <= 0:
            raise ValueError("ttl must be positive")
        self.max_entries = int(max_entries)
        self.ttl_s = float(ttl_s)
        self._clock = clock or time.monotonic
        self._entries: "OrderedDict[Hashable, Tuple[float, Any]]" = \
            OrderedDict()
        self.hits = 0
        self.misses = 0
        self.expirations = 0

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    def get(self, key: Hashable) -> Optional[Any]:
        """Cached value for ``key``, or ``None`` on miss/expiry."""
        entry = self._entries.get(key)
        now = self._clock()
        if entry is not None and now - entry[0] <= self.ttl_s:
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[1]
        if entry is not None:
            del self._entries[key]
            self.expirations += 1
        self.misses += 1
        return None

    def put(self, key: Hashable, value: Any) -> None:
        now = self._clock()
        self._entries[key] = (now, value)
        self._entries.move_to_end(key)
        # Lazily drop expired heads, then enforce the LRU bound.
        while self._entries:
            oldest_key = next(iter(self._entries))
            stamp, _ = self._entries[oldest_key]
            if now - stamp > self.ttl_s:
                del self._entries[oldest_key]
                self.expirations += 1
                continue
            break
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
