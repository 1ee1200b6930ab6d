"""The summary-tier LRU: rendered response bodies keyed by content hash.

This cache sits *above* the per-cell pickle cache (`ResultCache`): where
that tier memoizes simulation results, this one memoizes whole serialized
query responses, keyed by ``(store fingerprint seed, query hash, format)``.
Because the fingerprint seed is part of the key, an entry is never stale: a
store append simply orphans the old entries, which age out by LRU eviction.

Bounded by a byte-size cap over stored bodies.  Hit / miss / eviction totals
feed the ``service_cache_{hits,misses,evictions}_total`` telemetry counters,
which is how tests assert a warm query was served entirely from memory.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

__all__ = ["DEFAULT_CACHE_BYTES", "SummaryCache"]

DEFAULT_CACHE_BYTES = 32 * 1024 * 1024

CacheKey = Tuple[str, str, str]  # (etag_seed, query_hash, format)


class SummaryCache:
    """Thread-safe LRU of rendered response bodies.

    Args:
        max_bytes: cap on the summed size of stored bodies; least-recently
            used entries are evicted to fit.  A single body larger than the
            cap is simply not retained.
        telemetry: optional :class:`~repro.telemetry.hub.Telemetry` whose
            registry receives the ``service_cache_*_total`` counters.
    """

    def __init__(
        self,
        max_bytes: int = DEFAULT_CACHE_BYTES,
        telemetry=None,
    ) -> None:
        if max_bytes <= 0:
            raise ValueError("cache max_bytes must be positive")
        self.max_bytes = max_bytes
        self.telemetry = telemetry
        self._entries: "OrderedDict[CacheKey, bytes]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _count(self, outcome: str) -> None:
        if self.telemetry is not None:
            self.telemetry.registry.counter(
                f"service_cache_{outcome}_total"
            ).inc()

    def _evict(self, key: CacheKey) -> None:
        body = self._entries.pop(key)
        self._bytes -= len(body)
        self.evictions += 1
        self._count("evictions")

    def get(self, key: CacheKey) -> Optional[bytes]:
        """The cached body for ``key``, or ``None`` (miss)."""
        with self._lock:
            body = self._entries.get(key)
            if body is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                self._count("hits")
                return body
            self.misses += 1
            self._count("misses")
            return None

    def put(self, key: CacheKey, body: bytes) -> None:
        with self._lock:
            if key in self._entries:
                self._bytes -= len(self._entries.pop(key))
            self._entries[key] = body
            self._bytes += len(body)
            while self._bytes > self.max_bytes and self._entries:
                self._evict(next(iter(self._entries)))

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
