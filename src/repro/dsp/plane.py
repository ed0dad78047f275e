"""Bounded keyed caches for reusable DSP state (the "signal plane").

Every experiment sweep replays the same modem configuration across
hundreds of cells; before this layer existed each cell re-synthesized
the chirp preamble, window ramps, constellation tables and room-IR
envelopes from scratch.  :class:`KeyedCache` is the shared substrate:
a thread-safe, bounded LRU mapping from a hashable key (frozen configs,
plans, parameter tuples) to a built value, with hit/miss instrumentation
so sweeps can prove they are actually reusing state (the CI benchmark
smoke job asserts a non-zero hit count).

Cached values are treated as immutable — builders return read-only
arrays (or frozen objects) and callers that need a mutable copy must
``.copy()`` explicitly.  Invalidation is by eviction only: keys are
value-hashable snapshots of their inputs, so a "changed" configuration
is simply a *different* key and the stale entry ages out of the LRU.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable

from ..errors import DspError

__all__ = ["CacheStats", "KeyedCache", "all_cache_stats"]


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of one cache's counters."""

    name: str
    hits: int
    misses: int
    size: int
    maxsize: int


#: Registry of every live cache, for aggregate reporting.
_REGISTRY: Dict[str, "KeyedCache"] = {}
_REGISTRY_LOCK = threading.Lock()


class KeyedCache:
    """Thread-safe bounded LRU cache from hashable keys to built values.

    Parameters
    ----------
    name:
        Registry name (shown in :func:`all_cache_stats`); creating a
        second cache with the same name replaces the registry entry.
    maxsize:
        Maximum number of entries; the least-recently-used entry is
        evicted on overflow.
    """

    def __init__(self, name: str, maxsize: int = 64):
        if maxsize < 1:
            raise DspError("cache maxsize must be >= 1")
        self._name = name
        self._maxsize = int(maxsize)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        with _REGISTRY_LOCK:
            _REGISTRY[name] = self

    @property
    def name(self) -> str:
        return self._name

    def get(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, building it on a miss.

        ``build`` runs outside the lock (it may be expensive); if two
        threads race on the same missing key, both build but only the
        first insert wins, so every caller observes the same object.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._hits += 1
                return self._entries[key]
            self._misses += 1
        value = build()
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                self._entries.move_to_end(key)
                return existing
            self._entries[key] = value
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
            return value

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                name=self._name,
                hits=self._hits,
                misses=self._misses,
                size=len(self._entries),
                maxsize=self._maxsize,
            )

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def all_cache_stats() -> Dict[str, CacheStats]:
    """Stats for every registered cache, keyed by cache name."""
    with _REGISTRY_LOCK:
        caches = list(_REGISTRY.values())
    return {c.name: c.stats() for c in caches}
