"""Generic thread-safe LRU cache shared by the simulator and the engine.

This lives at the package root (rather than inside :mod:`repro.engine`) so
that :mod:`repro.sim.circuit` can use the same implementation for its
per-instance sub-cache without importing the engine package -- the engine
depends on the simulator, never the other way around.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Generic, Hashable, Optional, TypeVar

__all__ = ["CacheStats", "LRUCache"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


@dataclass
class CacheStats:
    """Hit/miss counters of one cache tier."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    disk_hits: int = 0
    disk_corrupt: int = 0
    disk_retries: int = 0

    @property
    def lookups(self) -> int:
        """Total number of ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict snapshot (for logs and benchmark tables)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
            "disk_corrupt": self.disk_corrupt,
            "disk_retries": self.disk_retries,
        }


class LRUCache(Generic[K, V]):
    """A bounded, thread-safe mapping with LRU eviction.

    ``max_entries <= 0`` disables the cache entirely (every lookup misses),
    which gives benchmarks an uncached baseline without code changes.
    """

    def __init__(self, max_entries: int = 1024) -> None:
        self.max_entries = int(max_entries)
        self._data: "OrderedDict[K, V]" = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def get(self, key: K) -> Optional[V]:
        """Return the cached value (refreshing its recency) or ``None``."""
        with self._lock:
            if key not in self._data:
                self.stats.misses += 1
                return None
            self._data.move_to_end(key)
            self.stats.hits += 1
            return self._data[key]

    def put(self, key: K, value: V) -> None:
        """Insert ``value``, evicting the least recently used entry if full."""
        if self.max_entries <= 0:
            return
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            self.stats.stores += 1
            while len(self._data) > self.max_entries:
                self._data.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every entry (the stats counters are kept)."""
        with self._lock:
            self._data.clear()
