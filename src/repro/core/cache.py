"""A version-keyed LRU cache for ranked-search results.

Refinement sessions "run & rerun": a scientist tweaks one term, re-issues
the query, compares, and backtracks — producing streams of identical and
near-identical queries.  This cache makes the repeats effectively free.

Entries are keyed by the caller on a tuple that includes the catalog's
monotonic :attr:`~repro.catalog.store.CatalogStore.version`, so *any*
catalog mutation makes every older entry unreachable without an explicit
invalidation sweep; unreachable entries simply age out of the LRU order.
Values are returned as-is — callers must treat cached results as
immutable.

The cache is thread-safe: the serving layer shares one instance across
every request worker (and across engine rebuilds, since entries are
keyed on the catalog version, not the engine), so ``get``/``put``/
``clear`` and the counters all mutate under one lock.  ``OrderedDict``
reordering is not atomic bytecode — without the lock a concurrent
``move_to_end`` against ``popitem`` can corrupt the LRU order or tear
the hit/miss accounting.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable


class QueryCache:
    """A bounded, thread-safe LRU mapping with hit/miss/eviction
    accounting."""

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable) -> Any | None:
        """The cached value, freshened to most-recently-used; None on miss."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value``, evicting the least-recently-used on overflow."""
        with self._lock:
            entries = self._entries
            if key in entries:
                entries.move_to_end(key)
            entries[key] = value
            if len(entries) > self.maxsize:
                entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def items(self) -> list[tuple[Hashable, Any]]:
        """A point-in-time copy of ``(key, value)`` pairs, LRU-first.

        Taken under the lock, so a concurrent eviction or insert is
        never observed half-way; the caller may inspect the copy
        without holding it.
        """
        with self._lock:
            return list(self._entries.items())

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, float | int]:
        """Operational counters for monitoring and the CLI.

        Taken under the lock, so concurrent readers always see a
        consistent view (``hits + misses`` equals the lookups served so
        far, never a torn intermediate).
        """
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "size": len(self._entries),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": self.hits / lookups if lookups else 0.0,
            }
