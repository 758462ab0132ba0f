"""Thread-safe LRU result cache for the query service.

Keys are canonicalized ``(dataset, keywords, algorithm, params)`` tuples
(:func:`canonical_cache_key`), so the same logical query — whatever the
whitespace, quoting or ``k`` override it arrived with — hits the same
entry.  Values are whatever the service stores (``SearchResult`` today);
the cache never copies them, so hits share answer objects with every
earlier caller.  That is safe because results are produced once and
treated as immutable by the service layer, the same contract the frozen
graph and index already rely on.

Eviction is LRU: when ``capacity`` entries exist, inserting a new key
evicts the least recently *used* (read or written) entry.  Nothing
expires by age: every key embeds its dataset's ``(generation,
version)``, so an answer a commit or a reload made stale is already
unreachable, and ``capacity`` bounds memory.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, Sequence, Union

from repro.core.params import SearchParams
from repro.core.query import parse_query

__all__ = ["ResultCache", "canonical_cache_key"]

_MISSING = object()


def canonical_cache_key(
    dataset: str,
    query: Union[str, Sequence[str]],
    algorithm: str,
    params: SearchParams,
    *,
    version: Hashable = 0,
) -> tuple:
    """Canonical, hashable identity of one logical query.

    ``query`` is reduced to its parsed keyword tuple, so ``'gray
    transaction'``, ``'  gray   transaction '`` and ``('gray',
    'transaction')`` collide (keyword *order* is preserved: it fixes the
    answer-path order in results, so reordered queries are distinct).
    ``params`` must already include any ``k`` override — the service
    applies ``with_(max_results=k)`` before keying.

    ``version`` names the dataset's epoch at lookup time (the service
    passes its registration's generation and version): a live mutation
    commit bumps it, so every entry cached against the prior epoch
    becomes unreachable — commits invalidate stale results for free,
    with no purge required for correctness.
    """
    keywords = parse_query(query)
    return (dataset, keywords, algorithm, params, version)


class ResultCache:
    """Bounded mapping with LRU eviction."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        self._lock = threading.RLock()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    def get(self, key: Hashable, default: Any = None) -> Any:
        """The cached value, refreshing its recency; ``default`` when
        absent."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self._misses += 1
                return default
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or refresh an entry, evicting the LRU entry on overflow."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def purge(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose key satisfies ``predicate``; returns
        how many.  The service uses this to invalidate one dataset's
        entries when its engine is replaced."""
        with self._lock:
            stale = [key for key in self._entries if predicate(key)]
            for key in stale:
                del self._entries[key]
            return len(stale)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Counters as a plain dict (merged into the service metrics)."""
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self._hits,
                "misses": self._misses,
                "hit_rate": (self._hits / lookups) if lookups else 0.0,
                "evictions": self._evictions,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultCache(size={len(self)}, capacity={self.capacity})"
