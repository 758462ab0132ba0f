"""Thread-safe LRU + TTL result cache for the query service.

Keys are canonicalized ``(dataset, keywords, algorithm, params)`` tuples
(:func:`canonical_cache_key`), so the same logical query — whatever the
whitespace, quoting or ``k`` override it arrived with — hits the same
entry.  Values are whatever the service stores (``SearchResult`` today);
the cache never copies them, so hits share answer objects with every
earlier caller.  That is safe because results are produced once and
treated as immutable by the service layer, the same contract the frozen
graph and index already rely on.

Eviction is twofold:

* **LRU**: when ``capacity`` entries exist, inserting a new key evicts
  the least recently *used* (read or written) entry.
* **TTL**: entries older than ``ttl`` seconds are treated as absent and
  dropped on access (lazy expiry; :meth:`ResultCache.purge_expired`
  sweeps eagerly).

The clock is injectable so tests exercise TTL deterministically.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Hashable, Optional, Sequence, Union

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
    """Bounded mapping with LRU eviction and per-entry TTL expiry."""

    def __init__(
        self,
        capacity: int = 1024,
        ttl: Optional[float] = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        if ttl is not None and ttl <= 0:
            raise ValueError(f"ttl must be positive or None, got {ttl!r}")
        self.capacity = capacity
        self.ttl = ttl
        self._clock = clock
        self._lock = threading.RLock()
        self._entries: "OrderedDict[Hashable, tuple[Any, float]]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._expirations = 0

    # ------------------------------------------------------------------
    def get(self, key: Hashable, default: Any = None) -> Any:
        """The cached value, refreshing its recency; ``default`` when
        absent or expired."""
        with self._lock:
            entry = self._entries.get(key, _MISSING)
            if entry is _MISSING:
                self._misses += 1
                return default
            value, stored_at = entry
            if self._expired(stored_at):
                del self._entries[key]
                self._expirations += 1
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
            self._entries[key] = (value, self._clock())
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            entry = self._entries.get(key, _MISSING)
            if entry is _MISSING:
                return False
            if self._expired(entry[1]):
                del self._entries[key]
                self._expirations += 1
                return False
            return True

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def keys(self) -> list:
        """Current keys, least recently used first (expired included
        until touched or purged)."""
        with self._lock:
            return list(self._entries)

    def purge(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose key satisfies ``predicate``; returns
        how many.  The service uses this to invalidate one dataset's
        entries when its engine is replaced."""
        with self._lock:
            stale = [key for key in self._entries if predicate(key)]
            for key in stale:
                del self._entries[key]
            return len(stale)

    def purge_expired(self) -> int:
        """Eagerly drop every expired entry; returns how many."""
        with self._lock:
            if self.ttl is None:
                return 0
            stale = [
                key
                for key, (_, stored_at) in self._entries.items()
                if self._expired(stored_at)
            ]
            for key in stale:
                del self._entries[key]
            self._expirations += len(stale)
            return len(stale)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Counters as a plain dict (merged into the service metrics)."""
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "ttl": self.ttl,
                "hits": self._hits,
                "misses": self._misses,
                "hit_rate": (self._hits / lookups) if lookups else 0.0,
                "evictions": self._evictions,
                "expirations": self._expirations,
            }

    # ------------------------------------------------------------------
    def _expired(self, stored_at: float) -> bool:
        return self.ttl is not None and self._clock() - stored_at >= self.ttl

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResultCache(size={len(self)}, capacity={self.capacity}, "
            f"ttl={self.ttl})"
        )
