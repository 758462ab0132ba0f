"""Lazy-deletion min-heap of the two Backward searches' frontiers.

Python's :mod:`heapq` has no decrease-key; the standard idiom — push a
fresh entry on every priority change and skip stale entries at pop time
— is what SI-Backward's queue and MI-Backward's iterator frontiers and
schedule need: a popped entry is valid only if it still carries its
item's current priority.  (Bidirectional's ``Qin``/``Qout`` inline the
same idiom over negated activations.)

Ties break on a monotone sequence number so runs are deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Hashable, Iterator, Optional

__all__ = ["LazyMinHeap"]


class LazyMinHeap:
    """Min-heap of ``(priority, item)`` with lazy re-prioritization.

    ``push`` both inserts new items and reprioritizes existing ones.
    ``pop`` returns the item with the smallest *current* priority.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Hashable]] = []
        self._priority: dict[Hashable, float] = {}
        self._seq = itertools.count()

    def push(self, item: Hashable, priority: float) -> None:
        self._priority[item] = priority
        heapq.heappush(self._heap, (priority, next(self._seq), item))

    def pop(self) -> tuple[Hashable, float]:
        """Remove and return ``(item, priority)``; raises IndexError if empty."""
        while self._heap:
            priority, _, item = heapq.heappop(self._heap)
            if self._priority.get(item) == priority:
                del self._priority[item]
                return item, priority
        raise IndexError("pop from empty heap")

    def peek_priority(self) -> Optional[float]:
        """Current best priority, or None when empty."""
        while self._heap:
            priority, _, item = self._heap[0]
            if self._priority.get(item) == priority:
                return priority
            heapq.heappop(self._heap)
        return None

    def get_priority(self, item: Hashable) -> Optional[float]:
        """Current priority of ``item``, or None if absent."""
        return self._priority.get(item)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._priority

    def __len__(self) -> int:
        return len(self._priority)

    def __bool__(self) -> bool:
        return bool(self._priority)

    def items(self) -> Iterator[tuple[Hashable, float]]:
        """Live ``(item, priority)`` pairs, arbitrary order.

        Used by the bound computation to scan the frontier; cost is the
        number of *live* entries, not heap size.
        """
        return iter(self._priority.items())
