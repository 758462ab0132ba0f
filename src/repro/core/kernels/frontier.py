"""Vectorized batch-pop priority frontier (dense, node-indexed).

The batched engines replace the lazy binary heaps with a flat array
structure: one priority slot per graph node, a boolean membership mask,
and an insertion sequence number for deterministic tie-breaking.
``pop_batch(b)`` extracts the ``b`` best live entries in one
``argpartition`` + ``lexsort`` pass — O(frontier) per *batch* instead
of O(log frontier) per *pop*, and entirely in numpy.

Determinism contract: pops order by ``(priority, seq)`` — seq assigned
on first insertion and on every :meth:`push` re-insertion (mirroring
the lazy heaps' push-on-update), while :meth:`update_many`
reprioritizes *without* bumping seq (the batched engines' deferred
decrease/increase-key, applied in bulk at batch end where arrival order
is meaningless).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["VectorFrontier"]

_EMPTY = np.zeros(0, dtype=np.int64)


class VectorFrontier:
    """Dense min- or max-frontier over nodes ``0..n-1`` with batch pops."""

    def __init__(self, n: int, kind: str = "min") -> None:
        if kind not in ("min", "max"):
            raise ValueError(f"kind must be 'min' or 'max', got {kind!r}")
        self._sign = 1.0 if kind == "min" else -1.0
        # Signed priority; +inf marks an absent node so selection can
        # ignore membership without a second mask read.
        self._key = np.full(n, np.inf, dtype=np.float64)
        self._seq = np.zeros(n, dtype=np.int64)
        self._in = np.zeros(n, dtype=bool)
        self._count = 0
        self._next_seq = 0

    # ------------------------------------------------------------------
    def push(self, node: int, priority: float) -> None:
        """Insert or re-prioritize one node (seq bumps either way)."""
        if not self._in[node]:
            self._in[node] = True
            self._count += 1
        self._key[node] = self._sign * priority
        self._seq[node] = self._next_seq
        self._next_seq += 1

    def push_many(self, nodes: np.ndarray, priorities: np.ndarray) -> int:
        """Bulk :meth:`push` of *unique* nodes; seq follows array order.

        Returns how many nodes were newly inserted (the ``touched``
        count for stats).
        """
        m = len(nodes)
        if m == 0:
            return 0
        new = int((~self._in[nodes]).sum())
        self._in[nodes] = True
        self._count += new
        self._key[nodes] = self._sign * priorities
        self._seq[nodes] = np.arange(
            self._next_seq, self._next_seq + m, dtype=np.int64
        )
        self._next_seq += m
        return new

    def update_many(self, nodes: np.ndarray, priorities: np.ndarray) -> None:
        """Reprioritize live nodes in bulk (seq preserved).

        Callers pass only nodes currently in the frontier.
        """
        if len(nodes) == 0:
            return
        self._key[nodes] = self._sign * priorities

    # ------------------------------------------------------------------
    def pop_batch(self, b: int) -> np.ndarray:
        """Remove and return up to ``b`` nodes, best ``(priority, seq)``
        first; the returned array is in pop order."""
        if b < 1 or self._count == 0:
            return _EMPTY
        live = np.flatnonzero(self._in)
        k = min(b, live.size)
        keys = self._key[live]
        if k < live.size:
            part = np.argpartition(keys, k - 1)[:k]
            boundary = keys[part].max()
            cand = live[keys <= boundary]
        else:
            cand = live
        order = np.lexsort((self._seq[cand], self._key[cand]))
        chosen = cand[order[:k]]
        self._in[chosen] = False
        self._key[chosen] = np.inf
        self._count -= k
        return chosen.astype(np.int64, copy=False)

    # ------------------------------------------------------------------
    def peek_priority(self) -> Optional[float]:
        """Best live priority, or None when empty."""
        if self._count == 0:
            return None
        return float(self._sign * self._key.min())

    def live_nodes(self) -> np.ndarray:
        """Live node ids, ascending (the bound computation's frontier)."""
        return np.flatnonzero(self._in)

    @property
    def contains_mask(self) -> np.ndarray:
        """Boolean membership mask (read-only by convention)."""
        return self._in

    def __contains__(self, node: int) -> bool:
        return bool(self._in[node])

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0
