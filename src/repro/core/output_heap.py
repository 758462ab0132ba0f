"""Output buffer with duplicate discard and bounded release (Section 4.5).

Answers are not generated in relevance order, so they are buffered here
and released only when the caller-computed bound proves no
still-ungenerated answer could beat them.  Rotations of one tree
(same undirected skeleton, different root) are duplicates; the lower-
scoring one is discarded (Section 4.2.3).

Two release modes mirror the paper:

* ``"exact"``: release answers whose overall score is >= the NRA-style
  score upper bound on future answers;
* ``"heuristic"``: release answers whose raw edge score ``E`` is <= the
  edge-score lower bound ``h(m_1..m_k)`` on future answers, sorted by
  relevance among themselves — cheaper, faster output, possibly out of
  order (quantified by the RP experiment).

Exact release is best-first and the caller stops it at ``quota``
answers, so the buffer also knows a score no later answer can be
released below: the ``quota``-th best among the distinct answers it has
ever accepted (:attr:`OutputHeap.release_floor`).  Emission uses it to
skip trees that can never be output before building them.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.core.answer import AnswerTree, Signature

__all__ = ["OutputHeap", "BufferedAnswer"]


@dataclass(frozen=True)
class BufferedAnswer:
    """An answer awaiting release, with its generation instant."""

    tree: AnswerTree
    generated_at: float
    generated_pops: int
    generated_touched: int = 0


class OutputHeap:
    """Score-ordered buffer of deduplicated answers."""

    def __init__(self, mode: str = "exact", quota: Optional[int] = None) -> None:
        if mode not in ("exact", "heuristic"):
            raise ValueError(f"mode must be 'exact' or 'heuristic', got {mode!r}")
        if quota is not None and quota < 1:
            raise ValueError(f"quota must be >= 1, got {quota!r}")
        self.mode = mode
        #: The ``quota``-th best score among distinct answers buffered or
        #: released so far; 0.0 (blocks nothing) until ``quota`` of them
        #: exist, with no quota, and always in heuristic mode, whose
        #: release order is not by score.  Never decreases.
        self.release_floor = 0.0
        self._quota = quota if mode == "exact" else None
        self._best: list[float] = []
        self._entries: dict[Signature, BufferedAnswer] = {}
        self._heap: list[tuple[float, int, Signature]] = []
        self._seq = itertools.count()
        self._emitted: set[Signature] = set()

    # ------------------------------------------------------------------
    def add(
        self,
        tree: AnswerTree,
        generated_at: float,
        generated_pops: int,
        generated_touched: int = 0,
    ) -> str:
        """Buffer ``tree``; returns ``"new"``, ``"improved"`` or ``"duplicate"``.

        A rotation already *released* to the user is never re-buffered
        (``"duplicate"``), matching the streaming behaviour: once output,
        an answer is final.
        """
        signature = tree.signature()
        if signature in self._emitted:
            return "duplicate"
        existing = self._entries.get(signature)
        if existing is not None:
            if tree.score <= existing.tree.score:
                return "duplicate"
            status = "improved"
        else:
            status = "new"
            if self._quota is not None:
                self._raise_floor(tree.score)
        entry = BufferedAnswer(tree, generated_at, generated_pops, generated_touched)
        self._entries[signature] = entry
        heapq.heappush(self._heap, (-tree.score, next(self._seq), signature))
        return status

    def _raise_floor(self, score: float) -> None:
        """Count a new distinct answer toward the release floor.

        Only ``"new"`` adds count, at their first score: a later
        ``"improved"`` re-add leaves the floor an understatement, which
        blocks less and never wrongly.
        """
        best = self._best
        if len(best) < self._quota:
            heapq.heappush(best, score)
        elif score > best[0]:
            heapq.heapreplace(best, score)
        else:
            return
        if len(best) == self._quota:
            self.release_floor = best[0]

    # ------------------------------------------------------------------
    def peek_best_score(self) -> Optional[float]:
        self._skim()
        if not self._heap:
            return None
        return -self._heap[0][0]

    def pop_ready(
        self,
        *,
        score_bound: Optional[float] = None,
        edge_bound: Optional[float] = None,
    ) -> Iterator[BufferedAnswer]:
        """Yield buffered answers the current bound allows releasing.

        ``score_bound`` (exact mode): release while the best buffered
        score is >= the bound.  ``edge_bound`` (heuristic mode): release
        every answer with ``edge_score <= edge_bound``, best score first.
        Passing ``None`` for the relevant bound releases nothing.
        """
        if self.mode == "exact":
            if score_bound is None:
                return
            while True:
                self._skim()
                if not self._heap:
                    return
                score = -self._heap[0][0]
                if score < score_bound:
                    return
                yield self._pop_top()
        else:
            if edge_bound is None:
                return
            ready = [
                (signature, entry)
                for signature, entry in self._entries.items()
                if entry.tree.edge_score <= edge_bound
            ]
            ready.sort(key=lambda item: -item[1].tree.score)
            for signature, entry in ready:
                del self._entries[signature]
                self._emitted.add(signature)
                yield entry

    def drain(self) -> Iterator[BufferedAnswer]:
        """Release everything left, best score first (search exhausted)."""
        while True:
            self._skim()
            if not self._heap:
                return
            yield self._pop_top()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    # ------------------------------------------------------------------
    def _skim(self) -> None:
        """Drop stale heap records (superseded or already released)."""
        while self._heap:
            neg_score, _, signature = self._heap[0]
            entry = self._entries.get(signature)
            if entry is not None and entry.tree.score == -neg_score:
                return
            heapq.heappop(self._heap)

    def _pop_top(self) -> BufferedAnswer:
        _, _, signature = heapq.heappop(self._heap)
        entry = self._entries.pop(signature)
        self._emitted.add(signature)
        return entry
