"""Zipf-distributed vocabularies for synthetic text generation.

The paper's stress cases come from term-frequency skew: ``database``
matches thousands of DBLP tuples while ``Giora`` matches five.  A
:class:`ZipfVocabulary` reproduces that skew: rank-``r`` word drawn with
probability proportional to ``1 / r**s``.  Head words double as the
workload's Large-origin keywords, tail words as Tiny ones.

The generators' other skew, preferential attachment, draws from
:class:`_FenwickTree`.
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import Optional, Sequence

__all__ = ["ZipfVocabulary", "TOPIC_WORDS", "make_vocabulary"]

#: Head of the synthetic research vocabulary (frequency rank order).
TOPIC_WORDS: tuple[str, ...] = (
    "database", "query", "system", "data", "analysis", "model", "network",
    "distributed", "parallel", "transaction", "optimization", "processing",
    "search", "keyword", "index", "graph", "algorithm", "performance",
    "recovery", "storage", "memory", "cache", "stream", "mining", "learning",
    "xml", "web", "relational", "semantic", "schema", "join", "aggregation",
    "concurrency", "replication", "consistency", "partition", "cluster",
    "scalable", "adaptive", "approximate", "ranking", "retrieval", "text",
    "spatial", "temporal", "probabilistic", "incremental", "dynamic",
    "efficient", "robust", "secure", "privacy", "compression", "sampling",
    "estimation", "workload", "benchmark", "prototype", "architecture",
    "framework", "language", "compiler", "scheduler", "protocol", "sensor",
    "mobile", "wireless", "energy", "fault", "tolerance", "availability",
    "latency", "throughput", "bandwidth", "topology", "routing", "caching",
    "materialized", "view", "cube", "warehouse", "olap", "oltp", "logging",
    "checkpoint", "serializable", "snapshot", "isolation", "locking",
    "validation", "versioning", "provenance", "lineage", "integration",
    "federation", "mediation", "wrapper", "crawler", "parser", "tokenizer",
)


class ZipfVocabulary:
    """Draws words with Zipfian rank-frequency skew."""

    def __init__(self, words: Sequence[str], *, s: float = 1.0) -> None:
        if not words:
            raise ValueError("vocabulary must be non-empty")
        if s < 0.0:
            raise ValueError(f"zipf exponent must be >= 0, got {s!r}")
        self.words = tuple(words)
        self.s = s
        weights = [1.0 / (rank ** s) for rank in range(1, len(self.words) + 1)]
        self._cumulative = list(itertools.accumulate(weights))

    def sample(self, rng: random.Random) -> str:
        """Draw one word."""
        point = rng.random() * self._cumulative[-1]
        return self.words[bisect.bisect_left(self._cumulative, point)]

    def sample_many(self, rng: random.Random, count: int) -> list[str]:
        return [self.sample(rng) for _ in range(count)]

    def phrase(self, rng: random.Random, min_words: int, max_words: int) -> str:
        """A title-like phrase of ``min_words..max_words`` distinct-ish words."""
        count = rng.randint(min_words, max_words)
        return " ".join(self.sample_many(rng, count))

    def __len__(self) -> int:
        return len(self.words)


def make_vocabulary(
    size: int,
    *,
    s: float = 1.0,
    head: Optional[Sequence[str]] = None,
    tail_prefix: str = "term",
) -> ZipfVocabulary:
    """Vocabulary of ``size`` words: a realistic head plus a generated
    tail (``term0001``, ...) providing arbitrarily rare keywords."""
    base = tuple(head) if head is not None else TOPIC_WORDS
    if size <= len(base):
        return ZipfVocabulary(base[:size], s=s)
    tail = tuple(
        f"{tail_prefix}{i:04d}" for i in range(size - len(base))
    )
    return ZipfVocabulary(base + tail, s=s)


class _FenwickTree:
    """Non-negative integer weights with O(log n) updates and draws.

    The generators' preferential-attachment draws: ``draw(rng, m)``
    returns the index ``rng.choices(range(m), weights=w[:m])[0]`` would,
    from the same single ``rng.random()``, so every generated row stays
    the same while a draw no longer re-sums the whole weight list.
    """

    def __init__(self, weights: Sequence[int]) -> None:
        tree = [0, *weights]
        n = len(weights)
        for i in range(1, n + 1):
            parent = i + (i & -i)
            if parent <= n:
                tree[parent] += tree[i]
        self._tree = tree
        self._top = 1 << (n.bit_length() - 1) if n else 0

    def add(self, i: int, delta: int) -> None:
        """Add ``delta`` to the weight at index ``i``."""
        tree = self._tree
        i += 1
        while i < len(tree):
            tree[i] += delta
            i += i & -i

    def prefix(self, m: int) -> int:
        """Sum of the first ``m`` weights."""
        tree = self._tree
        total = 0
        while m:
            total += tree[m]
            m &= m - 1
        return total

    def draw(self, rng: random.Random, m: int) -> int:
        """An index in ``range(m)`` drawn in proportion to its weight."""
        point = rng.random() * (self.prefix(m) + 0.0)
        tree = self._tree
        n = len(tree) - 1
        pos = acc = 0
        step = self._top
        # Largest pos whose prefix sum is <= point: bisect_right over the
        # cumulative weights.  acc + tree[j] is that prefix, an int, so the
        # comparison with the float is exact, as it is in bisect.
        while step:
            j = pos + step
            if j <= n and acc + tree[j] <= point:
                pos = j
                acc += tree[j]
            step >>= 1
        # choices bounds bisect with hi = m - 1: a point at the total
        # still lands in range(m).
        return min(pos, m - 1)
