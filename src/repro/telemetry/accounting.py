"""Per-query resource accounting: explain reports, fingerprints and
fleet-wide workload analytics.

Three cooperating pieces, all JSON-safe and dependency-free so every
tier (engine, thread service, sharded supervisor, HTTP debug surface)
can pass them around as plain dicts:

* :func:`build_explain_report` — turns one finished search (its stats,
  sampled timeline and released answers) into a structured report with
  a **canonical** section that is deterministic across runs and
  timeline sampling intervals (seed resolution, parameter echo,
  answers with full score decompositions) and non-canonical sections
  (timeline, cost vector, timings) that legitimately vary run to run.
* :func:`query_fingerprint` — the canonical workload identity of a
  query: sorted lower-cased terms + algorithm + a digest of the
  parameter overrides.  Caching keys identify *result* identity;
  fingerprints identify *workload shape* (term order and k don't
  change what the search does structurally, so they are folded away).
* :class:`SpaceSavingSketch` / :class:`WorkloadAnalytics` — a
  space-saving heavy-hitter sketch (Metwally et al., ICDT 2005) over
  fingerprints carrying per-key cost/latency aggregates, with the
  mergeability the sharded tier needs: each replica keeps its own
  sketch and the supervisor folds their exports into one fleet view,
  like the metrics registry.

:class:`ExplainStore` is the bounded keep-last-N report store behind
``GET /debug/explain/<request_id>``.
"""

from __future__ import annotations

import json
import threading
import zlib
from collections import OrderedDict
from typing import Iterable, Mapping, Optional, Sequence

__all__ = [
    "ExplainStore",
    "SpaceSavingSketch",
    "WorkloadAnalytics",
    "build_explain_report",
    "canonical_explain_bytes",
    "merge_sketch_exports",
    "query_fingerprint",
]


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
def _params_digest(params) -> str:
    """Stable short digest of a parameter override mapping/dataclass."""
    if params is None:
        payload: dict = {}
    elif isinstance(params, Mapping):
        payload = dict(params)
    elif hasattr(params, "__dataclass_fields__"):
        import dataclasses

        payload = dataclasses.asdict(params)
    else:  # pragma: no cover - defensive
        payload = {"repr": repr(params)}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    # crc32, as ``ShardRouter`` keys by: a label, not a secret, and hashlib
    # would map OpenSSL into every serving process for it.
    return f"{zlib.crc32(blob.encode('utf-8')):08x}"


def query_fingerprint(
    query, algorithm: str = "bidirectional", params=None
) -> str:
    """Canonical workload identity of a query.

    ``query`` is a keyword sequence or a raw query string (kept as one
    term then — the service fingerprints *resolved* keyword tuples).
    The result is human-scannable (``algo|sorted terms|digest``) so the
    heavy-hitter table reads directly on a dashboard.
    """
    if isinstance(query, str):
        terms: Sequence[str] = (query,)
    else:
        terms = tuple(str(t) for t in query)
    canon = " ".join(sorted(t.strip().lower() for t in terms if t.strip()))
    return f"{algorithm}|{canon}|{_params_digest(params)}"


# ----------------------------------------------------------------------
# heavy-hitter sketch
# ----------------------------------------------------------------------
class SpaceSavingSketch:
    """Space-saving top-K sketch with per-key cost aggregates.

    Counter semantics (Metwally et al.): each tracked key holds an
    over-estimate ``est`` and an error bound ``err`` such that
    ``true <= est`` and ``est - err <= true``.  A full sketch evicts
    the minimum-``est`` key to admit a new one, inheriting its count as
    the newcomer's error.  ``absent_bound()`` upper-bounds the true
    count of any key *not* tracked — the completeness guarantee the
    property tests pin: every key with true count above that bound is
    in the sketch.

    :meth:`merge` implements the mergeable-summaries combine: per-key
    estimates (and errors) add, a key absent from one side contributes
    that side's absent bound to both, and the union is pruned back to
    capacity.  All three invariants above survive the merge, which is
    what lets replicas sketch independently and the supervisor fold.

    Aggregates (query count is ``est`` itself; ``elapsed`` seconds and
    integer cost counters sum per key) are exact for keys never
    evicted and reset on eviction — approximate exactly where the
    count itself is.

    Not thread-safe; :class:`WorkloadAnalytics` adds the lock.
    """

    __slots__ = ("capacity", "total", "_floor", "_entries")

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        #: Total observations offered (sum over all streams merged in).
        self.total = 0
        # Lower bound carried by merges for keys absent from a
        # non-full sketch (0 until a merge of full sketches happens).
        self._floor = 0
        # key -> [est, err, elapsed_total, {cost: total}]
        self._entries: dict[str, list] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    # ------------------------------------------------------------------
    def offer(
        self,
        key: str,
        count: int = 1,
        *,
        elapsed: float = 0.0,
        costs: Optional[Mapping[str, int]] = None,
    ) -> None:
        """Record ``count`` observations of ``key`` with its costs."""
        self.total += count
        entry = self._entries.get(key)
        if entry is not None:
            entry[0] += count
        elif len(self._entries) < self.capacity:
            entry = self._entries[key] = [count + self._floor, self._floor, 0.0, {}]
        else:
            victim = min(self._entries, key=lambda k: self._entries[k][0])
            floor = self._entries.pop(victim)[0]
            self._floor = max(self._floor, floor)
            entry = self._entries[key] = [floor + count, floor, 0.0, {}]
        entry[2] += float(elapsed)
        if costs:
            bucket = entry[3]
            for name, value in costs.items():
                bucket[name] = bucket.get(name, 0) + int(value)

    def absent_bound(self) -> int:
        """Upper bound on the true count of any key not in the sketch."""
        if len(self._entries) >= self.capacity:
            return max(
                self._floor, min(entry[0] for entry in self._entries.values())
            )
        return self._floor

    # ------------------------------------------------------------------
    def merge(self, other: "SpaceSavingSketch") -> None:
        """Fold ``other`` into this sketch (mergeable-summaries combine)."""
        bound_self = self.absent_bound()
        bound_other = other.absent_bound()
        merged: dict[str, list] = {}
        for key in set(self._entries) | set(other._entries):
            a = self._entries.get(key)
            b = other._entries.get(key)
            est = (a[0] if a else bound_self) + (b[0] if b else bound_other)
            err = (a[1] if a else bound_self) + (b[1] if b else bound_other)
            elapsed = (a[2] if a else 0.0) + (b[2] if b else 0.0)
            costs: dict[str, int] = dict(a[3]) if a else {}
            if b:
                for name, value in b[3].items():
                    costs[name] = costs.get(name, 0) + value
            merged[key] = [est, err, elapsed, costs]
        floor = bound_self + bound_other
        if len(merged) > self.capacity:
            keep = sorted(merged, key=lambda k: (-merged[k][0], k))
            for key in keep[self.capacity:]:
                floor = max(floor, merged.pop(key)[0])
        self._entries = merged
        self._floor = floor
        self.total += other.total

    # ------------------------------------------------------------------
    def top(self, n: Optional[int] = None) -> list[dict]:
        """The tracked keys, heaviest first, as JSON-safe dicts."""
        order = sorted(
            self._entries.items(), key=lambda item: (-item[1][0], item[0])
        )
        if n is not None:
            order = order[:n]
        return [
            {
                "key": key,
                "count": entry[0],
                "error": entry[1],
                "elapsed_total": entry[2],
                "costs": dict(entry[3]),
            }
            for key, entry in order
        ]

    def to_dict(self) -> dict:
        return {
            "capacity": self.capacity,
            "total": self.total,
            "floor": self._floor,
            "entries": self.top(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SpaceSavingSketch":
        sketch = cls(int(payload.get("capacity", 64)))
        sketch.total = int(payload.get("total", 0))
        sketch._floor = int(payload.get("floor", 0))
        for row in payload.get("entries", ()):
            sketch._entries[str(row["key"])] = [
                int(row.get("count", 0)),
                int(row.get("error", 0)),
                float(row.get("elapsed_total", 0.0)),
                {str(k): int(v) for k, v in dict(row.get("costs", {})).items()},
            ]
        return sketch


def merge_sketch_exports(exports: Iterable[Mapping]) -> dict:
    """Fold replica sketch exports (:meth:`SpaceSavingSketch.to_dict`)
    into one fleet-wide export — the supervisor's ``/debug/queries``."""
    merged: Optional[SpaceSavingSketch] = None
    for payload in exports:
        sketch = SpaceSavingSketch.from_dict(payload)
        if merged is None:
            merged = sketch
        else:
            merged.merge(sketch)
    if merged is None:
        merged = SpaceSavingSketch()
    return merged.to_dict()


class WorkloadAnalytics:
    """Thread-safe per-service workload aggregation over fingerprints."""

    def __init__(self, capacity: int = 64) -> None:
        self._lock = threading.Lock()
        self._sketch = SpaceSavingSketch(capacity)

    def record(
        self,
        fingerprint: str,
        *,
        elapsed: float = 0.0,
        costs: Optional[Mapping[str, int]] = None,
    ) -> None:
        with self._lock:
            self._sketch.offer(fingerprint, elapsed=elapsed, costs=costs)

    def export(self) -> dict:
        """JSON-safe snapshot (wire format for worker -> supervisor)."""
        with self._lock:
            return self._sketch.to_dict()

    def top(self, n: int = 10) -> list[dict]:
        with self._lock:
            return self._sketch.top(n)


# ----------------------------------------------------------------------
# explain reports
# ----------------------------------------------------------------------
#: Origin-node ids sampled per keyword into the canonical seed section.
SEED_SAMPLE = 8

#: Answer-tree score formula echoed into every decomposition (paper
#: Section 2.3, normalized as DESIGN.md Section 3 records).
SCORE_FORMULA = "node_score**lambda / (1 + edge_score)"


def _decompose_answer(rank: int, answer, keywords, graph, lam: float) -> dict:
    """Per-answer score decomposition, recomputed from first principles
    so a reader can audit the released score against the paper's
    ranking formula (Section 2.3 via the Scorer)."""
    tree = answer.tree
    root_prestige = float(graph.node_prestige(tree.root))
    leaf_terms = [
        {"node": int(node), "prestige": float(graph.node_prestige(node))}
        for node in sorted(tree.leaves())
        if node != tree.root
    ]
    return {
        "rank": rank,
        "root": int(tree.root),
        "score": float(tree.score),
        "edge_score": float(tree.edge_score),
        "node_score": float(tree.node_score),
        "decomposition": {
            "formula": SCORE_FORMULA,
            "lambda": float(lam),
            "root_prestige": root_prestige,
            "leaf_terms": leaf_terms,
            "paths": [
                {
                    "keyword": str(keywords[i]),
                    "path": [int(node) for node in path],
                    "dist": float(tree.dists[i]),
                }
                for i, path in enumerate(tree.paths)
            ],
        },
        # The output tie-break rule itself is canonical; the observed
        # pop counts are exploration-order dependent and live in the
        # report's non-canonical ``answer_timing`` section.
        "tie_break": "equal-score answers release in generation order",
    }


def build_explain_report(
    *,
    result,
    keywords: Sequence[str],
    keyword_sets: Sequence[frozenset[int]],
    params,
    graph,
    timeline: Optional[Sequence[dict]] = None,
) -> dict:
    """Assemble the explain report for one finished search.

    The ``canonical`` section depends only on the query and the
    released answers — per-term seed resolution (posting sizes plus a
    sorted sample of origin ids), the parameter echo and per-answer
    score decompositions —
    and is byte-stable across runs (:func:`canonical_explain_bytes`
    pins this).  ``timeline`` (the
    sampled expansion trajectory and scheduling decisions), ``costs``
    (the always-on counters) and ``timings`` vary run to run and live
    outside it.
    """
    import dataclasses

    from repro.core.scoring import LAMBDA

    seeds = [
        {
            "keyword": str(keyword),
            "origin_count": len(nodes),
            "origin_sample": [int(n) for n in sorted(nodes)[:SEED_SAMPLE]],
        }
        for keyword, nodes in zip(keywords, keyword_sets)
    ]
    answers = [
        _decompose_answer(rank, answer, keywords, graph, LAMBDA)
        for rank, answer in enumerate(result.answers)
    ]
    stats = result.stats
    return {
        "version": 1,
        "canonical": {
            "algorithm": result.algorithm,
            "keywords": [str(k) for k in keywords],
            "seeds": seeds,
            "params": dict(sorted(dataclasses.asdict(params).items())),
            "answers": answers,
            "complete": bool(result.complete),
        },
        "timeline": [dict(event) for event in (timeline or ())],
        "answer_timing": [
            {
                "rank": rank,
                "generated_pops": int(answer.generated_pops),
                "output_pops": int(answer.output_pops),
            }
            for rank, answer in enumerate(result.answers)
        ],
        "costs": stats.cost_vector() if stats is not None else {},
        "timings": {"elapsed": stats.elapsed if stats is not None else 0.0},
    }


def canonical_explain_bytes(report: Mapping) -> bytes:
    """The canonical section serialized reproducibly — the bytes the
    determinism test compares."""
    return json.dumps(
        report.get("canonical", {}),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
    ).encode("utf-8")


# ----------------------------------------------------------------------
# explain store
# ----------------------------------------------------------------------
class ExplainStore:
    """Bounded keep-last-N store of explain reports by request id."""

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._reports: "OrderedDict[str, dict]" = OrderedDict()

    def put(self, request_id: str, report: dict) -> None:
        with self._lock:
            self._reports[request_id] = report
            self._reports.move_to_end(request_id)
            while len(self._reports) > self.capacity:
                self._reports.popitem(last=False)

    def get(self, request_id: str) -> Optional[dict]:
        with self._lock:
            return self._reports.get(request_id)

    def __len__(self) -> int:
        with self._lock:
            return len(self._reports)
