"""Public facade: keyword search over a graph + index pair.

Ties together the search graph, the inverted index, the scorer and the
three algorithms behind one call::

    engine = KeywordSearchEngine.from_database(db)
    result = engine.search("gray transaction", algorithm="bidirectional")

Query syntax (:func:`~repro.core.query.parse_query`, re-exported here):
whitespace-separated keywords; double quotes group a multi-word keyword
(the paper's DQ1 ``"David Fernandez" parametric``), which matches nodes
containing *all* of its words.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Optional, Sequence, Union

from repro.core.answer import SearchResult
from repro.core.backward_mi import BackwardExpandingSearch
from repro.core.backward_si import SingleIteratorBackwardSearch
from repro.core.bidirectional import BidirectionalSearch
from repro.core.cancellation import CancellationToken
from repro.core.exhaustive import exhaustive_answers
from repro.core.params import SearchParams
from repro.core.query import parse_query
from repro.core.scoring import Scorer
from repro.errors import KeywordNotFoundError
from repro.index.tokenizer import tokenize
from repro.telemetry.trace import current_span, use_span

__all__ = ["KeywordSearchEngine", "parse_query", "ALGORITHMS"]

#: Short stage names used in span labels (``expand[bidir]``).
_SPAN_ALGO = {
    "bidirectional": "bidir",
    "si-backward": "si",
    "mi-backward": "mi",
}

#: Algorithm name -> search class (keys: ``query.ALGORITHM_NAMES``).
ALGORITHMS = {
    "bidirectional": BidirectionalSearch,
    "si-backward": SingleIteratorBackwardSearch,
    "mi-backward": BackwardExpandingSearch,
}


@contextmanager
def _stage(parent, name: str):
    """A child span ``name`` of ``parent`` around the block, or ``None``
    when untraced; the span ends with status ``error`` if the block
    raises."""
    if parent is None:
        yield None
        return
    span = parent.child(name)
    try:
        yield span
    except BaseException:
        span.end(status="error")
        raise
    span.end()


class KeywordSearchEngine:
    """Search facade over a frozen graph and its keyword index.

    The graph and index never change after construction ("index is
    frozen"), so the engine memoizes derived state freely: one scorer
    for every search and the resolved keyword sets per query string.
    The resolve cache is lock-protected — the service layer runs
    searches from many threads against one engine.
    """

    #: Bound on the resolve cache; far above any benchmark's distinct
    #: query count, small enough to never matter for memory.
    _RESOLVE_CACHE_SIZE = 4096

    def __init__(self, graph, index, *, params: Optional[SearchParams] = None) -> None:
        self.graph = graph
        self.index = index
        self.params = params if params is not None else SearchParams()
        self.scorer = Scorer(graph)
        self._cache_lock = threading.Lock()
        self._resolve_cache: "OrderedDict[tuple, tuple]" = OrderedDict()

    # ------------------------------------------------------------------
    @classmethod
    def from_database(
        cls,
        db,
        *,
        params: Optional[SearchParams] = None,
        compute_prestige: bool = True,
    ) -> "KeywordSearchEngine":
        """Build graph, prestige and index from a relational database."""
        from repro.graph.builder import build_search_graph
        from repro.index.inverted import build_index

        graph = build_search_graph(db, compute_prestige=compute_prestige)
        index = build_index(db, graph)
        return cls(graph, index, params=params)

    # ------------------------------------------------------------------
    def resolve(
        self, query: Union[str, Sequence[str]]
    ) -> tuple[tuple[str, ...], list[frozenset[int]]]:
        """Parse the query and resolve each keyword to its node set ``S_i``.

        A multi-word keyword matches the intersection of its words'
        postings.  Raises :class:`KeywordNotFoundError` for a keyword
        with no matches (AND semantics admit no answer then).

        Resolutions are cached (LRU, successful lookups only): the index
        is frozen, so a keyword's node set can never change and no
        invalidation is needed — repeated queries skip index lookups
        entirely.
        """
        keywords = parse_query(query)
        with self._cache_lock:
            hit = self._resolve_cache.get(keywords)
            if hit is not None:
                self._resolve_cache.move_to_end(keywords)
                return keywords, list(hit)
        keyword_sets: list[frozenset[int]] = []
        for keyword in keywords:
            words = list(tokenize(keyword))
            if not words:
                raise KeywordNotFoundError(keyword)
            nodes = self.index.lookup(words[0])
            for word in words[1:]:
                nodes = nodes & self.index.lookup(word)
            if not nodes:
                raise KeywordNotFoundError(keyword)
            keyword_sets.append(frozenset(nodes))
        with self._cache_lock:
            self._resolve_cache[keywords] = tuple(keyword_sets)
            self._resolve_cache.move_to_end(keywords)
            while len(self._resolve_cache) > self._RESOLVE_CACHE_SIZE:
                self._resolve_cache.popitem(last=False)
        return keywords, keyword_sets

    def origin_sizes(self, query: Union[str, Sequence[str]]) -> tuple[int, ...]:
        """Per-keyword origin-set sizes (the paper's "#Keyword nodes")."""
        _, keyword_sets = self.resolve(query)
        return tuple(len(nodes) for nodes in keyword_sets)

    # ------------------------------------------------------------------
    def search(
        self,
        query: Union[str, Sequence[str]],
        *,
        algorithm: str = "bidirectional",
        k: Optional[int] = None,
        params: Optional[SearchParams] = None,
        token: Optional[CancellationToken] = None,
        explain: bool = False,
    ) -> SearchResult:
        """Run a keyword search and return its :class:`SearchResult`.

        Parameters
        ----------
        query:
            Query string or keyword sequence.
        algorithm:
            One of ``"bidirectional"``, ``"si-backward"``,
            ``"mi-backward"``.
        k:
            Top-k override (defaults to ``params.max_results``).
        params:
            Full parameter override for this call.
        token:
            Optional :class:`CancellationToken`, ticked once per pop:
            a deadline or an explicit :meth:`~CancellationToken.cancel`
            stops the search at its next check, which returns the
            bound-certified answers released so far with
            ``complete=False`` (never raises).
        explain:
            When True the search collects a sampled expansion timeline
            and the result carries a structured explain report
            (``result.explain``) — seed resolution, scheduling
            decisions, per-answer score decompositions and the cost
            vector; see :mod:`repro.telemetry.accounting`.
        """
        try:
            search_cls = ALGORITHMS[algorithm]
        except KeyError:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; expected one of "
                f"{sorted(ALGORITHMS)}"
            ) from None
        run_params = params if params is not None else self.params
        if k is not None:
            run_params = run_params.with_(max_results=k)
        # Under an ambient span the engine stages become its children:
        # ``resolve`` -> ``expand[...]`` -> ``emit``.
        parent = current_span()
        with _stage(parent, "resolve") as span:
            keywords, keyword_sets = self.resolve(query)
            if span is not None:
                span.set_attributes(
                    {
                        "keywords": len(keywords),
                        "origin_nodes": sum(len(nodes) for nodes in keyword_sets),
                    }
                )
        expand = f"expand[{_SPAN_ALGO.get(algorithm, algorithm)}]"
        with _stage(parent, expand) as span, use_span(span):
            search = search_cls(
                self.graph,
                keywords,
                keyword_sets,
                params=run_params,
                scorer=self.scorer,
                token=token,
            )
            search.stats.resolve_hits = sum(len(s) for s in keyword_sets)
            if explain:
                search.enable_explain()
            result = search.run()
        if explain:
            from repro.telemetry.accounting import build_explain_report

            result.explain = build_explain_report(
                result=result,
                keywords=keywords,
                keyword_sets=keyword_sets,
                params=run_params,
                graph=self.graph,
                timeline=search.explain_events,
            )
        if parent is not None:
            # Emission interleaves with expansion, so ``emit`` is the
            # accumulated time the search spent scoring and releasing
            # answers, not a wall-clock interval.
            emit_span = parent.child("emit")
            emit_span.set_attributes(
                {
                    "answers_generated": result.stats.answers_generated,
                    "answers_output": result.stats.answers_output,
                    "duplicates_discarded": result.stats.duplicates_discarded,
                }
            )
            emit_span.end(duration=search.emit_seconds)
        return result

    # ------------------------------------------------------------------
    def exhaustive(
        self,
        query: Union[str, Sequence[str]],
        *,
        max_results: Optional[int] = None,
        max_edge_score: Optional[float] = None,
        token: Optional[CancellationToken] = None,
    ):
        """Oracle enumeration of every answer (small graphs only).

        A fired ``token`` raises
        :class:`~repro.errors.SearchCancelledError` — a half-enumerated
        ground truth has no partial-answer semantics.
        """
        _, keyword_sets = self.resolve(query)
        return exhaustive_answers(
            self.graph,
            keyword_sets,
            self.scorer,
            max_results=max_results,
            max_edge_score=max_edge_score,
            token=token,
        )
