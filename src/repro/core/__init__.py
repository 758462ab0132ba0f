"""Core search: the paper's three algorithms, their shared search state,
the answer model, and the exhaustive oracle the searches are checked
against.

Re-exports are lazy (:mod:`repro._lazy`): a process imports only what it runs.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.answer import (
        AnswerTree,
        OutputAnswer,
        SearchResult,
        is_minimal_rooting,
    )
    from repro.core.backward_mi import BackwardExpandingSearch, ShortestPathIterator
    from repro.core.backward_si import SingleIteratorBackwardSearch
    from repro.core.bidirectional import BidirectionalSearch
    from repro.core.cancellation import CancellationToken
    from repro.core.driver import nra_edge_bound
    from repro.core.engine import ALGORITHMS, KeywordSearchEngine
    from repro.core.exhaustive import exhaustive_answers, keyword_distances
    from repro.core.heaps import LazyMinHeap
    from repro.core.output_heap import BufferedAnswer, OutputHeap
    from repro.core.params import DEFAULT_PARAMS, SearchParams
    from repro.core.query import parse_query
    from repro.core.scoring import Scorer, edge_score, overall_score
    from repro.core.state import ActivationState, PathState
    from repro.core.stats import SearchStats

__all__ = [
    "ActivationState",
    "AnswerTree",
    "OutputAnswer",
    "SearchResult",
    "is_minimal_rooting",
    "BackwardExpandingSearch",
    "ShortestPathIterator",
    "SingleIteratorBackwardSearch",
    "BidirectionalSearch",
    "CancellationToken",
    "nra_edge_bound",
    "ALGORITHMS",
    "KeywordSearchEngine",
    "parse_query",
    "exhaustive_answers",
    "keyword_distances",
    "LazyMinHeap",
    "BufferedAnswer",
    "OutputHeap",
    "DEFAULT_PARAMS",
    "SearchParams",
    "PathState",
    "Scorer",
    "edge_score",
    "overall_score",
    "SearchStats",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    answer="AnswerTree OutputAnswer SearchResult is_minimal_rooting",
    backward_mi="BackwardExpandingSearch ShortestPathIterator",
    backward_si="SingleIteratorBackwardSearch",
    bidirectional="BidirectionalSearch",
    cancellation="CancellationToken",
    driver="nra_edge_bound",
    engine="ALGORITHMS KeywordSearchEngine",
    exhaustive="exhaustive_answers keyword_distances",
    heaps="LazyMinHeap",
    output_heap="BufferedAnswer OutputHeap",
    params="DEFAULT_PARAMS SearchParams",
    query="parse_query",
    scoring="Scorer edge_score overall_score",
    state="ActivationState PathState",
    stats="SearchStats",
)
