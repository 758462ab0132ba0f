"""Wire format: service dataclasses <-> plain JSON-safe dicts.

Two consumers need the service types flattened to primitives:

* the process-pool sharding tier (:mod:`repro.cluster`), whose contract
  is that nothing un-picklable crosses a process boundary — only
  snapshot paths and request/response-shaped dicts;
* the HTTP front-end (:mod:`repro.cluster.http`), which speaks JSON.

Every ``*_to_dict`` output contains only ``dict`` / ``list`` / ``str``
/ ``int`` / ``float`` / ``bool`` / ``None`` — ``json.dumps`` always
succeeds on it — and every ``*_from_dict`` validates its input and
raises ``ValueError`` on unknown or missing fields, so a malformed
request becomes a structured error response instead of a stack trace
deep inside a worker.

Lossiness is confined to :class:`~repro.service.QueryResponse.exception`
(a live exception object cannot cross the wire; ``error`` /
``error_type`` carry the information) and to
:class:`~repro.core.stats.SearchStats` timestamps (the reconstructed
stats preserve every counter and the elapsed time, re-anchored at zero).
"""

from __future__ import annotations

from dataclasses import asdict, fields
from typing import Optional

from repro.core.answer import AnswerTree, OutputAnswer, SearchResult
from repro.core.params import SearchParams
from repro.core.stats import COST_FIELDS, SearchStats
from repro.service.core import QueryRequest, QueryResponse

__all__ = [
    "params_to_dict",
    "params_from_dict",
    "request_to_dict",
    "request_from_dict",
    "result_to_dict",
    "result_from_dict",
    "response_to_dict",
    "response_from_dict",
    "error_response_dict",
]

_PARAM_FIELDS = frozenset(field.name for field in fields(SearchParams))
_REQUEST_FIELDS = frozenset(field.name for field in fields(QueryRequest))


def _require_mapping(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    return obj


def _reject_unknown(data: dict, allowed: frozenset, what: str) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ValueError(f"{what} has unknown fields: {', '.join(unknown)}")


# ----------------------------------------------------------------------
# SearchParams
# ----------------------------------------------------------------------
def params_to_dict(params: SearchParams) -> dict:
    return asdict(params)


def params_from_dict(data: dict) -> SearchParams:
    data = _require_mapping(data, "params")
    _reject_unknown(data, _PARAM_FIELDS, "params")
    return SearchParams(**data)


# ----------------------------------------------------------------------
# QueryRequest
# ----------------------------------------------------------------------
def request_to_dict(request: QueryRequest) -> dict:
    # No "deadline_ms" key: construction normalizes it into ``timeout``,
    # so the wire shape has exactly one deadline spelling.
    return {
        "dataset": request.dataset,
        "query": (
            request.query
            if isinstance(request.query, str)
            else list(request.query)
        ),
        "algorithm": request.algorithm,
        "k": request.k,
        "params": (
            params_to_dict(request.params) if request.params is not None else None
        ),
        "timeout": request.timeout,
        "use_cache": request.use_cache,
        "allow_partial": request.allow_partial,
        "explain": request.explain,
        "request_id": request.request_id,
        "trace_id": request.trace_id,
        "parent_span_id": request.parent_span_id,
    }


def _check_type(data: dict, field: str, types: tuple, what: str) -> None:
    value = data.get(field)
    if value is not None and not isinstance(value, types):
        names = "/".join(t.__name__ for t in types)
        raise ValueError(
            f"request field {field!r} must be {names}, "
            f"got {type(value).__name__} ({what})"
        )


def request_from_dict(data: dict) -> QueryRequest:
    data = _require_mapping(data, "request")
    _reject_unknown(data, _REQUEST_FIELDS, "request")
    for required in ("dataset", "query"):
        if required not in data:
            raise ValueError(f"request is missing the {required!r} field")
    # Type-check here, at the boundary: a string timeout from an HTTP
    # client must be a structured 400, not a TypeError pages later
    # inside a deadline computation.
    _check_type(data, "dataset", (str,), "dataset name")
    _check_type(data, "query", (str, list, tuple), "query")
    _check_type(data, "algorithm", (str,), "algorithm name")
    _check_type(data, "k", (int,), "top-k")
    _check_type(data, "timeout", (int, float), "seconds")
    _check_type(data, "deadline_ms", (int, float), "milliseconds")
    _check_type(data, "use_cache", (bool,), "flag")
    _check_type(data, "allow_partial", (bool,), "flag")
    _check_type(data, "explain", (bool,), "flag")
    _check_type(data, "request_id", (str,), "request id")
    _check_type(data, "trace_id", (str,), "trace id")
    _check_type(data, "parent_span_id", (str,), "span id")
    query = data["query"]
    if not isinstance(query, str) and not all(
        isinstance(keyword, str) for keyword in query
    ):
        raise ValueError("request field 'query' must be a string or list of strings")
    if any(
        isinstance(data.get(field), bool)
        for field in ("k", "timeout", "deadline_ms")
    ):
        raise ValueError(
            "request fields 'k', 'timeout' and 'deadline_ms' must be numbers"
        )
    params = data.get("params")
    if params is not None and not isinstance(params, (dict, SearchParams)):
        raise ValueError(
            f"request field 'params' must be an object, got {type(params).__name__}"
        )
    return QueryRequest(
        dataset=data["dataset"],
        query=query if isinstance(query, str) else tuple(query),
        algorithm=data.get("algorithm", "bidirectional"),
        k=data.get("k"),
        params=(
            params
            if params is None or isinstance(params, SearchParams)
            else params_from_dict(params)
        ),
        timeout=data.get("timeout"),
        deadline_ms=data.get("deadline_ms"),
        use_cache=data.get("use_cache", True),
        allow_partial=data.get("allow_partial", False),
        explain=data.get("explain", False),
        request_id=data.get("request_id"),
        trace_id=data.get("trace_id"),
        parent_span_id=data.get("parent_span_id"),
    )


# ----------------------------------------------------------------------
# SearchResult
# ----------------------------------------------------------------------
def _tree_to_dict(tree: AnswerTree) -> dict:
    return {
        "root": tree.root,
        "paths": [list(path) for path in tree.paths],
        "dists": list(tree.dists),
        "edge_score": tree.edge_score,
        "node_score": tree.node_score,
        "score": tree.score,
    }


def _tree_from_dict(data: dict) -> AnswerTree:
    data = _require_mapping(data, "answer tree")
    return AnswerTree(
        root=data["root"],
        paths=tuple(tuple(path) for path in data["paths"]),
        dists=tuple(data["dists"]),
        edge_score=data["edge_score"],
        node_score=data["node_score"],
        score=data["score"],
    )


def _answer_to_dict(answer: OutputAnswer) -> dict:
    return {
        "tree": _tree_to_dict(answer.tree),
        "generated_at": answer.generated_at,
        "generated_pops": answer.generated_pops,
        "output_at": answer.output_at,
        "output_pops": answer.output_pops,
        "generated_touched": answer.generated_touched,
        "output_touched": answer.output_touched,
    }


def _answer_from_dict(data: dict) -> OutputAnswer:
    data = _require_mapping(data, "answer")
    return OutputAnswer(
        tree=_tree_from_dict(data["tree"]),
        generated_at=data["generated_at"],
        generated_pops=data["generated_pops"],
        output_at=data["output_at"],
        output_pops=data["output_pops"],
        generated_touched=data.get("generated_touched", 0),
        output_touched=data.get("output_touched", 0),
    )


def result_to_dict(result: SearchResult) -> dict:
    stats = result.stats
    return {
        "algorithm": result.algorithm,
        "keywords": list(result.keywords),
        "answers": [_answer_to_dict(answer) for answer in result.answers],
        "stats": stats.as_dict() if stats is not None else None,
        "complete": result.complete,
        "cancel_reason": result.cancel_reason,
        "explain": result.explain,
    }


def _stats_from_dict(data: Optional[dict]) -> Optional[SearchStats]:
    if data is None:
        return None
    data = _require_mapping(data, "stats")
    stats = SearchStats(
        nodes_explored=data.get("nodes_explored", 0),
        nodes_touched=data.get("nodes_touched", 0),
        edges_explored=data.get("edges_explored", 0),
        answers_generated=data.get("answers_generated", 0),
        answers_output=data.get("answers_output", 0),
        duplicates_discarded=data.get("duplicates_discarded", 0),
        started_at=0.0,
        finished_at=data.get("elapsed", 0.0),
    )
    for name in COST_FIELDS:
        setattr(stats, name, data.get(name, 0))
    return stats


def result_from_dict(data: dict) -> SearchResult:
    data = _require_mapping(data, "result")
    return SearchResult(
        algorithm=data["algorithm"],
        keywords=tuple(data["keywords"]),
        answers=[_answer_from_dict(answer) for answer in data["answers"]],
        stats=_stats_from_dict(data.get("stats")),
        complete=data.get("complete", True),
        cancel_reason=data.get("cancel_reason"),
        explain=data.get("explain"),
    )


# ----------------------------------------------------------------------
# QueryResponse
# ----------------------------------------------------------------------
def response_to_dict(response: QueryResponse) -> dict:
    return {
        "request": (
            request_to_dict(response.request)
            if response.request is not None
            else None
        ),
        "result": (
            result_to_dict(response.result)
            if response.result is not None
            else None
        ),
        "error": response.error,
        "error_type": response.error_type,
        "cached": response.cached,
        "elapsed": response.elapsed,
        "request_id": response.request_id,
        "trace_id": response.trace_id,
        "spans": response.spans,
        "dataset_version": response.dataset_version,
    }


def error_response_dict(
    request: Optional[dict],
    error: str,
    error_type: str,
    *,
    elapsed: float = 0.0,
) -> dict:
    """A response-shaped error dict, built in one place.

    The worker loop, the pool's crash fail-over and the HTTP batch
    handler all need to synthesize wire responses without a
    ``QueryResponse`` in hand; sharing the literal keeps the shape in
    the module that owns the format.
    """
    raw = request if isinstance(request, dict) else None
    return {
        "request": raw,
        "result": None,
        "error": error,
        "error_type": error_type,
        "cached": False,
        "elapsed": elapsed,
        "request_id": raw.get("request_id") if raw else None,
        "trace_id": raw.get("trace_id") if raw else None,
        "spans": None,
    }


def response_from_dict(data: dict) -> QueryResponse:
    data = _require_mapping(data, "response")
    request = data.get("request")
    result = data.get("result")
    response = QueryResponse(
        request=request_from_dict(request) if request is not None else None,
        result=result_from_dict(result) if result is not None else None,
        error=data.get("error"),
        error_type=data.get("error_type"),
        cached=data.get("cached", False),
        elapsed=data.get("elapsed", 0.0),
        request_id=data.get("request_id"),
        trace_id=data.get("trace_id"),
        spans=data.get("spans"),
    )
    response.dataset_version = data.get("dataset_version")
    return response
