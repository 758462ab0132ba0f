"""Wire round-trips: service dataclasses <-> JSON-safe dicts."""

import json

import pytest

from repro.core.answer import SearchResult
from repro.core.params import SearchParams
from repro.core.stats import SearchStats
from repro.service.service import QueryRequest, QueryResponse
from repro.service.wire import (
    error_response_dict,
    params_from_dict,
    params_to_dict,
    request_from_dict,
    request_to_dict,
    response_from_dict,
    response_to_dict,
    result_from_dict,
    result_to_dict,
)


def test_params_round_trip():
    params = SearchParams(mu=0.3, dmax=4, max_results=7, output_mode="heuristic")
    assert params_from_dict(params_to_dict(params)) == params


def test_params_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown fields"):
        params_from_dict({"mu": 0.5, "bogus": 1})


@pytest.mark.parametrize(
    "params,names",
    [
        # knobs and spellings that no longer exist
        ({"expansion_batch": 64}, "unknown fields: expansion_batch"),
        ({"frontier_balance": "fanout"}, "unknown fields: frontier_balance"),
        ({"tie_alternates": False}, "unknown fields: tie_alternates"),
        ({"flush_interval": 16}, "unknown fields: flush_interval"),
        ({"expansion_backend": "vectorized"}, "unknown fields: expansion_backend"),
        ({"lam": 0.5}, "unknown fields: lam"),
        ({"activation_combine": "sum"}, "unknown fields: activation_combine"),
        ({"max_combos_per_node": 8}, "unknown fields: max_combos_per_node"),
        ({"trace_every_n_pops": 1}, "unknown fields: trace_every_n_pops"),
        # JSON values of the wrong type
        ({"dmax": "8"}, "dmax"),
        ({"dmax": True}, "dmax"),
        ({"mu": "x"}, "mu"),
        ({"max_results": 2.5}, "max_results"),
        ({"node_budget": 10.5}, "node_budget"),
        ({"cancel_check_interval": 1.5}, "cancel_check_interval"),
    ],
)
def test_bad_params_are_value_errors_naming_the_field(params, names):
    with pytest.raises(ValueError, match=names):
        params_from_dict(params)
    with pytest.raises(ValueError, match=names):
        request_from_dict({"dataset": "d", "query": "q", "params": params})


def test_request_round_trip_string_query():
    request = QueryRequest("dblp", "gray transaction", k=5, timeout=2.0)
    data = request_to_dict(request)
    json.dumps(data)  # JSON-safe
    assert request_from_dict(data) == request


def test_request_round_trip_tuple_query_and_params():
    request = QueryRequest(
        "dblp",
        ("gray", "transaction"),
        algorithm="mi-backward",
        params=SearchParams(dmax=4),
        use_cache=False,
    )
    data = request_to_dict(request)
    json.dumps(data)
    restored = request_from_dict(data)
    assert restored == request
    assert isinstance(restored.query, tuple)


def test_request_rejects_wrong_field_types():
    # Boundary validation: an HTTP client's string timeout must be a
    # structured ValueError here, not a TypeError deep in the service.
    base = {"dataset": "d", "query": "q"}
    for field, value in [
        ("timeout", "5"),
        ("k", "10"),
        ("k", True),
        ("dataset", 3),
        ("query", 3),
        ("query", ["ok", 7]),
        ("algorithm", 1),
        ("use_cache", "yes"),
        ("params", "not an object"),
    ]:
        with pytest.raises(ValueError):
            request_from_dict({**base, field: value})


def test_request_defaults_and_validation():
    restored = request_from_dict({"dataset": "d", "query": "q"})
    assert restored.algorithm == "bidirectional"
    assert restored.use_cache is True
    with pytest.raises(ValueError, match="missing"):
        request_from_dict({"dataset": "d"})
    with pytest.raises(ValueError, match="unknown fields"):
        request_from_dict({"dataset": "d", "query": "q", "zzz": 1})
    with pytest.raises(ValueError):
        request_from_dict("not a dict")


def test_result_round_trip_preserves_answers_and_stats(toy_engine):
    result = toy_engine.search("gray transaction", k=3)
    data = result_to_dict(result)
    json.dumps(data)
    restored = result_from_dict(data)
    assert restored.algorithm == result.algorithm
    assert restored.keywords == result.keywords
    assert restored.scores() == result.scores()
    assert restored.signatures() == result.signatures()
    assert [a.tree.paths for a in restored] == [a.tree.paths for a in result]
    assert restored.stats.nodes_explored == result.stats.nodes_explored
    assert restored.stats.elapsed == pytest.approx(result.stats.elapsed)


def test_response_round_trip_success(toy_engine):
    result = toy_engine.search("gray transaction", k=2)
    response = QueryResponse(
        request=QueryRequest("toy", "gray transaction", k=2),
        result=result,
        cached=True,
        elapsed=0.5,
    )
    data = response_to_dict(response)
    json.dumps(data)
    restored = response_from_dict(data)
    assert restored.ok
    assert restored.cached is True
    assert restored.elapsed == 0.5
    assert restored.request == response.request
    assert restored.result.scores() == result.scores()


def test_request_round_trip_trace_fields():
    request = QueryRequest(
        "dblp",
        "gray",
        request_id="req-42",
        trace_id="a" * 32,
        parent_span_id="b" * 16,
    )
    data = request_to_dict(request)
    json.dumps(data)
    assert data["trace_id"] == "a" * 32
    assert data["parent_span_id"] == "b" * 16
    restored = request_from_dict(data)
    assert restored == request
    assert restored.trace_id == "a" * 32
    assert restored.parent_span_id == "b" * 16


def test_request_trace_fields_default_to_none():
    restored = request_from_dict({"dataset": "d", "query": "q"})
    assert restored.trace_id is None
    assert restored.parent_span_id is None


def test_request_rejects_non_string_trace_fields():
    base = {"dataset": "d", "query": "q"}
    with pytest.raises(ValueError):
        request_from_dict({**base, "trace_id": 7})
    with pytest.raises(ValueError):
        request_from_dict({**base, "parent_span_id": ["x"]})


def test_response_round_trip_identity_fields(toy_engine):
    spans = [{"name": "worker", "trace_id": "c" * 32, "span_id": "d" * 16}]
    response = QueryResponse(
        request=QueryRequest("toy", "gray"),
        result=toy_engine.search("gray", k=1),
        request_id="req-9",
        trace_id="c" * 32,
        spans=spans,
    )
    data = response_to_dict(response)
    json.dumps(data)
    restored = response_from_dict(data)
    assert restored.request_id == "req-9"
    assert restored.trace_id == "c" * 32
    assert restored.spans == spans


def test_error_response_dict_derives_identity_from_request():
    wire_request = {
        "dataset": "d",
        "query": "q",
        "request_id": "req-7",
        "trace_id": "e" * 32,
    }
    data = error_response_dict(wire_request, "boom", "RuntimeError")
    assert data["request_id"] == "req-7"
    assert data["trace_id"] == "e" * 32
    assert data["spans"] is None
    restored = response_from_dict(data)
    assert not restored.ok
    assert restored.request_id == "req-7"
    assert restored.trace_id == "e" * 32


def test_error_response_dict_tolerates_malformed_request():
    data = error_response_dict("not a dict", "boom", "ValueError")
    assert data["request_id"] is None
    assert data["trace_id"] is None


def test_search_stats_round_trip_pins_counters():
    # Pin: cluster responses must keep explored/touched counts, the
    # cost vector, and the elapsed timer across the wire — dashboards
    # and the workload sketch aggregate these.
    stats = SearchStats(
        nodes_explored=11,
        nodes_touched=29,
        edges_explored=41,
        answers_generated=5,
        answers_output=3,
        duplicates_discarded=2,
        pops_in=7,
        heap_ops=13,
    )
    stats.finished_at = stats.started_at + 0.125
    data = stats.as_dict()
    assert data == {
        "nodes_explored": 11,
        "nodes_touched": 29,
        "edges_explored": 41,
        "answers_generated": 5,
        "answers_output": 3,
        "duplicates_discarded": 2,
        "pops_in": 7,
        "pops_out": 0,
        "heap_ops": 13,
        "cascade_touches": 0,
        "emit_attempts": 0,
        "gate_skips": 0,
        "resolve_hits": 0,
        "elapsed": pytest.approx(0.125),
    }
    wire = result_to_dict(
        SearchResult(
            algorithm="bidirectional", keywords=("gray",), answers=[], stats=stats
        )
    )
    restored = result_from_dict(wire).stats
    assert restored.nodes_explored == 11
    assert restored.nodes_touched == 29
    assert restored.edges_explored == 41
    assert restored.pops_in == 7
    assert restored.heap_ops == 13
    assert restored.elapsed == pytest.approx(0.125)


def test_response_round_trip_error_drops_exception_keeps_fields():
    response = QueryResponse(
        request=None,
        error="keyword 'zzz' matches no node in the index",
        error_type="KeywordNotFoundError",
        exception=RuntimeError("not serializable"),
    )
    restored = response_from_dict(response_to_dict(response))
    assert not restored.ok
    assert restored.error_type == "KeywordNotFoundError"
    assert restored.exception is None
    with pytest.raises(RuntimeError, match="KeywordNotFoundError"):
        restored.raise_for_error()
