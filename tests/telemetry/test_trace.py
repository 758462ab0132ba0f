"""Unit tests for the tracing primitives (span, tracer, tree rendering)."""

import pytest

from repro.telemetry.trace import (
    Span,
    Tracer,
    build_span_tree,
    current_span,
    new_span_id,
    new_trace_id,
    render_span_tree,
    use_span,
)


class TestIds:
    def test_trace_ids_are_32_hex_and_unique(self):
        a, b = new_trace_id(), new_trace_id()
        assert len(a) == 32 and len(b) == 32
        int(a, 16)  # must parse as hex
        assert a != b

    def test_span_ids_are_16_hex_and_unique(self):
        a, b = new_span_id(), new_span_id()
        assert len(a) == 16 and len(b) == 16
        int(a, 16)
        assert a != b


class TestSpan:
    def test_to_dict_shape(self):
        span = Span("work", trace_id="t" * 32, parent_id="p" * 16)
        span.set_attribute("pops", 7)
        span.end()
        data = span.to_dict()
        assert set(data) == {
            "name",
            "trace_id",
            "span_id",
            "parent_id",
            "start",
            "duration",
            "status",
            "attributes",
        }
        assert data["name"] == "work"
        assert data["parent_id"] == "p" * 16
        assert data["status"] == "ok"
        assert data["attributes"] == {"pops": 7}
        assert data["duration"] >= 0.0

    def test_end_is_idempotent_first_call_wins(self):
        span = Span("once", trace_id=new_trace_id())
        span.end(duration=1.5)
        span.end(status="error", duration=99.0)
        assert span.duration == 1.5
        assert span.status == "ok"

    def test_end_duration_override_and_status(self):
        span = Span("synth", trace_id=new_trace_id())
        span.end(status="error", duration=0.25)
        assert span.ended
        assert span.duration == 0.25
        assert span.status == "error"

    def test_end_delivers_to_sink_exactly_once(self):
        seen = []
        span = Span("s", trace_id=new_trace_id(), sink=seen.append)
        span.end()
        span.end()
        assert len(seen) == 1
        assert seen[0]["span_id"] == span.span_id

    def test_child_shares_trace_and_sink_parents_correctly(self):
        seen = []
        parent = Span("parent", trace_id=new_trace_id(), sink=seen.append)
        child = parent.child("child")
        assert child.trace_id == parent.trace_id
        assert child.parent_id == parent.span_id
        child.end()
        assert seen and seen[0]["name"] == "child"

    def test_set_attributes_merges(self):
        span = Span("s", trace_id=new_trace_id())
        span.set_attribute("a", 1)
        span.set_attributes({"b": 2, "a": 3})
        assert span.attributes == {"a": 3, "b": 2}


class TestAmbientSpan:
    def test_default_is_none(self):
        assert current_span() is None

    def test_use_span_sets_and_restores(self):
        span = Span("ambient", trace_id=new_trace_id())
        with use_span(span) as active:
            assert active is span
            assert current_span() is span
        assert current_span() is None

    def test_use_span_none_masks_outer(self):
        outer = Span("outer", trace_id=new_trace_id())
        with use_span(outer):
            with use_span(None):
                assert current_span() is None
            assert current_span() is outer

    def test_use_span_does_not_end_the_span(self):
        span = Span("still-open", trace_id=new_trace_id())
        with use_span(span):
            pass
        assert not span.ended


class TestTraceStore:
    """The tracer's bounded retention of finished spans, by trace."""

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Tracer(0)

    def test_add_and_get_round_trip(self):
        tracer = Tracer()
        span = Span("s", trace_id="abc").end()
        tracer.ingest([span.to_dict()])
        spans = tracer.spans_for("abc")
        assert spans is not None and len(spans) == 1
        assert spans[0]["name"] == "s"
        assert tracer.spans_for("missing") is None

    def test_duplicate_span_id_is_deduped(self):
        tracer = Tracer()
        data = Span("s", trace_id="abc").end().to_dict()
        tracer.ingest([data, dict(data)])
        assert len(tracer.spans_for("abc")) == 1

    def test_spans_without_trace_id_are_ignored(self):
        tracer = Tracer()
        tracer.ingest(
            [
                {"name": "x", "span_id": "y"},
                {"name": "x", "span_id": "y", "trace_id": None},
                {"name": "x", "span_id": "y", "trace_id": ""},
            ]
        )
        assert len(tracer._traces) == 0

    def test_lru_evicts_whole_traces(self):
        tracer = Tracer(capacity=2)
        for trace_id in ("t1", "t2", "t3"):
            tracer.start_span("s", trace_id=trace_id).end()
        assert tracer.spans_for("t1") is None
        assert tracer.spans_for("t2") is not None
        assert tracer.spans_for("t3") is not None

    def test_touching_a_trace_refreshes_its_lru_slot(self):
        tracer = Tracer(capacity=2)
        tracer.start_span("a", trace_id="t1").end()
        tracer.start_span("b", trace_id="t2").end()
        # Adding to t1 again makes t2 the eviction candidate.
        tracer.start_span("c", trace_id="t1").end()
        tracer.start_span("d", trace_id="t3").end()
        assert tracer.spans_for("t1") is not None
        assert tracer.spans_for("t2") is None

    def test_ingest_filters_non_dicts(self):
        tracer = Tracer()
        tracer.ingest(None)
        tracer.ingest(["junk", 42, Span("s", trace_id="t").end().to_dict()])
        assert len(tracer.spans_for("t")) == 1

    def test_tree_returns_none_for_unknown_trace(self):
        assert Tracer().trace("nope") is None


class TestTracer:
    def test_start_span_mints_trace_id_when_absent(self):
        tracer = Tracer()
        span = tracer.start_span("root")
        assert len(span.trace_id) == 32

    def test_finished_spans_land_in_the_store(self):
        tracer = Tracer()
        span = tracer.start_span("root")
        assert tracer.spans_for(span.trace_id) is None  # open: not yet kept
        span.end()
        assert tracer.spans_for(span.trace_id)[0]["name"] == "root"

    def test_trace_builds_a_tree(self):
        tracer = Tracer()
        root = tracer.start_span("root")
        root.child("leaf").end()
        root.end()
        tree = tracer.trace(root.trace_id)
        assert tree["span_count"] == 2
        assert tree["roots"][0]["name"] == "root"
        assert tree["roots"][0]["children"][0]["name"] == "leaf"


class TestBuildSpanTree:
    def _span(self, name, span_id, parent_id=None, start=0.0):
        return {
            "name": name,
            "trace_id": "t",
            "span_id": span_id,
            "parent_id": parent_id,
            "start": start,
            "duration": 0.001,
            "status": "ok",
            "attributes": {},
        }

    def test_orphans_become_roots(self):
        tree = build_span_tree(
            [
                self._span("root", "a"),
                self._span("orphan", "b", parent_id="gone"),
            ]
        )
        assert tree["span_count"] == 2
        assert [root["name"] for root in tree["roots"]] == ["root", "orphan"]

    def test_children_sorted_by_start(self):
        tree = build_span_tree(
            [
                self._span("root", "a", start=0.0),
                self._span("late", "c", parent_id="a", start=2.0),
                self._span("early", "b", parent_id="a", start=1.0),
            ]
        )
        names = [child["name"] for child in tree["roots"][0]["children"]]
        assert names == ["early", "late"]

    def test_empty_input(self):
        tree = build_span_tree([])
        assert tree == {"trace_id": None, "span_count": 0, "roots": []}


class TestRenderSpanTree:
    def test_renders_indentation_status_and_attrs(self):
        root = Span("root", trace_id="t")
        child = root.child("child")
        child.set_attributes({"pops": 12, "items": [1, 2, 3], "rate": 0.5})
        child.end(status="error", duration=0.002)
        root.end(duration=0.010)
        tree = build_span_tree([root.to_dict(), child.to_dict()])
        text = render_span_tree(tree)
        lines = text.splitlines()
        assert lines[0].startswith("root  10.000 ms")
        assert lines[1].startswith("  child  2.000 ms [error]")
        # Attributes sorted by key; lists summarized.
        assert "items=<3 items> pops=12 rate=0.5" in lines[1]
