"""The paper's Figure 4 example, end to end (Section 4.4)."""

import pytest

from repro.experiments.figure4 import build_figure4_engine, run_figure4


@pytest.fixture(scope="module")
def engine_meta():
    return build_figure4_engine()


class TestFigure4Graph:
    def test_shape(self, engine_meta):
        engine, _ = engine_meta
        # 100 papers + 2 authors + 50 writes nodes.
        assert engine.graph.num_nodes == 152
        assert engine.index.frequency("database") == 100
        assert engine.index.frequency("james") == 1
        assert engine.index.frequency("john") == 1

    def test_john_has_large_fanin(self, engine_meta):
        engine, meta = engine_meta
        assert engine.graph.in_degree(meta["john"]) >= 49

    def test_unit_prestige(self, engine_meta):
        engine, _ = engine_meta
        prestige = engine.graph.prestige
        assert prestige.max() == pytest.approx(prestige.min())


class TestFigure4Claims:
    def test_all_algorithms_find_coauthored_paper(self, engine_meta):
        engine, meta = engine_meta
        for algorithm in ("bidirectional", "si-backward", "mi-backward"):
            result = engine.search("database james john", algorithm=algorithm)
            assert result.answers, algorithm
            assert meta["co_paper"] in result.best().tree.nodes(), algorithm

    def test_bidirectional_generates_with_few_expansions(self, engine_meta):
        engine, _ = engine_meta
        result = engine.search("database james john")
        best = result.best()
        # Paper: "Bidirectional search would explore only 4 nodes";
        # our pop accounting differs slightly, allow up to 12.
        assert best.generated_pops <= 12

    def test_backward_explores_over_one_hundred_nodes(self, engine_meta):
        engine, _ = engine_meta
        result = engine.search("database james john", algorithm="si-backward")
        best = result.best()
        # Paper: "Backward expanding search would explore at least 151
        # nodes" — SI merges iterators but still must pop ~everything.
        assert best.generated_pops >= 100

    def test_report_regenerates(self):
        report = run_figure4()
        assert len(report.rows) == 3
        assert all(row[5] == "True" for row in report.rows)
