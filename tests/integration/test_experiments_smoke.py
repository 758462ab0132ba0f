"""Smoke tests: every experiment runs at tiny scale and yields a table.

These keep the harness honest without paying bench-level runtimes; the
real numbers come from ``pytest benchmarks/ --benchmark-only``.
"""

import pytest

from repro.experiments import REGISTRY
from repro.experiments.ablations import (
    run_ablation_activation,
    run_ablation_bounds,
    run_ablation_dmax,
)
from repro.experiments.common import Report, build_bench, fmt, geomean, safe_ratio
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import run_fig6b, run_fig6c
from repro.experiments.figure4 import run_figure4
from repro.experiments.memory import run_memory, run_prestige
from repro.experiments.recall_precision import run_recall_precision


class TestCommon:
    def test_fmt(self):
        assert fmt(None) == "-"
        assert fmt(3) == "3"
        assert fmt(3.14159) == "3.14"
        assert fmt(12.3456) == "12.3"
        assert fmt(1234.5) == "1234"
        assert fmt(float("nan")) == "-"
        assert fmt(0.0) == "0"

    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean([]) is None
        assert geomean([0.0]) is None

    def test_safe_ratio(self):
        assert safe_ratio(4.0, 2.0) == pytest.approx(2.0)
        assert safe_ratio(None, 2.0) is None
        assert safe_ratio(1.0, 0.0) > 1e6  # clamped, not infinite

    def test_report_render(self):
        report = Report("X", "title", ["a", "bb"], [["1", "2"]], ["note"])
        text = report.render()
        assert "== X: title ==" in text
        assert "note: note" in text

    def test_build_bench_cached(self):
        a = build_bench("dblp", 0.1)
        b = build_bench("dblp", 0.1)
        assert a is b
        assert a.engine.graph.num_nodes > 0

    def test_build_bench_unknown_dataset(self):
        with pytest.raises(ValueError):
            build_bench("wikipedia")


class TestRegistry:
    def test_all_experiments_registered(self):
        expected = {
            "fig4", "fig5", "fig6a", "fig6b", "fig6c", "rp", "mem",
            "prestige", "abl-activation", "abl-dmax", "abl-bounds",
        }
        assert set(REGISTRY) == expected


class TestTinyRuns:
    def test_fig4(self):
        report = run_figure4()
        assert report.rows

    def test_fig6b_tiny(self):
        report = run_fig6b(scale=0.15, queries_per_point=1, keyword_range=(2, 3))
        assert len(report.rows) == 2

    def test_fig6c_tiny(self):
        report = run_fig6c(scale=0.15, queries_per_point=1)
        assert len(report.rows) == 8

    def test_rp_tiny(self):
        report = run_recall_precision(scale=0.15, n_queries=2)
        assert len(report.rows) == 3

    def test_fig5_says_why_a_row_is_empty(self, monkeypatch):
        import repro.experiments.common as common
        import repro.experiments.fig5 as fig5

        profile = ("UQ1", "patents", ("T", "L"), 2)
        monkeypatch.setattr(fig5, "QUERY_PROFILES", (profile,))
        # No algorithm releases a relevant answer: every measured cell
        # names that, where it used to print "-".
        monkeypatch.setattr(common, "measure_at_last_relevant", lambda *a, **k: None)
        (row,) = run_fig5(scale=0.15).rows
        relevant = row[2]
        assert row[4:11] == [f"0/{relevant} rel in top 10"] * 7, row

    @pytest.mark.parametrize("drained", [True, False])
    def test_fig5_marks_points_measured_at_the_final_drain(self, monkeypatch, drained):
        import repro.experiments.common as common
        import repro.experiments.fig5 as fig5
        from repro.workload.metrics import MeasurementPoint

        point = MeasurementPoint(
            rank=1, relevant_found=1, out_time=2.0, gen_time=1.0,
            out_pops=40 if drained else 30, gen_pops=20, out_touched=60,
            gen_touched=30, total_time=2.0, total_pops=40, total_touched=60,
        )
        profile = ("UQ1", "patents", ("T", "L"), 2)
        monkeypatch.setattr(fig5, "QUERY_PROFILES", (profile,))
        monkeypatch.setattr(common, "measure_at_last_relevant", lambda *a, **k: point)
        report = run_fig5(scale=0.15)
        (row,) = report.rows
        one, marked = "1.00", "1.00*" if drained else "1.00"
        # MI/SI time, SI/Bidir explored and touched, gen time, out time
        assert row[4:9] == [marked, marked, marked, one, marked], row
        assert any(note.startswith("* ") for note in report.notes)

    @pytest.mark.parametrize("drained", [True, False])
    def test_fig6_marks_points_measured_at_the_final_drain(self, monkeypatch, drained):
        import repro.experiments.common as common
        from repro.workload.metrics import MeasurementPoint

        point = MeasurementPoint(
            rank=1, relevant_found=1, out_time=2.0, gen_time=1.0,
            out_pops=40 if drained else 30, gen_pops=20, out_touched=60,
            gen_touched=30, total_time=2.0, total_pops=40, total_touched=60,
        )
        monkeypatch.setattr(common, "measure_at_last_relevant", lambda *a, **k: point)
        one, marked = "1.00", "1.00*" if drained else "1.00"
        report = run_fig6b(scale=0.15, queries_per_point=1, keyword_range=(2,))
        (row,) = report.rows
        # out-time and nodes-explored (small, large), then gen-time
        assert row[1:7] == [marked] * 4 + [one] * 2, row
        assert any(note.startswith("* ") for note in report.notes)
        (row, *_) = run_fig6c(scale=0.15, queries_per_point=1).rows
        assert row[2:5] == [marked, marked, one], row

    def test_memory_tiny(self):
        report = run_memory(scales=(0.15,))
        assert len(report.rows) == 3
        for row in report.rows:
            # Both directions at 4 + 8 + 1 bytes an edge, against the
            # paper's 8 for one: measured, well above the formula.
            assert float(row[-1]) > 2.0, row

    def test_prestige_tiny(self):
        report = run_prestige(scales=(0.15,))
        assert len(report.rows) == 1

    def test_ablation_activation_tiny(self):
        report = run_ablation_activation(scale=0.15, n_queries=2, mus=(0.5,))
        assert len(report.rows) == 2

    def test_ablation_dmax_tiny(self):
        report = run_ablation_dmax(scale=0.15, n_queries=2, dmaxes=(4, 8))
        assert len(report.rows) == 2

    def test_ablation_bounds_tiny(self):
        report = run_ablation_bounds(scale=0.15, n_queries=2)
        assert len(report.rows) == 2


class TestCli:
    def test_list(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out

    def test_unknown_experiment(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["nope"]) == 2

    def test_run_one(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "FIG4" in out

    def test_footer_reports_the_datasets_an_experiment_built(
        self, capsys, monkeypatch
    ):
        from repro.experiments.__main__ import main

        def tiny():
            build_bench("imdb", 0.12)
            return Report("TINY", "builds one bench", ["x"])

        monkeypatch.delenv("REPRO_SCALE", raising=False)
        monkeypatch.setitem(REGISTRY, "tiny", tiny)
        assert main(["tiny", "tiny"]) == 0
        first, second = capsys.readouterr().out.strip().split("\n\n")
        assert "; built imdb@0.12 " in first.splitlines()[-1]
        assert "built" not in second  # cached: the second run built nothing
