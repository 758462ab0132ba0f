"""Engine-level explain reports: structure, score audit, and the
determinism contract.

The canonical section of an explain report (seed resolution, parameter
echo, answers with full score decompositions) must be **byte-identical**
across repeat runs and profiler settings for every algorithm — that is
what makes an explain plan trustworthy evidence rather than a
measurement artifact.  Non-canonical sections (timeline, costs,
timings) may vary.
"""

import pytest

from repro.core.params import SearchParams
from repro.telemetry.accounting import SCORE_FORMULA, canonical_explain_bytes

ALGORITHMS = ("bidirectional", "si-backward", "mi-backward")

QUERY = "stream paper"


class TestReportStructure:
    def test_explain_off_by_default(self, dblp_small_engine):
        result = dblp_small_engine.search(QUERY, k=3)
        assert result.explain is None

    def test_report_shape(self, dblp_small_engine):
        result = dblp_small_engine.search(QUERY, k=3, explain=True)
        report = result.explain
        assert report["version"] == 1
        canonical = report["canonical"]
        assert canonical["algorithm"] == "bidirectional"
        assert canonical["keywords"] == ["stream", "paper"]
        # One seed row per keyword, in keyword order, with a bounded
        # sorted sample of origin ids.
        assert [seed["keyword"] for seed in canonical["seeds"]] == [
            "stream",
            "paper",
        ]
        for seed in canonical["seeds"]:
            assert seed["origin_count"] >= len(seed["origin_sample"]) > 0
            assert seed["origin_sample"] == sorted(seed["origin_sample"])
        assert len(canonical["answers"]) == len(result.answers)
        # The profiler's sampling interval is excluded from the echo.
        assert "trace_every_n_pops" not in canonical["params"]
        assert "dmax" in canonical["params"]

    def test_decomposition_audits_released_score(self, dblp_small_engine):
        result = dblp_small_engine.search(QUERY, k=3, explain=True)
        lam = dblp_small_engine.params.lam
        for row, answer in zip(
            result.explain["canonical"]["answers"], result.answers
        ):
            decomposition = row["decomposition"]
            assert decomposition["formula"] == SCORE_FORMULA
            assert decomposition["lambda"] == pytest.approx(lam)
            # Recompute the paper's formula from the decomposed parts.
            recomputed = row["node_score"] ** lam / (1.0 + row["edge_score"])
            assert recomputed == pytest.approx(row["score"], rel=1e-9)
            assert row["score"] == pytest.approx(answer.tree.score)
            # Per-keyword path weights sum to the edge score.
            assert sum(
                path["dist"] for path in decomposition["paths"]
            ) == pytest.approx(row["edge_score"], rel=1e-9)
            for path in decomposition["paths"]:
                assert path["path"][0] == row["root"]

    def test_costs_and_timeline_populated(self, dblp_small_engine):
        result = dblp_small_engine.search(QUERY, k=3, explain=True)
        costs = result.explain["costs"]
        assert costs["pops_in"] + costs["pops_out"] > 0
        assert costs["resolve_hits"] > 0
        assert costs["heap_ops"] > 0
        assert result.explain["timings"]["elapsed"] > 0.0
        # The bidirectional scheduler records its switch decisions.
        switches = [
            event
            for event in result.explain["timeline"]
            if event.get("event") == "switch"
        ]
        assert switches, "bidirectional run recorded no direction switches"
        assert all("rule" in event for event in switches)

    def test_answer_timing_is_non_canonical(self, dblp_small_engine):
        result = dblp_small_engine.search(QUERY, k=3, explain=True)
        timing = result.explain["answer_timing"]
        assert len(timing) == len(result.answers)
        assert "answer_timing" not in result.explain["canonical"]
        for row in timing:
            assert row["output_pops"] >= row["generated_pops"] >= 0


class TestDeterminism:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_canonical_bytes_identical_across_trace_sampling(
        self, dblp_small_engine, algorithm
    ):
        blobs = [
            canonical_explain_bytes(
                dblp_small_engine.search(
                    QUERY,
                    algorithm=algorithm,
                    k=5,
                    params=SearchParams(trace_every_n_pops=every),
                    explain=True,
                ).explain
            )
            for every in (0, 1)
        ]
        assert blobs[0] == blobs[1], (
            f"canonical explain for {algorithm} moves with trace sampling"
        )

    def test_repeat_run_is_byte_stable(self, dblp_small_engine):
        first = dblp_small_engine.search(QUERY, k=5, explain=True)
        second = dblp_small_engine.search(QUERY, k=5, explain=True)
        assert canonical_explain_bytes(first.explain) == canonical_explain_bytes(
            second.explain
        )
