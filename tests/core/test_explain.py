"""Engine-level explain reports: structure, score audit, and the
determinism contract.

The canonical section of an explain report (seed resolution, parameter
echo, answers with full score decompositions) must be **byte-identical**
across repeat runs and timeline sampling intervals for every algorithm — that is
what makes an explain plan trustworthy evidence rather than a
measurement artifact.  Non-canonical sections (timeline, costs,
timings) may vary.
"""

import dataclasses

import pytest

from repro.core.driver import BaseSearch
from repro.core.params import SearchParams
from repro.core.scoring import LAMBDA
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
        # The echo is the search parameters, every field of them.
        assert sorted(canonical["params"]) == sorted(
            field.name for field in dataclasses.fields(SearchParams)
        )

    def test_decomposition_audits_released_score(self, dblp_small_engine):
        result = dblp_small_engine.search(QUERY, k=3, explain=True)
        lam = LAMBDA
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

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_samples_carry_the_trajectory(
        self, dblp_small_engine, algorithm, monkeypatch
    ):
        monkeypatch.setattr(BaseSearch, "EXPLAIN_EVERY", 1)
        result = dblp_small_engine.search(
            QUERY, algorithm=algorithm, k=3, explain=True
        )
        samples = [
            event
            for event in result.explain["timeline"]
            if event["event"] == "sample"
        ]
        assert samples[0]["pops"] == 1
        assert [s["pops"] for s in samples] == list(range(1, len(samples) + 1))
        for sample in samples:
            assert {"touched", "answers_output", "elapsed", "frontiers"} <= set(
                sample
            )
        elapsed = [s["elapsed"] for s in samples]
        assert elapsed == sorted(elapsed) and elapsed[0] >= 0.0

    def test_timeline_is_bounded(self, dblp_small_engine, monkeypatch):
        monkeypatch.setattr(BaseSearch, "EXPLAIN_EVERY", 1)
        monkeypatch.setattr(BaseSearch, "EXPLAIN_LIMIT", 5)
        result = dblp_small_engine.search(QUERY, k=3, explain=True)
        assert len(result.explain["timeline"]) == 5

    def test_answer_timing_is_non_canonical(self, dblp_small_engine):
        result = dblp_small_engine.search(QUERY, k=3, explain=True)
        timing = result.explain["answer_timing"]
        assert len(timing) == len(result.answers)
        assert "answer_timing" not in result.explain["canonical"]
        for row in timing:
            assert row["output_pops"] >= row["generated_pops"] >= 0


class TestDeterminism:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_canonical_bytes_identical_across_sample_intervals(
        self, dblp_small_engine, algorithm, monkeypatch
    ):
        blobs = []
        for every in (64, 1):
            monkeypatch.setattr(BaseSearch, "EXPLAIN_EVERY", every)
            blobs.append(
                canonical_explain_bytes(
                    dblp_small_engine.search(
                        QUERY, algorithm=algorithm, k=5, explain=True
                    ).explain
                )
            )
        assert blobs[0] == blobs[1], (
            f"canonical explain for {algorithm} moves with the sample interval"
        )

    def test_repeat_run_is_byte_stable(self, dblp_small_engine):
        first = dblp_small_engine.search(QUERY, k=5, explain=True)
        second = dblp_small_engine.search(QUERY, k=5, explain=True)
        assert canonical_explain_bytes(first.explain) == canonical_explain_bytes(
            second.explain
        )
