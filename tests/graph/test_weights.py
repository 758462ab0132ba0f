"""Backward-edge weight policy (paper Section 2.3)."""

import math

import pytest

from repro.graph.weights import DEFAULT_FORWARD_WEIGHT, backward_edge_weight


class TestBackwardEdgeWeight:
    def test_indegree_one_keeps_forward_weight(self):
        # log2(1 + 1) == 1: chains are penalty-free.
        assert backward_edge_weight(1.0, 1) == pytest.approx(1.0)

    def test_hub_penalty_grows_logarithmically(self):
        assert backward_edge_weight(1.0, 3) == pytest.approx(2.0)
        assert backward_edge_weight(1.0, 7) == pytest.approx(3.0)
        assert backward_edge_weight(1.0, 1023) == pytest.approx(10.0)

    def test_scales_with_forward_weight(self):
        assert backward_edge_weight(2.5, 3) == pytest.approx(5.0)

    def test_monotone_in_indegree(self):
        weights = [backward_edge_weight(1.0, d) for d in range(1, 50)]
        assert weights == sorted(weights)
        assert len(set(weights)) == len(weights)

    def test_formula_matches_paper(self):
        for degree in (1, 2, 10, 100):
            expected = math.log2(1 + degree)
            assert backward_edge_weight(1.0, degree) == pytest.approx(expected)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            backward_edge_weight(0.0, 1)
        with pytest.raises(ValueError):
            backward_edge_weight(-1.0, 1)

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_rejects_nonfinite_weight(self, weight):
        with pytest.raises(ValueError, match="finite"):
            backward_edge_weight(weight, 1)

    def test_rejects_an_overflowing_product(self):
        assert backward_edge_weight(1.5e308, 1) == 1.5e308
        with pytest.raises(ValueError, match="overflows"):
            backward_edge_weight(1.5e308, 2)

    def test_rejects_zero_indegree(self):
        with pytest.raises(ValueError):
            backward_edge_weight(1.0, 0)

    def test_default_forward_weight_is_one(self):
        assert DEFAULT_FORWARD_WEIGHT == 1.0
