"""SearchParams validation and defaults."""

import dataclasses

import pytest

from repro.core.params import DEFAULT_PARAMS, SearchParams
from repro.core.scoring import LAMBDA


class TestDefaults:
    def test_paper_defaults(self):
        # Section 5.1: mu=0.5, lambda=0.2, dmax=8, measured at 10th result.
        assert DEFAULT_PARAMS.mu == 0.5
        assert LAMBDA == 0.2
        assert DEFAULT_PARAMS.dmax == 8
        assert DEFAULT_PARAMS.max_results == 10
        assert DEFAULT_PARAMS.output_mode == "exact"

    def test_with_override(self):
        params = DEFAULT_PARAMS.with_(mu=0.9, dmax=4)
        assert params.mu == 0.9
        assert params.dmax == 4
        assert params.max_results == 10  # untouched
        assert DEFAULT_PARAMS.mu == 0.5  # original frozen


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("mu", -0.1),
        ("mu", 1.0001),
        ("dmax", 0),
        ("max_results", 0),
        ("node_budget", 0),
        ("output_mode", "fancy"),
        ("cancel_check_interval", 0),
    ])
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            SearchParams(**{field: value})

    @pytest.mark.parametrize("field,value", [
        # What a JSON client can send: strings for numbers, fractions
        # and booleans for counts, NaN, numbers for names.
        ("dmax", "8"),
        ("dmax", True),
        ("dmax", 8.0),
        ("mu", "x"),
        ("mu", True),
        ("mu", float("nan")),
        ("max_results", 2.5),
        ("node_budget", 10.5),
        ("node_budget", "10"),
        ("cancel_check_interval", 1.5),
        ("output_mode", None),
    ])
    def test_rejects_ill_typed_values_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            SearchParams(**{field: value})

    def test_integer_valued_reals_are_accepted(self):
        assert SearchParams(mu=1).mu == 1

    def test_boundary_values_accepted(self):
        SearchParams(mu=0.0)
        SearchParams(mu=1.0)
        SearchParams(dmax=1)
        SearchParams(node_budget=1)
        SearchParams(output_mode="heuristic")


class TestTheKnobsThatAreLeft:
    def test_six_fields(self):
        assert [field.name for field in dataclasses.fields(SearchParams)] == [
            "mu",
            "dmax",
            "max_results",
            "node_budget",
            "output_mode",
            "cancel_check_interval",
        ]

    @pytest.mark.parametrize(
        "knob",
        [
            "expansion_backend",
            "expansion_batch",
            "frontier_balance",
            "tie_alternates",
            "flush_interval",
            "lam",
            "activation_combine",
            "max_combos_per_node",
            "trace_every_n_pops",
        ],
    )
    def test_removed_knobs_are_not_constructor_arguments(self, knob):
        with pytest.raises(TypeError, match=knob):
            SearchParams(**{knob: 1})
