"""Mutation wire types: round-trips, validation, batch aliases."""

import pytest

from repro.errors import MutationError
from repro.live.mutations import (
    AddEdge,
    AddNode,
    MutationResult,
    RemoveEdge,
    UpdateText,
    coerce_mutation,
    coerce_mutations,
    mutation_from_dict,
    mutation_to_dict,
)


ROUND_TRIP_CASES = [
    AddNode(),
    AddNode(label="A Paper", table="paper", ref=("paper", 7), text="A Paper"),
    AddNode(label="row", table="writes", ref=("writes", "w-9")),
    AddEdge(u=1, v=2),
    AddEdge(u=-1, v=4, weight=2.5),
    RemoveEdge(u=3, v=0),
    RemoveEdge(u=3, v=0, weight=2.0),
    UpdateText(node=5, text="renamed title"),
]


class TestWireRoundTrip:
    @pytest.mark.parametrize("mutation", ROUND_TRIP_CASES, ids=repr)
    def test_round_trip(self, mutation):
        wire = mutation_to_dict(mutation)
        assert mutation_from_dict(wire) == mutation

    @pytest.mark.parametrize("mutation", ROUND_TRIP_CASES, ids=repr)
    def test_wire_is_json_safe(self, mutation):
        import json

        json.dumps(mutation_to_dict(mutation))

    def test_ref_pk_type_survives(self):
        int_ref = mutation_to_dict(AddNode(ref=("paper", 7)))
        str_ref = mutation_to_dict(AddNode(ref=("paper", "7")))
        assert mutation_from_dict(int_ref).ref == ("paper", 7)
        assert mutation_from_dict(str_ref).ref == ("paper", "7")

    def test_coerce_accepts_both_shapes(self):
        prepared = AddEdge(u=1, v=2)
        assert coerce_mutation(prepared) is prepared
        assert coerce_mutation({"op": "add_edge", "u": 1, "v": 2}) == prepared
        batch = coerce_mutations([prepared, {"op": "update_text", "node": 1, "text": "x"}])
        assert batch == [prepared, UpdateText(node=1, text="x")]


class TestValidation:
    def test_unknown_op(self):
        with pytest.raises(MutationError, match="unknown mutation op"):
            mutation_from_dict({"op": "drop_table"})

    def test_unknown_field(self):
        with pytest.raises(MutationError, match="unknown fields"):
            mutation_from_dict({"op": "add_edge", "u": 1, "v": 2, "speed": 9})

    def test_missing_field(self):
        with pytest.raises(MutationError, match="malformed add_edge"):
            mutation_from_dict({"op": "add_edge", "u": 1})

    def test_not_a_mapping(self):
        with pytest.raises(MutationError, match="JSON object"):
            mutation_from_dict(["add_edge", 1, 2])

    def test_bad_weight(self):
        with pytest.raises(MutationError, match="weight"):
            AddEdge(u=1, v=2, weight=0.0)
        with pytest.raises(MutationError, match="weight"):
            AddEdge(u=1, v=2, weight="heavy")

    @pytest.mark.parametrize(
        "weight",
        [
            float("nan"), float("inf"), -float("inf"),
            pytest.param(10**400, id="int-past-float-range"),
        ],
    )
    def test_nonfinite_weight(self, weight):
        with pytest.raises(MutationError, match="finite"):
            AddEdge(u=1, v=2, weight=weight)
        with pytest.raises(MutationError, match="finite"):
            RemoveEdge(u=1, v=2, weight=weight)
        with pytest.raises(MutationError, match="finite"):
            mutation_from_dict({"op": "add_edge", "u": 1, "v": 2, "weight": weight})

    @pytest.mark.parametrize(
        "prestige",
        [
            float("nan"), float("inf"), -float("inf"), -0.5,
            pytest.param(10**400, id="int-past-float-range"),
        ],
    )
    def test_prestige_outside_zero_to_inf(self, prestige):
        with pytest.raises(MutationError, match="prestige must be finite and >= 0"):
            AddNode(label="x", prestige=prestige)
        with pytest.raises(MutationError, match="prestige must be finite and >= 0"):
            mutation_from_dict({"op": "add_node", "prestige": prestige})
        assert AddNode(prestige=0).prestige == 0.0

    def test_bad_endpoint(self):
        with pytest.raises(MutationError, match="node id"):
            AddEdge(u="a", v=2)
        with pytest.raises(MutationError, match="node id"):
            UpdateText(node=True, text="x")

    def test_bad_ref(self):
        with pytest.raises(MutationError, match="ref"):
            AddNode(ref=("paper",))
        with pytest.raises(MutationError, match="primary key"):
            AddNode(ref=("paper", 1.5))

    def test_result_to_dict(self):
        result = MutationResult(
            dataset="d", version=3, applied=2, new_nodes=(9,), compacted=True
        )
        assert result.to_dict() == {
            "dataset": "d",
            "version": 3,
            "applied": 2,
            "new_nodes": [9],
            "compacted": True,
            "cache_purged": 0,
            "workers": {},
            "drift": False,
            "wal_seq": None,
        }
        fleet = MutationResult(
            dataset="d", version=3, applied=2, workers={"0": 3, "1": 2}, wal_seq=3
        )
        assert fleet.drift and fleet.to_dict()["workers"] == {"0": 3, "1": 2}
