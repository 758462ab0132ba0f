"""Structured mutations and their wire format (live subsystem).

A mutation is a small frozen dataclass describing one change to a
dataset: add a node, add or remove a forward edge, or replace a node's
indexed text.  Like :class:`~repro.service.QueryRequest`, every
mutation round-trips through a plain JSON-safe dict
(:func:`mutation_to_dict` / :func:`mutation_from_dict`) so the same
objects travel over the cluster tier's process boundary and the HTTP
front-end's ``POST /mutate`` body.

Batch node aliases
------------------
A batch often adds a node and immediately wires edges to it, before the
real node id is known.  Edge endpoints (and ``UpdateText.node``) may
therefore be *negative aliases*: ``-(k + 1)`` refers to the k-th
:class:`AddNode` of the same batch (``-1`` is the first added node,
``-2`` the second, ...).  :meth:`MutableDataset.mutate` resolves
aliases and reports the assigned real ids in its
:class:`MutationResult`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from math import inf
from typing import Optional, Union

from repro.errors import MutationError
from repro.graph.weights import DEFAULT_FORWARD_WEIGHT

__all__ = [
    "AddNode",
    "AddEdge",
    "RemoveEdge",
    "UpdateText",
    "Mutation",
    "MutationResult",
    "mutation_to_dict",
    "mutation_from_dict",
    "coerce_mutation",
    "coerce_mutations",
]


@dataclass(frozen=True)
class AddNode:
    """Add a node, optionally indexed under ``text`` and its relation
    name (``table``), mirroring what :func:`repro.index.build_index`
    does for a freshly inserted tuple.

    ``prestige`` pins the node's prestige explicitly; None (the
    default) takes the mean prestige of the dataset's base.  The thread
    tier's WAL journals the *resolved* value, so a replayed node scores
    bit-identically no matter which snapshot lineage the replay started
    from.  The fleet supervisor's log holds the request form (aliases,
    an unset prestige) and is replayed only onto the spec snapshot it
    was written against, where every replica resolves it the same way.
    """

    label: str = ""
    table: Optional[str] = None
    ref: Optional[tuple[str, Union[int, str]]] = None
    text: Optional[str] = None
    prestige: Optional[float] = None

    def __post_init__(self) -> None:
        if self.prestige is not None:
            prestige = _finite(self.prestige, "add_node prestige", zero_ok=True)
            object.__setattr__(self, "prestige", prestige)
        if self.ref is not None:
            ref = tuple(self.ref)
            if len(ref) != 2 or not isinstance(ref[0], str):
                raise MutationError(
                    f"add_node ref must be (table, primary_key), got {self.ref!r}"
                )
            if not isinstance(ref[1], (int, str)) or isinstance(ref[1], bool):
                raise MutationError(
                    f"add_node ref primary key must be int or str, got {ref[1]!r}"
                )
            object.__setattr__(self, "ref", ref)


@dataclass(frozen=True)
class AddEdge:
    """Add a forward edge ``u -> v``; the derived backward edge and the
    indegree-dependent reweighting happen inside the dataset."""

    u: int
    v: int
    weight: float = DEFAULT_FORWARD_WEIGHT

    def __post_init__(self) -> None:
        _check_endpoint(self.u, "add_edge u")
        _check_endpoint(self.v, "add_edge v")
        weight = _finite(self.weight, "add_edge weight", zero_ok=False)
        object.__setattr__(self, "weight", weight)


@dataclass(frozen=True)
class RemoveEdge:
    """Remove one forward edge ``u -> v`` (the earliest-inserted match;
    ``weight`` narrows the match among parallel edges)."""

    u: int
    v: int
    weight: Optional[float] = None

    def __post_init__(self) -> None:
        _check_endpoint(self.u, "remove_edge u")
        _check_endpoint(self.v, "remove_edge v")
        if self.weight is not None:
            # No edge has a weight outside (0, inf): refuse it here.
            weight = _finite(self.weight, "remove_edge weight", zero_ok=False)
            object.__setattr__(self, "weight", weight)


@dataclass(frozen=True)
class UpdateText:
    """Replace the indexed text terms of ``node`` with ``text``'s tokens
    (relation-name postings are untouched)."""

    node: int
    text: str

    def __post_init__(self) -> None:
        _check_endpoint(self.node, "update_text node")
        if not isinstance(self.text, str):
            raise MutationError(
                f"update_text text must be a string, got {type(self.text).__name__}"
            )


Mutation = Union[AddNode, AddEdge, RemoveEdge, UpdateText]

_OPS = {
    "add_node": AddNode,
    "add_edge": AddEdge,
    "remove_edge": RemoveEdge,
    "update_text": UpdateText,
}
_OP_OF = {cls: op for op, cls in _OPS.items()}
_FIELDS = {
    "add_node": frozenset({"label", "table", "ref", "text", "prestige"}),
    "add_edge": frozenset({"u", "v", "weight"}),
    "remove_edge": frozenset({"u", "v", "weight"}),
    "update_text": frozenset({"node", "text"}),
}


def _finite(value, what: str, *, zero_ok: bool) -> float:
    """``value`` as a float in ``(0, inf)`` (``[0, inf)`` when
    ``zero_ok``), else :class:`MutationError`: NaN, the infinities and an
    int past the float range are refused here, not scored."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise MutationError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int past the float range
        number = inf
    in_range = (number >= 0.0 if zero_ok else number > 0.0) and number < inf
    if not in_range:  # NaN fails too
        bound = ">= 0" if zero_ok else "> 0"
        raise MutationError(f"{what} must be finite and {bound}, got {value!r}")
    return number


def _check_endpoint(value, what: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise MutationError(f"{what} must be a node id (int), got {value!r}")


@dataclass(frozen=True)
class MutationResult:
    """Outcome of one committed mutation batch, on either service tier.

    ``new_nodes`` lists the real ids assigned to the batch's
    :class:`AddNode` mutations, in batch order; ``cache_purged`` counts
    the stale result-cache entries dropped eagerly (version keying
    already made them unreachable).  ``workers`` maps each fleet
    replica to the version it committed (empty on the thread tier),
    ``drift`` says they disagree, and ``wal_seq`` is the attached log's
    tip after the commit (None without a log).
    """

    dataset: str
    version: int
    applied: int
    new_nodes: tuple[int, ...] = field(default=())
    compacted: bool = False
    cache_purged: int = 0
    workers: dict[str, int] = field(default_factory=dict)
    wal_seq: Optional[int] = None

    @property
    def drift(self) -> bool:
        return len(set(self.workers.values())) > 1

    def to_dict(self) -> dict:
        return {**asdict(self), "new_nodes": list(self.new_nodes), "drift": self.drift}


# ----------------------------------------------------------------------
# wire format
# ----------------------------------------------------------------------
def mutation_to_dict(mutation: Mutation) -> dict:
    """Flatten one mutation to a JSON-safe ``{"op": ..., ...}`` dict."""
    try:
        op = _OP_OF[type(mutation)]
    except KeyError:
        raise MutationError(
            f"not a mutation: {type(mutation).__name__}"
        ) from None
    if isinstance(mutation, AddNode):
        return {
            "op": op,
            "label": mutation.label,
            "table": mutation.table,
            "ref": list(mutation.ref) if mutation.ref is not None else None,
            "text": mutation.text,
            "prestige": mutation.prestige,
        }
    if isinstance(mutation, UpdateText):
        return {"op": op, "node": mutation.node, "text": mutation.text}
    return {"op": op, "u": mutation.u, "v": mutation.v, "weight": mutation.weight}


def mutation_from_dict(data: dict) -> Mutation:
    """Rebuild a mutation from its wire dict, validating shape.

    Unknown ops and unknown fields raise :class:`MutationError` — a
    malformed mutation must fail at the boundary, not as an exotic
    ``TypeError`` inside the overlay maintenance code.
    """
    if not isinstance(data, dict):
        raise MutationError(
            f"mutation must be a JSON object, got {type(data).__name__}"
        )
    op = data.get("op")
    cls = _OPS.get(op)
    if cls is None:
        raise MutationError(
            f"unknown mutation op {op!r}; expected one of {sorted(_OPS)}"
        )
    fields_ = {key: value for key, value in data.items() if key != "op"}
    unknown = sorted(set(fields_) - _FIELDS[op])
    if unknown:
        raise MutationError(f"{op} has unknown fields: {', '.join(unknown)}")
    if op == "add_node" and fields_.get("ref") is not None:
        ref = fields_["ref"]
        if not isinstance(ref, (list, tuple)) or len(ref) != 2:
            raise MutationError(
                f"add_node ref must be [table, primary_key], got {ref!r}"
            )
        fields_["ref"] = tuple(ref)
    if op == "remove_edge":
        fields_.setdefault("weight", None)
    try:
        return cls(**fields_)
    except MutationError:
        raise
    except TypeError as exc:  # missing required field
        raise MutationError(f"malformed {op} mutation: {exc}") from None


def coerce_mutation(raw) -> Mutation:
    """Accept either a prepared mutation object or its wire dict."""
    if isinstance(raw, (AddNode, AddEdge, RemoveEdge, UpdateText)):
        return raw
    return mutation_from_dict(raw)


def coerce_mutations(raws) -> list[Mutation]:
    """Coerce a whole batch, failing fast before anything is applied."""
    return [coerce_mutation(raw) for raw in raws]
