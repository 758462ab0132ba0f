"""Candidate-network execution: indexed nested-loop joins.

Executes a :class:`~repro.sparse.candidate_networks.CandidateNetwork`
against the in-memory store, mirroring the paper's Sparse setup: hash
indexes exist on every join column (``Database.build_join_indexes``),
the plan starts from the smallest tuple set and probes outward along the
CN's edges — the "indexed nested loops join ... starting from the
relation with fewer tuples" the paper likens Bidirectional search to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterator, Optional

from repro.core.cancellation import CancellationToken
from repro.errors import SearchCancelledError
from repro.relational.database import Database
from repro.relational.query import join_step
from repro.sparse.candidate_networks import CandidateNetwork
from repro.sparse.tuple_sets import TupleSets

__all__ = ["JoiningTree", "CNExecutor"]


@dataclass(frozen=True)
class JoiningTree:
    """One result of a CN: a tuple of ``(table, pk)`` per CN node."""

    network: CandidateNetwork
    rows: tuple[tuple[str, Hashable], ...]

    @property
    def size(self) -> int:
        return len(self.rows)

    def row_set(self) -> frozenset[tuple[str, Hashable]]:
        return frozenset(self.rows)

    def score(self) -> float:
        """Sparse's simple size-based ranking: fewer joins rank higher."""
        return 1.0 / self.size

    def graph_nodes(self, graph) -> frozenset[int]:
        """Map the joined tuples onto search-graph node ids, for
        comparison against graph-search answers."""
        return frozenset(graph.node_by_ref(table, pk) for table, pk in self.rows)


class CNExecutor:
    """Evaluates candidate networks with indexed nested-loop joins.

    ``token`` makes the row loops cooperative: the executor ticks it
    once per scanned row and unwinds with
    :class:`~repro.errors.SearchCancelledError` when it fires —
    :class:`~repro.sparse.sparse_search.SparseSearch` catches that and
    returns the joining trees already produced as a partial result.
    """

    def __init__(
        self,
        db: Database,
        tuple_sets: TupleSets,
        *,
        token: Optional[CancellationToken] = None,
    ) -> None:
        self.db = db
        self.tuple_sets = tuple_sets
        self.rows_scanned = 0
        self.token = token

    def _scan_row(self) -> None:
        """Count one scanned row; the sparse tier's cooperative tick."""
        self.rows_scanned += 1
        if self.token is not None and self.token.tick():
            raise SearchCancelledError(self.token.reason or "cancelled")

    # ------------------------------------------------------------------
    def execute(
        self, cn: CandidateNetwork, *, limit: Optional[int] = None
    ) -> list[JoiningTree]:
        """All joining trees of ``cn`` (distinct tuples per tree), up to
        ``limit``."""
        return list(self.iter_execute(cn, limit=limit))

    def iter_execute(
        self, cn: CandidateNetwork, *, limit: Optional[int] = None
    ) -> Iterator[JoiningTree]:
        order = self._plan(cn)
        start = order[0]
        start_node = cn.nodes[start]
        if start_node.is_free:
            start_pks = self.tuple_sets.free_members(start_node.table)
        else:
            start_pks = self.tuple_sets.members(start_node.table, start_node.keywords)
        adjacency = cn.adjacency()
        produced = 0
        for pk in start_pks:
            self._scan_row()
            assignment: dict[int, tuple[str, Hashable]] = {
                start: (start_node.table, pk)
            }
            for tree in self._extend(cn, adjacency, order, 1, assignment):
                yield tree
                produced += 1
                if limit is not None and produced >= limit:
                    return

    # ------------------------------------------------------------------
    def _plan(self, cn: CandidateNetwork) -> list[int]:
        """Join order: start at the smallest tuple set, then BFS through
        the CN so each joined node touches an already-bound neighbour."""

        def cardinality(index: int) -> int:
            node = cn.nodes[index]
            if node.is_free:
                return self.db.count(node.table)
            return len(self.tuple_sets.members(node.table, node.keywords))

        start = min(range(cn.size), key=lambda i: (cardinality(i), i))
        adjacency = cn.adjacency()
        order = [start]
        seen = {start}
        head = 0
        while head < len(order):
            for neighbour, _, _ in adjacency[order[head]]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    order.append(neighbour)
            head += 1
        return order

    def _extend(
        self,
        cn: CandidateNetwork,
        adjacency,
        order: list[int],
        position: int,
        assignment: dict[int, tuple[str, Hashable]],
    ) -> Iterator[JoiningTree]:
        if position == len(order):
            rows = tuple(assignment[i] for i in range(cn.size))
            yield JoiningTree(network=cn, rows=rows)
            return
        target = order[position]
        target_node = cn.nodes[target]
        # The bound neighbour this node joins to (exists by BFS order).
        anchor, fk = next(
            (neighbour, fk)
            for neighbour, fk, _ in adjacency[target]
            if neighbour in assignment
        )
        anchor_table, anchor_pk = assignment[anchor]
        anchor_row = self.db.get(anchor_table, anchor_pk)
        used = set(assignment.values())
        for row in join_step(self.db, anchor_row, anchor_table, fk):
            self._scan_row()
            pk = row[self.db.schema.table(target_node.table).pk]
            if not self.tuple_sets.in_tuple_set(
                target_node.table, pk, target_node.keywords
            ):
                continue
            key = (target_node.table, pk)
            if key in used:
                continue  # joining trees use distinct tuples
            assignment[target] = key
            yield from self._extend(cn, adjacency, order, position + 1, assignment)
            del assignment[target]
