"""Answer-tree model (paper Sections 2.2, 3, 4.2.3).

An answer to a keyword query is a minimal rooted directed tree embedded
in the search graph, containing at least one node matching each
keyword.  We represent it by its root and, per keyword, the root-to-
matched-node path — the exact object the search algorithms construct
from their ``sp`` pointers; the tree is the union of those paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from repro.core.stats import SearchStats

__all__ = [
    "AnswerTree",
    "OutputAnswer",
    "SearchResult",
    "is_minimal_rooting",
    "leaf_nodes",
]

#: Undirected-skeleton signature: rotations of the same tree share it
#: (paper Section 4.2.3 discards lower-scoring duplicates).
Signature = tuple[frozenset, frozenset]


def is_minimal_rooting(root: int, paths: Sequence[Sequence[int]]) -> bool:
    """Paper Section 3's minimality rule.

    A tree whose root has a single child, with every keyword matched at
    a non-root node, is non-minimal: dropping the root yields another
    answer with a better score, so the rooted tree is discarded.
    """
    children = {path[1] for path in paths if len(path) > 1}
    if len(children) > 1:
        return True
    root_matches_keyword = any(len(path) == 1 for path in paths)
    if root_matches_keyword:
        return True
    # Zero children means a single-node tree, which only happens when
    # some path has length 1, handled above; so here children == 1.
    return False


def leaf_nodes(paths: Sequence[Sequence[int]]) -> frozenset[int]:
    """Nodes of the union of ``paths`` with no children; a single-node
    tree's root is its leaf.  Every leaf is some path's endpoint.

    Iterates the node set built the way :meth:`AnswerTree.nodes` builds
    it: the tree's node score sums leaf prestige in this set's order, and
    scores must not move by an ulp between callers.
    """
    parents = {node for path in paths for node in path[:-1]}
    nodes = frozenset(node for path in paths for node in path)
    return frozenset(node for node in nodes if node not in parents)


@dataclass(frozen=True)
class AnswerTree:
    """A scored answer tree.

    Attributes
    ----------
    root:
        Root node id.
    paths:
        One root-to-matched-node path per query keyword, in keyword
        order.  ``paths[i][0] == root`` and ``paths[i][-1]`` matches
        keyword ``i``.
    dists:
        Per-keyword path weight ``s(T, t_i)`` (paper Section 2.3).
    edge_score:
        ``E = sum_i s(T, t_i)``; smaller is better.
    node_score:
        ``N``: sum of prestige over the root and the tree's leaf nodes.
    score:
        Overall relevance ``N**lambda / (1 + E)``; larger is better
        (:mod:`repro.core.scoring` explains this normalization of the
        paper's ``E N^lambda``).
    """

    root: int
    paths: tuple[tuple[int, ...], ...]
    dists: tuple[float, ...]
    edge_score: float
    node_score: float
    score: float

    # ------------------------------------------------------------------
    # derived structure
    # ------------------------------------------------------------------
    def nodes(self) -> frozenset[int]:
        return frozenset(node for path in self.paths for node in path)

    def edges(self) -> frozenset[tuple[int, int]]:
        """Directed (parent, child) edges — the union of the paths."""
        out: set[tuple[int, int]] = set()
        for path in self.paths:
            out.update(zip(path, path[1:]))
        return frozenset(out)

    def children(self, node: int) -> frozenset[int]:
        return frozenset(child for parent, child in self.edges() if parent == node)

    def leaves(self) -> frozenset[int]:
        """Nodes with no children.  A single-node tree's root is a leaf."""
        return leaf_nodes(self.paths)

    def matched_nodes(self) -> tuple[int, ...]:
        """The node matching each keyword (path endpoints, keyword order)."""
        return tuple(path[-1] for path in self.paths)

    def size(self) -> int:
        """Number of distinct nodes (paper's "Ans Size" column)."""
        return len(self.nodes())

    def num_edges(self) -> int:
        return len(self.edges())

    def signature(self) -> Signature:
        """Rotation-invariant identity: node set + undirected edge set."""
        undirected = frozenset(
            frozenset((parent, child)) for parent, child in self.edges()
        )
        return (self.nodes(), undirected)

    def is_minimal(self) -> bool:
        return is_minimal_rooting(self.root, self.paths)

    # ------------------------------------------------------------------
    def describe(self, graph=None) -> str:
        """One-line description; labels resolved through ``graph`` if given."""

        def name(node: int) -> str:
            if graph is not None:
                label = graph.label(node)
                if label:
                    return f"{node}:{label}"
            return str(node)

        parts = [
            "->".join(name(node) for node in path) for path in self.paths
        ]
        return f"[root {name(self.root)} | score {self.score:.4g}] " + " ; ".join(parts)


@dataclass(frozen=True)
class OutputAnswer:
    """An answer plus the instants it was generated and output.

    The paper's Section 5.3 "Gen time" vs "Out time" distinction: an
    answer may be generated early but output only once the upper bound
    proves nothing better is coming.  Both wall-clock seconds (since
    search start) and deterministic pop counts are recorded.
    """

    tree: AnswerTree
    generated_at: float
    generated_pops: int
    output_at: float
    output_pops: int
    generated_touched: int = 0
    output_touched: int = 0

    @property
    def score(self) -> float:
        return self.tree.score


@dataclass
class SearchResult:
    """Everything a search run produced, in output order.

    ``complete`` is False when the run was stopped by a cooperative
    :class:`~repro.core.cancellation.CancellationToken` (deadline or
    explicit cancel); ``cancel_reason`` then records why.  A cancelled
    result's ``answers`` are exactly the prefix the Section 4.5 bound
    had already certified — buffered-but-unproven answers are *not*
    drained, so a cancelled run's answer stream is a prefix of the
    uncancelled run's (the property the cancellation tests assert).
    """

    algorithm: str
    keywords: tuple[str, ...]
    answers: list[OutputAnswer] = field(default_factory=list)
    stats: Optional[SearchStats] = None
    complete: bool = True
    cancel_reason: Optional[str] = None
    #: Structured explain report (JSON-safe), present only when the
    #: query ran with explain enabled; see
    #: :func:`repro.telemetry.accounting.build_explain_report`.
    explain: Optional[dict] = None

    def trees(self) -> list[AnswerTree]:
        return [answer.tree for answer in self.answers]

    def scores(self) -> list[float]:
        return [answer.score for answer in self.answers]

    def signatures(self) -> list[Signature]:
        return [answer.tree.signature() for answer in self.answers]

    def node_sets(self) -> list[frozenset[int]]:
        return [answer.tree.nodes() for answer in self.answers]

    def best(self) -> Optional[OutputAnswer]:
        return self.answers[0] if self.answers else None

    def __iter__(self) -> Iterator[OutputAnswer]:
        return iter(self.answers)

    def __len__(self) -> int:
        return len(self.answers)
