"""Golden pin of the search contract tuple on a fixed dblp query set.

For each algorithm, three sha256 digests over a fixed list of queries on
the scale-0.25 synthetic DBLP:

* ``answers`` — every released answer's score (``repr``: every bit) and
  signature (node set and undirected edge set, sorted);
* ``stamps`` — every released answer's generated and output pops and
  touched counts;
* ``stats`` — every ``SearchStats`` counter except the timings.

A rewrite of a search loop that moves one pop, one push, one cascade row
or one emission changes a digest.  A change that is meant to move them
updates ``GOLDEN`` from the digests this test prints, and says why.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.params import SearchParams
from repro.core.stats import COST_FIELDS

#: (query, max_results) — two-keyword queries of several origin-set
#: sizes and one three-keyword query, at the default and a deeper k.
QUERIES = (
    ("database query", 10),
    ("stream mining", 10),
    ("transaction recovery", 25),
    ("concurrency memory", 10),
    ("privacy semantic data", 10),
)

COUNTERS = (
    "nodes_explored",
    "nodes_touched",
    "edges_explored",
    "answers_generated",
    "answers_output",
    "duplicates_discarded",
) + COST_FIELDS

GOLDEN = {
    "bidirectional": {
        "answers": "7ac65c0ac4b47a138cb4dc7aefb72c825b46b75a2d1df8775fbb8228ec44643a",
        "stamps": "23b953b40ac316f053681129bd6ae828cb306eb33b79dd34884d3838300fa6d4",
        "stats": "763fa42d4f009470d81286e5769504979dfd655c68873df32d221ae07165b834",
    },
    "si-backward": {
        "answers": "d750869ca5f24cafb0c28caf9330d29770ebea3f5d1d8730125f2ba3e5fba247",
        "stamps": "e24a147602999018d37449a80fbaa36542fce9948032329d41d12dc59818127b",
        "stats": "c0f116a10d3d66bfedf127c70d1b83df2c9e23205daa93ef7530d3e105b3dd93",
    },
    "mi-backward": {
        "answers": "b33b21988b69f75c2d347a4573c318b0ae6a8bfe383689719a7d280abae6e1ae",
        "stamps": "93dae41edb8b792997060273be1e2f669a4cf5e0a4720a1cd174c9b0d7651860",
        "stats": "5f00ebd0751b6d6aa478c5737bbe6fd84c0326a1e14a29f0c098993474ed24df",
    },
}


def digest(parts) -> str:
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()


def contract(engine, algorithm: str) -> dict[str, str]:
    answers, stamps, stats = [], [], []
    for query, k in QUERIES:
        result = engine.search(
            query, algorithm=algorithm, params=SearchParams(max_results=k)
        )
        for answer in result.answers:
            nodes, edges = answer.tree.signature()
            answers.append(
                [
                    repr(answer.tree.score),
                    sorted(nodes),
                    sorted(sorted(edge) for edge in edges),
                ]
            )
            stamps.append(
                [
                    answer.generated_pops,
                    answer.output_pops,
                    answer.generated_touched,
                    answer.output_touched,
                ]
            )
        stats.append([getattr(result.stats, name) for name in COUNTERS])
    return {
        "answers": digest(answers),
        "stamps": digest(stamps),
        "stats": digest(stats),
    }


@pytest.mark.parametrize("algorithm", sorted(GOLDEN))
def test_contract_tuple_is_pinned(dblp_small_engine, algorithm):
    got = contract(dblp_small_engine, algorithm)
    print(algorithm, json.dumps(got, indent=2))
    assert got == GOLDEN[algorithm]
