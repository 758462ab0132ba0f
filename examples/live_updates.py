"""Quickstart for the live mutation subsystem (:mod:`repro.live`).

The static-graph assumption, dropped: insert a brand-new paper into a
warm DBLP-style dataset while the service keeps answering queries, and
watch the new answer appear — no rebuild, no restart.

1. build a DBLP engine and register it with a ``QueryService``,
2. query for a title that does not exist yet (structured 404),
3. ``apply`` a mutation batch inserting the paper, its authorship row
   and the conference edge — one commit, one new epoch,
4. the same query now returns the paper; the result cache was
   version-keyed, so no stale answer survived the commit,
5. an engine captured *before* the commit still answers from its old
   epoch (MVCC: in-flight searches are never perturbed),
6. compact the overlay back to flat arrays, write a versioned disk
   snapshot and ``reload`` the dataset from it — the verb both service
   tiers share (a worker fleet hot-reloads the same way).

Run:  python examples/live_updates.py
"""

import tempfile
from pathlib import Path

from repro import KeywordSearchEngine, QueryService
from repro.datasets import DblpConfig, make_dblp
from repro.live.mutations import AddEdge, AddNode
from repro.service.snapshot import snapshot_info


def main() -> None:
    # ------------------------------------------------------------------
    # 1. warm service over a synthetic DBLP
    # ------------------------------------------------------------------
    engine = KeywordSearchEngine.from_database(make_dblp(DblpConfig()))
    graph = engine.graph
    service = QueryService()
    service.register_engine("dblp", engine)
    print(
        f"serving dblp: {graph.num_nodes} nodes, "
        f"{graph.num_forward_edges} forward edges, version "
        f"{service.dataset_version('dblp')}"
    )

    # ------------------------------------------------------------------
    # 2. the paper does not exist yet
    # ------------------------------------------------------------------
    query = "bidirectional expansion"
    before = service.search("dblp", query)
    print(f"\nsearch {query!r} before insert -> [{before.error_type}] {before.error}")

    # ------------------------------------------------------------------
    # 3. insert it live: paper + writes row + conference edge
    # ------------------------------------------------------------------
    author = next(n for n in graph.nodes() if graph.table(n) == "author")
    conference = next(n for n in graph.nodes() if graph.table(n) == "conference")
    old_engine = service.engine("dblp")  # captured pre-commit (step 5)
    result = service.apply(
        "dblp",
        [
            AddNode(
                label="Bidirectional Expansion For Keyword Search",
                table="paper",
                ref=("paper", 10_001),
                text="Bidirectional Expansion For Keyword Search",
            ),
            AddNode(label="writes:10001", table="writes", ref=("writes", 10_001)),
            AddEdge(u=-1, v=conference),   # paper -> conference
            AddEdge(u=-2, v=-1),           # writes -> paper
            AddEdge(u=-2, v=author),       # writes -> author
        ],
    )
    print(
        f"\napplied {result.applied} mutations -> version {result.version}, "
        f"new nodes {list(result.new_nodes)}, "
        f"{result.cache_purged} stale cache entries dropped"
    )

    # ------------------------------------------------------------------
    # 4. the new answer appears immediately
    # ------------------------------------------------------------------
    after = service.search("dblp", query)
    current = service.engine("dblp").graph
    print(f"\nsearch {query!r} after insert -> {len(after.result.answers)} answers:")
    for answer in after.result.answers[:3]:
        print(
            f"  root {current.label(answer.tree.root)!r} "
            f"(score {answer.tree.score:.4f})"
        )
    joined = service.search("dblp", f"expansion {current.label(author).split()[0]}")
    print(
        f"join with its author -> "
        f"{'found' if joined.ok and joined.result.answers else 'no answer'}"
    )

    # ------------------------------------------------------------------
    # 5. MVCC: the pre-commit engine still serves its epoch
    # ------------------------------------------------------------------
    try:
        old_engine.search(query)
        print("\nold epoch unexpectedly knows the new paper!")
    except LookupError:
        print(
            "\nengine captured before the commit still raises "
            "KeywordNotFoundError for the new title — in-flight searches "
            "finish on their own epoch"
        )

    # ------------------------------------------------------------------
    # 6. compact + versioned snapshot for fleet reloads
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = service.save_snapshot("dblp", Path(tmp) / "dblp-live.snap")
        info = snapshot_info(path)
        print(
            f"\nsnapshot after compaction: version "
            f"{info['dataset_version']}, digest "
            f"{info['content_digest'][:12]}..., "
            f"{info['file_bytes'] / 1024:.0f} KiB"
        )
        # The same verb and result on both tiers: serve the file at its
        # version (the commits are in it), then no-op on the matching
        # digest.  ``workers`` names each replica's outcome on a fleet
        # and is empty here, in one process.
        first = service.reload("dblp", path)
        again = service.reload("dblp", path)
        print(
            f"reload(): reloaded={first['reloaded']} at version "
            f"{first['version']} (digest {first['digest'][:12]}...), then "
            f"reloaded={again['reloaded']} (same digest), "
            f"workers={again['workers']}"
        )
    service.close()


if __name__ == "__main__":
    main()
