"""Synthetic dataset generators.

The paper measures on DBLP (2M nodes), IMDB and a 4M-node US Patents
subset; none of them ships with this repository, so three generators
stand in.  Each returns a deterministic :class:`~repro.relational.Database`
whose *shape* matches the corresponding real dataset of the paper's
Section 5 — Zipfian term frequencies, hub nodes with large fan-in,
link tuples as first-class rows, preferential-attachment citations —
scaled down to sizes a pure-Python search explores in seconds.

Shape, not size, is what the paper's measurements turn on.  How many
nodes an algorithm explores before an answer depends on how many nodes
match each keyword (term-frequency skew) and on the fan-in of the hubs
a backward search must cross (Sections 4 and 5).  Both are properties
of the distributions, which every ``Config.scaled(factor)`` keeps; size
scales the work, and the substitution's premise is that it does not
reorder the algorithms the figures compare.  Generation is O(n log n):
the preferential-attachment draws walk one Fenwick tree
(``vocab._FenwickTree``), so larger, hub-heavier graphs stay cheap.
"""

from repro.datasets.dblp import DBLP_SCHEMA, DblpConfig, make_dblp
from repro.datasets.imdb import IMDB_SCHEMA, ImdbConfig, make_imdb
from repro.datasets.names import NamePool
from repro.datasets.patents import PATENTS_SCHEMA, PatentsConfig, make_patents
from repro.datasets.vocab import TOPIC_WORDS, ZipfVocabulary, make_vocabulary

__all__ = [
    "DBLP_SCHEMA",
    "DblpConfig",
    "make_dblp",
    "IMDB_SCHEMA",
    "ImdbConfig",
    "make_imdb",
    "PATENTS_SCHEMA",
    "PatentsConfig",
    "make_patents",
    "NamePool",
    "TOPIC_WORDS",
    "ZipfVocabulary",
    "make_vocabulary",
]
