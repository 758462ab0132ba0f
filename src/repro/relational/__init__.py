"""Mini in-memory relational engine.

Provides the schema-validated tuple store the paper's systems sit on:
the graph builder turns its tuples into nodes and its foreign keys into
edges, the keyword index tokenizes its text columns, the Sparse baseline
enumerates candidate networks over its schema graph and executes them
with indexed nested-loop joins, and the workload generator evaluates the
ground-truth join networks on it.
"""

from repro.relational.database import Database
from repro.relational.indexes import HashIndex
from repro.relational.query import follow_fk, follow_fk_reverse, join_step
from repro.relational.schema import ForeignKey, Schema, Table

__all__ = [
    "Database",
    "HashIndex",
    "Schema",
    "Table",
    "ForeignKey",
    "follow_fk",
    "follow_fk_reverse",
    "join_step",
]
