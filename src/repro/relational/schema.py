"""Relational schema model: tables, columns, foreign keys.

This is the substrate under both the graph builder (tuples become nodes,
foreign keys become edges; paper Section 2.1) and the Sparse baseline
(candidate networks are enumerated over the *schema graph*; paper
Sections 5 and 6 / Hristidis et al. VLDB 2003).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import Iterator

from repro.errors import SchemaError, UnknownColumnError, UnknownTableError

__all__ = ["Table", "ForeignKey", "Schema"]


@dataclass(frozen=True)
class Table:
    """A relation.

    Parameters
    ----------
    name:
        Relation name; also matched by keyword queries (a keyword equal
        to a relation name matches every tuple of the relation, paper
        Section 2.2).
    columns:
        All column names, including the primary key.
    pk:
        Primary-key column, defaulting to ``"id"``.
    text_columns:
        Columns whose values are tokenized into the keyword index.
    """

    name: str
    columns: tuple[str, ...]
    pk: str = "id"
    text_columns: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("table name must be non-empty")
        if len(set(self.columns)) != len(self.columns):
            raise SchemaError(f"duplicate column in table {self.name!r}")
        if self.pk not in self.columns:
            raise SchemaError(f"pk {self.pk!r} is not a column of {self.name!r}")
        for col in self.text_columns:
            if col not in self.columns:
                raise UnknownColumnError(f"{self.name}.{col}")

    def has_column(self, column: str) -> bool:
        return column in self.columns


@dataclass(frozen=True)
class ForeignKey:
    """A foreign key ``table.column -> ref_table.ref_column``.

    ``weight`` is the forward edge weight in the data graph (paper
    Section 2.3: "The weights of forward edges ... are defined by the
    schema, and default to 1").
    """

    table: str
    column: str
    ref_table: str
    ref_column: str = "id"
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.weight < inf:  # NaN fails too
            raise SchemaError(
                f"foreign key weight must be finite and > 0, got {self.weight!r}"
            )


@dataclass
class Schema:
    """A set of tables plus foreign keys, with validation on construction."""

    tables: tuple[Table, ...]
    foreign_keys: tuple[ForeignKey, ...] = ()
    _by_name: dict[str, Table] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._by_name = {}
        for table in self.tables:
            if table.name in self._by_name:
                raise SchemaError(f"duplicate table {table.name!r}")
            self._by_name[table.name] = table
        for fk in self.foreign_keys:
            src = self.table(fk.table)
            dst = self.table(fk.ref_table)
            if not src.has_column(fk.column):
                raise UnknownColumnError(f"{fk.table}.{fk.column}")
            if not dst.has_column(fk.ref_column):
                raise UnknownColumnError(f"{fk.ref_table}.{fk.ref_column}")
            if fk.ref_column != dst.pk:
                raise SchemaError(
                    f"foreign key {fk.table}.{fk.column} must reference the "
                    f"primary key of {fk.ref_table} (got {fk.ref_column!r})"
                )

    # ------------------------------------------------------------------
    def table(self, name: str) -> Table:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownTableError(name) from None

    def has_table(self, name: str) -> bool:
        return name in self._by_name

    def table_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.tables)

    def fks_from(self, table: str) -> Iterator[ForeignKey]:
        """Foreign keys whose *source* is ``table``."""
        self.table(table)
        return (fk for fk in self.foreign_keys if fk.table == table)

    def fks_to(self, table: str) -> Iterator[ForeignKey]:
        """Foreign keys whose *target* is ``table``."""
        self.table(table)
        return (fk for fk in self.foreign_keys if fk.ref_table == table)
