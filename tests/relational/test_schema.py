"""Schema validation: tables, columns, foreign keys."""

import pytest

from repro.errors import SchemaError, UnknownColumnError, UnknownTableError
from repro.relational.schema import ForeignKey, Schema, Table


class TestTable:
    def test_basic(self):
        t = Table("paper", ("id", "title"), text_columns=("title",))
        assert t.pk == "id"
        assert t.has_column("title")
        assert not t.has_column("year")

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Table("", ("id",))

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            Table("t", ("id", "id"))

    def test_pk_must_be_column(self):
        with pytest.raises(SchemaError):
            Table("t", ("a",), pk="id")

    def test_text_columns_must_exist(self):
        with pytest.raises(UnknownColumnError):
            Table("t", ("id",), text_columns=("body",))


class TestForeignKey:
    def test_weight_default(self):
        fk = ForeignKey("writes", "author_id", "author")
        assert fk.weight == 1.0
        assert fk.ref_column == "id"

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(SchemaError):
            ForeignKey("a", "b", "c", weight=0.0)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_nonfinite_weight_rejected(self, weight):
        with pytest.raises(SchemaError, match="finite"):
            ForeignKey("a", "b", "c", weight=weight)


def two_table_schema() -> Schema:
    return Schema(
        tables=(
            Table("author", ("id", "name")),
            Table("paper", ("id", "author_id")),
        ),
        foreign_keys=(ForeignKey("paper", "author_id", "author"),),
    )


class TestSchema:
    def test_lookup(self):
        schema = two_table_schema()
        assert schema.table("author").name == "author"
        assert schema.has_table("paper")
        assert not schema.has_table("movie")
        assert schema.table_names() == ("author", "paper")

    def test_unknown_table_raises(self):
        schema = two_table_schema()
        with pytest.raises(UnknownTableError):
            schema.table("movie")

    def test_duplicate_table_rejected(self):
        with pytest.raises(SchemaError):
            Schema(tables=(Table("a", ("id",)), Table("a", ("id",))))

    def test_fk_source_column_must_exist(self):
        with pytest.raises(UnknownColumnError):
            Schema(
                tables=(Table("a", ("id",)), Table("b", ("id",))),
                foreign_keys=(ForeignKey("b", "a_id", "a"),),
            )

    def test_fk_must_reference_pk(self):
        with pytest.raises(SchemaError):
            Schema(
                tables=(Table("a", ("id", "other")), Table("b", ("id", "a_id"))),
                foreign_keys=(ForeignKey("b", "a_id", "a", ref_column="other"),),
            )

    def test_fk_navigation(self):
        schema = two_table_schema()
        assert [fk.column for fk in schema.fks_from("paper")] == ["author_id"]
        assert [fk.table for fk in schema.fks_to("author")] == ["paper"]
        assert list(schema.fks_from("author")) == []

