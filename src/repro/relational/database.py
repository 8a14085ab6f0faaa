"""A small in-memory relational database with integrity enforcement.

Rows are plain dicts validated against the schema on insert/update:
unknown columns, missing non-nullable values, type mismatches, duplicate
primary keys and dangling foreign keys are all rejected.  Deletes check
that no referencing row is left dangling (no cascades — the evolution
layer deletes in dependency order on purpose, the way curated databases
like GtoPdb do between releases).

Instances are cheaply copyable so that the version-evolution generator can
branch "release N+1" off "release N".
"""

from __future__ import annotations

from decimal import Decimal
from typing import Any, Iterator, Mapping

from ..exceptions import SchemaError
from .schema import ColumnType, Schema, Table

#: A primary-key value tuple.
KeyTuple = tuple[Any, ...]

#: A row as stored: column name → value.
Row = dict[str, Any]

_PYTHON_TYPES = {
    ColumnType.TEXT: str,
    ColumnType.INTEGER: int,
    ColumnType.DECIMAL: (int, float, Decimal),
}


class RelationalDatabase:
    """One version of a relational database instance."""

    __slots__ = ("_schema", "_tables")

    def __init__(self, schema: Schema) -> None:
        self._schema = schema
        self._tables: dict[str, dict[KeyTuple, Row]] = {
            table.name: {} for table in schema
        }

    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self._schema

    def key_of(self, table_name: str, row: Mapping[str, Any]) -> KeyTuple:
        table = self._schema.table(table_name)
        return tuple(row[column] for column in table.primary_key)

    def _validate_row(self, table: Table, row: Mapping[str, Any]) -> Row:
        unknown = set(row) - set(table.column_names)
        if unknown:
            raise SchemaError(
                f"{table.name}: unknown columns {sorted(unknown)}"
            )
        validated: Row = {}
        for column in table.columns:
            value = row.get(column.name)
            if value is None:
                if not column.nullable and column.name in row:
                    raise SchemaError(
                        f"{table.name}.{column.name}: explicit NULL in non-nullable column"
                    )
                if not column.nullable and column.name in table.primary_key:
                    raise SchemaError(
                        f"{table.name}.{column.name}: primary key value missing"
                    )
                if not column.nullable and column.name not in row:
                    raise SchemaError(
                        f"{table.name}.{column.name}: value missing"
                    )
                continue
            expected = _PYTHON_TYPES[column.type]
            if not isinstance(value, expected) or isinstance(value, bool):
                raise SchemaError(
                    f"{table.name}.{column.name}: {value!r} is not of type "
                    f"{column.type.value}"
                )
            validated[column.name] = value
        return validated

    def _check_foreign_keys(self, table: Table, row: Row) -> None:
        for fk in table.foreign_keys:
            values = tuple(row.get(column) for column in fk.columns)
            if any(value is None for value in values):
                continue  # nullable reference left unset
            if values not in self._tables[fk.references]:
                raise SchemaError(
                    f"{table.name}: foreign key {fk.columns} -> {fk.references} "
                    f"dangles on {values!r}"
                )

    # ------------------------------------------------------------------
    def insert(self, table_name: str, row: Mapping[str, Any]) -> KeyTuple:
        """Insert a row; returns its primary-key tuple."""
        table = self._schema.table(table_name)
        validated = self._validate_row(table, row)
        key = tuple(validated[column] for column in table.primary_key)
        if key in self._tables[table_name]:
            raise SchemaError(f"{table_name}: duplicate primary key {key!r}")
        self._check_foreign_keys(table, validated)
        self._tables[table_name][key] = validated
        return key

    def update(self, table_name: str, key: KeyTuple, changes: Mapping[str, Any]) -> None:
        """Update non-key columns of an existing row."""
        table = self._schema.table(table_name)
        current = self._tables[table_name].get(key)
        if current is None:
            raise SchemaError(f"{table_name}: no row with key {key!r}")
        if set(changes) & set(table.primary_key):
            raise SchemaError(
                f"{table_name}: primary-key columns cannot be updated "
                "(keys are persistent entity identifiers)"
            )
        merged = dict(current)
        merged.update(changes)
        validated = self._validate_row(table, merged)
        self._check_foreign_keys(table, validated)
        self._tables[table_name][key] = validated

    def delete(self, table_name: str, key: KeyTuple) -> None:
        """Delete a row, refusing if another row still references it."""
        if key not in self._tables[table_name]:
            raise SchemaError(f"{table_name}: no row with key {key!r}")
        for other in self._schema:
            for fk in other.foreign_keys:
                if fk.references != table_name:
                    continue
                for row in self._tables[other.name].values():
                    values = tuple(row.get(column) for column in fk.columns)
                    if values == key:
                        raise SchemaError(
                            f"cannot delete {table_name}{key!r}: referenced by "
                            f"{other.name}"
                        )
        del self._tables[table_name][key]

    # ------------------------------------------------------------------
    def rows(self, table_name: str) -> Iterator[tuple[KeyTuple, Row]]:
        """Iterate (key, row) pairs of a table."""
        if table_name not in self._tables:
            raise SchemaError(f"no table {table_name!r}")
        return iter(self._tables[table_name].items())

    def get(self, table_name: str, key: KeyTuple) -> Row | None:
        return self._tables[table_name].get(key)

    def keys(self, table_name: str) -> set[KeyTuple]:
        if table_name not in self._tables:
            raise SchemaError(f"no table {table_name!r}")
        return set(self._tables[table_name])

    def count(self, table_name: str) -> int:
        return len(self._tables[table_name])

    def total_rows(self) -> int:
        return sum(len(rows) for rows in self._tables.values())

    def referencing_keys(self, table_name: str, key: KeyTuple) -> list[tuple[str, KeyTuple]]:
        """All (table, key) rows whose foreign keys point at the given row."""
        referencing: list[tuple[str, KeyTuple]] = []
        for other in self._schema:
            for fk in other.foreign_keys:
                if fk.references != table_name:
                    continue
                for other_key, row in self._tables[other.name].items():
                    values = tuple(row.get(column) for column in fk.columns)
                    if values == key:
                        referencing.append((other.name, other_key))
        return referencing

    def copy(self) -> "RelationalDatabase":
        """An independent copy (rows are copied, values are immutable)."""
        clone = RelationalDatabase(self._schema)
        clone._tables = {
            name: {key: dict(row) for key, row in rows.items()}
            for name, rows in self._tables.items()
        }
        return clone

    def __repr__(self) -> str:
        sizes = ", ".join(
            f"{name}={len(rows)}" for name, rows in self._tables.items()
        )
        return f"<RelationalDatabase {sizes}>"
