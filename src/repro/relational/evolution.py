"""Version-to-version evolution of relational databases.

Curated databases like GtoPdb release a new version every few months; the
changes are inserts of new entities, deletions of retired ones and value
updates — while primary keys stay persistent ("the same entity does not
change its key over different versions", paper Section 5.2).  This module
provides the structural helpers the dataset generator builds on:
dependency-ordered cascading deletes and bulk updates.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..exceptions import SchemaError
from .database import KeyTuple, RelationalDatabase


def delete_with_referents(
    database: RelationalDatabase, table_name: str, key: KeyTuple
) -> list[tuple[str, KeyTuple]]:
    """Delete a row and, transitively, every row referencing it.

    Returns the deleted (table, key) pairs in deletion order (referents
    first).  This models an entity being retired from a curated database:
    its interactions, cross-references etc. disappear with it.
    """
    deleted: list[tuple[str, KeyTuple]] = []
    stack: list[tuple[str, KeyTuple]] = [(table_name, key)]
    # Depth-first: postpone a row until its referents are gone.
    while stack:
        current_table, current_key = stack[-1]
        if database.get(current_table, current_key) is None:
            stack.pop()
            continue
        referents = [
            pair
            for pair in database.referencing_keys(current_table, current_key)
            if database.get(*pair) is not None
        ]
        if referents:
            stack.extend(referents)
            continue
        database.delete(current_table, current_key)
        deleted.append((current_table, current_key))
        stack.pop()
    return deleted


def bulk_update(
    database: RelationalDatabase,
    table_name: str,
    updates: Mapping[KeyTuple, Mapping[str, Any]],
) -> int:
    """Apply many single-row updates; returns the number of rows touched."""
    for key, changes in updates.items():
        database.update(table_name, key, changes)
    return len(updates)


def next_version(database: RelationalDatabase) -> RelationalDatabase:
    """Branch a new version off *database* (copy-on-write semantics)."""
    return database.copy()


def diff_keys(
    old: RelationalDatabase, new: RelationalDatabase
) -> dict[str, tuple[set[KeyTuple], set[KeyTuple], set[KeyTuple]]]:
    """Per-table (inserted, deleted, persistent) key sets between versions."""
    if old.schema is not new.schema and old.schema != new.schema:
        raise SchemaError("can only diff versions sharing a schema")
    result: dict[str, tuple[set[KeyTuple], set[KeyTuple], set[KeyTuple]]] = {}
    for table in old.schema:
        old_keys = old.keys(table.name)
        new_keys = new.keys(table.name)
        result[table.name] = (
            new_keys - old_keys,
            old_keys - new_keys,
            old_keys & new_keys,
        )
    return result


def changed_rows(
    old: RelationalDatabase, new: RelationalDatabase, table_name: str
) -> set[KeyTuple]:
    """Persistent keys whose row content differs between the versions."""
    shared = old.keys(table_name) & new.keys(table_name)
    return {
        key
        for key in shared
        if old.get(table_name, key) != new.get(table_name, key)
    }
