"""Shared AST helpers for the built-in checkers."""

from __future__ import annotations

import ast
from typing import Iterator


def walk_with_parents(tree: ast.Module) -> Iterator[ast.AST]:
    """``ast.walk`` that first stamps every node with ``._reprolint_parent``."""
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            setattr(child, "_reprolint_parent", node)
    return ast.walk(tree)


def parent_of(node: ast.AST) -> ast.AST | None:
    return getattr(node, "_reprolint_parent", None)


def dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for Name/Attribute chains, ``""`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def call_name(call: ast.Call) -> str:
    """The dotted name a call targets (``""`` if not a name chain)."""
    return dotted_name(call.func)


def module_level_callables(tree: ast.Module) -> set[str]:
    """Names bound at module level to defs or imports (pool-safe targets)."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names.add(alias.asname or alias.name)
    return names


def enclosing_function(node: ast.AST) -> ast.AST | None:
    """The nearest enclosing function/async-function def, if any."""
    current = parent_of(node)
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return current
        current = parent_of(current)
    return None
