"""Determinism rules: the bit-identity invariant, statically.

The paper's acceptance criterion — and the differential oracle's — is
*byte-identical* output across engines, job counts, backends and fault
plans.  Three syntactic habits silently break it:

* iterating a ``set`` in an order-sensitive position (iteration order
  depends on ``PYTHONHASHSEED`` for strings; float accumulation order
  then changes the bits of a weight sum — the exact bug class fixed in
  :mod:`repro.similarity.dense_overlap`);
* drawing from process-global, unseeded RNGs (``random.shuffle``,
  ``numpy.random.*``) instead of a seeded ``random.Random(seed)`` /
  ``numpy.random.default_rng(seed)`` stream;
* reading the wall clock (``time.time``, ``datetime.now``) anywhere a
  result artifact is produced (``time.perf_counter`` for *measuring*
  durations is fine — it never enters report bytes).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..framework import Checker, Finding, ModuleInfo, register_checker
from ._util import call_name, parent_of, walk_with_parents

#: Set operators whose results iterate in hash order.
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)

#: Builtins that consume an iterable order-insensitively.
_ORDER_OK_CONSUMERS = {
    "sorted", "set", "frozenset", "min", "max", "any", "all", "len",
}


def _is_unordered(node: ast.expr) -> bool:
    """Is *node* statically recognizable as a set-valued expression?"""
    if isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.Call) and call_name(node) in ("set", "frozenset"):
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
        # `a.keys() & b.keys()`, `graph.literals() | graph.uris()`,
        # `predicates & nodes` — the set-algebra idioms of this codebase.
        # (A 3.9+ dict-union iterates in insertion order; spell it
        # `{**a, **b}` or suppress if that is really what you meant.)
        return True
    return False


def _consumed_unordered(node: ast.expr) -> bool:
    """True when iteration order of *node* can leak into results."""
    parent = parent_of(node)
    if isinstance(parent, (ast.For, ast.AsyncFor)) and parent.iter is node:
        return True
    if isinstance(parent, ast.comprehension) and parent.iter is node:
        owner = parent_of(parent)
        if isinstance(owner, ast.SetComp):
            return False  # set -> set: no order survives
        if isinstance(owner, ast.GeneratorExp):
            consumer = parent_of(owner)
            if (
                isinstance(consumer, ast.Call)
                and call_name(consumer) in _ORDER_OK_CONSUMERS
            ):
                return False
        return True
    if isinstance(parent, ast.Call) and node in parent.args:
        return call_name(parent) in ("list", "tuple", "enumerate")
    return False


@register_checker
class UnorderedIterationChecker(Checker):
    rule = "unordered-iteration"
    description = (
        "set-valued expressions (set literals, set()/frozenset(), "
        "`.keys() | .keys()`-style set algebra) must pass through "
        "sorted() before any order-sensitive iteration"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in walk_with_parents(module.tree):
            if not isinstance(node, ast.expr):
                continue
            if _is_unordered(node) and _consumed_unordered(node):
                yield self.finding(
                    module,
                    node,
                    "iteration over an unordered set expression; wrap it "
                    "in sorted() (hash-seed-dependent order leaks into "
                    "results)",
                )


def _import_aliases(tree: ast.Module, target: str) -> set[str]:
    """Module-level aliases of ``import <target>`` (including submodules)."""
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == target or alias.name.startswith(target + "."):
                    aliases.add((alias.asname or alias.name).split(".")[0])
    return aliases


@register_checker
class UnseededRandomChecker(Checker):
    rule = "unseeded-random"
    description = (
        "no process-global RNG draws: construct a seeded random.Random "
        "or numpy.random.default_rng(seed) stream instead"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        random_aliases = _import_aliases(module.tree, "random")
        numpy_aliases = _import_aliases(module.tree, "numpy")
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name != "Random":
                        yield self.finding(
                            module,
                            node,
                            f"`from random import {alias.name}` binds a "
                            "module-global RNG draw; use a seeded "
                            "random.Random(seed) instance",
                        )
            if not isinstance(node, ast.Call):
                continue
            dotted = call_name(node)
            parts = dotted.split(".")
            if len(parts) == 2 and parts[0] in random_aliases:
                if parts[1] not in ("Random",):
                    yield self.finding(
                        module,
                        node,
                        f"`{dotted}()` draws from the process-global RNG; "
                        "use a seeded random.Random(seed) stream",
                    )
            if len(parts) >= 3 and parts[0] in numpy_aliases and parts[1] == "random":
                if parts[2] == "default_rng" and (node.args or node.keywords):
                    continue  # seeded generator construction is the fix
                yield self.finding(
                    module,
                    node,
                    f"`{dotted}()` uses numpy's global (or unseeded) RNG; "
                    "use numpy.random.default_rng(seed)",
                )


#: Exact wall-clock reads (module-qualified).
_WALL_CLOCK = {
    "time.time", "time.time_ns", "time.ctime", "time.localtime", "time.gmtime",
}


@register_checker
class WallClockChecker(Checker):
    rule = "wall-clock"
    description = (
        "no wall-clock reads (time.time, datetime.now) on result paths; "
        "time.perf_counter is fine for measuring durations"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = call_name(node)
            if not dotted:
                continue
            parts = dotted.split(".")
            if dotted in _WALL_CLOCK or (
                parts[-1] in ("now", "utcnow", "today")
                and any(part in ("datetime", "date") for part in parts[:-1])
            ):
                yield self.finding(
                    module,
                    node,
                    f"`{dotted}()` reads the wall clock; results must not "
                    "depend on when they were computed (use "
                    "time.perf_counter for durations)",
                )
