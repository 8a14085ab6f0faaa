"""Pool boundary: one pool, and only picklable callables cross into it.

Two rules guard the repo's single process pool
(:class:`repro.experiments.parallel.SharedStorePool`):

* ``pool-callable`` — the pool ships its cell callable to the workers
  *by reference* (module + qualified name), the property that lets it
  run under the ``spawn`` start method.  A lambda, a closure, or a
  locally-defined function pickles either not at all (spawn) or by
  value capturing parent state (fork), and the failure only shows up
  minutes into a pooled run on the one platform whose default start
  method differs.  The rule pins the contract at the call site:
  anything submitted to ``run_store_cells`` /
  ``SharedStorePool.map{,_partial}`` / executor ``submit`` must resolve
  to a module-level callable (the :mod:`repro.experiments.cells`
  idiom), and nothing in ``initargs=`` may be a lambda.
* ``private-pool`` — a ``ProcessPoolExecutor(...)`` or
  ``multiprocessing.Pool(...)`` built anywhere but
  ``repro/experiments/parallel.py`` is a second executor: it misses the
  pool's retry, serial degradation, fault hooks, ``spawn`` support and
  kill-on-interrupt, which is how three pool mechanisms once grew.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..framework import Checker, Finding, ModuleInfo, register_checker
from ._util import call_name, module_level_callables, walk_with_parents

#: ``call name -> index of the callable argument``.
_POOL_ENTRYPOINTS = {
    "run_store_cells": 1,
}

#: Attribute calls whose first argument crosses the process boundary.
_POOL_METHODS = {"map", "map_partial", "submit"}


class _Scope(ast.NodeVisitor):
    """Names bound to lambdas or nested defs inside one function."""

    def __init__(self) -> None:
        self.closure_names: set[str] = set()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.closure_names.add(node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.closure_names.add(node.name)

    def visit_Assign(self, node: ast.Assign) -> None:
        if isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.closure_names.add(target.id)
        self.generic_visit(node)


@register_checker
class PoolCallableChecker(Checker):
    rule = "pool-callable"
    description = (
        "callables submitted to the shm worker pool (run_store_cells, "
        "SharedStorePool.map/map_partial, executor submit) must be "
        "module-level functions picklable by reference — no lambdas or "
        "closures (they break under the spawn start method)"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        top_level = module_level_callables(module.tree)
        # Names bound to lambdas / nested defs anywhere in the module:
        # submitting one of these is a closure crossing the boundary.
        scope = _Scope()
        for statement in ast.walk(module.tree):
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in statement.body:
                    scope.visit(inner)
        closure_names = scope.closure_names - top_level

        for node in walk_with_parents(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = call_name(node)
            basename = dotted.split(".")[-1] if dotted else ""
            index: int | None = None
            if basename in _POOL_ENTRYPOINTS:
                index = _POOL_ENTRYPOINTS[basename]
            elif "." in dotted and basename in _POOL_METHODS:
                index = 0
            if index is not None and len(node.args) > index:
                yield from self._check_callable(module, node.args[index], closure_names)
            for keyword in node.keywords:
                if keyword.arg == "cell":
                    yield from self._check_callable(module, keyword.value, closure_names)
                if keyword.arg == "initargs":
                    for element in ast.walk(keyword.value):
                        if isinstance(element, ast.Lambda):
                            yield self.finding(
                                module,
                                element,
                                "lambda in initargs= cannot cross the "
                                "spawn boundary (initializer arguments "
                                "are pickled)",
                            )

    def _check_callable(
        self, module: ModuleInfo, node: ast.expr, closure_names: set[str]
    ) -> Iterator[Finding]:
        if isinstance(node, ast.Lambda):
            yield self.finding(
                module,
                node,
                "lambda submitted to a worker pool; pools ship callables "
                "by reference — define a module-level cell function "
                "(see repro/experiments/cells.py)",
            )
        elif isinstance(node, ast.Call) and call_name(node).endswith("partial"):
            yield self.finding(
                module,
                node,
                "functools.partial submitted to a worker pool; bind "
                "arguments through the (store, config, item) cell "
                "signature instead",
            )
        elif isinstance(node, ast.Name) and node.id in closure_names:
            yield self.finding(
                module,
                node,
                f"`{node.id}` is a nested function or lambda binding; "
                "pool callables must be module-level (picklable by "
                "reference under spawn)",
            )


#: The one module allowed to build a process pool.
_POOL_MODULE = "repro/experiments/parallel.py"


def _multiprocessing_bindings(tree: ast.Module) -> tuple[set[str], set[str]]:
    """``(module aliases, Pool aliases)`` bound by multiprocessing imports."""
    modules: set[str] = set()
    pools: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "multiprocessing":
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.ImportFrom) and (
            node.module or ""
        ).startswith("multiprocessing"):
            for alias in node.names:
                if alias.name == "Pool":
                    pools.add(alias.asname or alias.name)
    return modules, pools


@register_checker
class PrivatePoolChecker(Checker):
    rule = "private-pool"
    description = (
        "process pools (ProcessPoolExecutor, multiprocessing.Pool) are "
        "built only in repro/experiments/parallel.py; run parallel work "
        "through SharedStorePool / run_store_cells"
    )

    def applies_to(self, path: str) -> bool:
        return not path.endswith(_POOL_MODULE)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        modules, pools = _multiprocessing_bindings(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if call_name(node).split(".")[-1] == "ProcessPoolExecutor":
                builds = True
            elif isinstance(func, ast.Attribute) and func.attr == "Pool":
                receiver = func.value
                builds = (
                    isinstance(receiver, ast.Name) and receiver.id in modules
                ) or (
                    isinstance(receiver, ast.Call)
                    and call_name(receiver).endswith("get_context")
                )
            else:
                builds = isinstance(func, ast.Name) and func.id in pools
            if builds:
                yield self.finding(
                    module,
                    node,
                    "a second process pool; run parallel work through "
                    "SharedStorePool / run_store_cells "
                    "(repro/experiments/parallel.py) so it gets retry, "
                    "degradation, fault hooks and spawn support",
                )
