"""Shared-memory lifecycle: no named segments.

A leaked ``/dev/shm`` segment survives the process that created it, and
the CI leak checks grep ``/dev/shm`` for one after the fact.  The
process pool hands its workers the store itself (inherited at fork,
pickled once per worker under spawn), so nothing in the project
allocates a segment.  Statically, a raw ``SharedMemory(create=True)``
allocation is forbidden anywhere: it is what would bring segments, and
their leaks, back.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..framework import Checker, Finding, ModuleInfo, register_checker
from ._util import call_name


@register_checker
class ShmLifecycleChecker(Checker):
    rule = "unguarded-shm"
    description = (
        "no raw SharedMemory(create=True): hand workers the state itself "
        "through the store pool instead of a named segment"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = call_name(node)
            if dotted.split(".")[-1] != "SharedMemory":
                continue
            if any(
                keyword.arg == "create"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
                for keyword in node.keywords
            ):
                yield self.finding(
                    module,
                    node,
                    "raw SharedMemory(create=True); a named segment outlives "
                    "its process when nothing unlinks it — hand workers the "
                    "state through SharedStorePool instead",
                )
