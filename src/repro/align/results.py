"""Result objects produced by alignment runs.

Two shapes share one surface:

* :class:`AlignmentResult` — the partition-based methods (trivial,
  deblank, hybrid, overlap): a partition of the combined graph plus the
  induced :class:`~repro.partition.alignment.PartitionAlignment`;
* :class:`BaselineResult` — methods that produce an explicit pair set
  (similarity flooding, label invention) wrapped in a
  :class:`PairAlignment`.

Both expose ``method``, ``graph``, ``engine``, ``alignment``,
``matched_entities()``, ``unaligned_counts()`` and ``report()``, which is
all the CLI, the session API and the report builder need — a method
runner may return either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from ..model.graph import NodeId
from ..model.union import CombinedGraph
from ..partition.alignment import PartitionAlignment
from ..partition.coloring import Partition
from ..partition.interner import ColorInterner
from ..partition.weighted import WeightedPartition
from ..similarity.overlap_alignment import OverlapTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .config import AlignConfig
    from .report import AlignmentReport


class _ResultOps:
    """Shared convenience surface of the two result shapes."""

    def matched_entities(self) -> int:
        """Deduplicated count of aligned entities (matched classes)."""
        return self.alignment.matched_class_count()  # type: ignore[attr-defined]

    def unaligned_counts(self) -> tuple[int, int]:
        """``(|Unaligned_1|, |Unaligned_2|)``."""
        return (
            len(self.alignment.unaligned_source()),  # type: ignore[attr-defined]
            len(self.alignment.unaligned_target()),  # type: ignore[attr-defined]
        )

    def report(self, config: "AlignConfig | None" = None) -> "AlignmentReport":
        """The serializable :class:`~repro.align.report.AlignmentReport`."""
        from .report import AlignmentReport  # late import (report imports nothing back)

        return AlignmentReport.from_result(self, config)


@dataclass(frozen=True)
class AlignmentResult(_ResultOps):
    """Everything produced by one partition-based alignment run.

    ``weighted`` is populated by the overlap method only; ``alignment``
    always reflects the final partition.  ``details`` carries
    method-specific diagnostics (e.g. the signature round counts of the
    k-bisimulation family) and is surfaced in the report's
    ``diagnostics`` block, mirroring :class:`BaselineResult`.
    """

    method: str
    graph: CombinedGraph
    partition: Partition
    alignment: PartitionAlignment
    interner: ColorInterner
    weighted: WeightedPartition | None = None
    trace: OverlapTrace | None = None
    engine: str = "reference"
    details: dict = field(default_factory=dict)


class PairAlignment:
    """An alignment backed by an explicit pair set (baseline methods).

    Mirrors the query surface of
    :class:`~repro.partition.alignment.PartitionAlignment` so callers can
    treat baseline and partition results uniformly.
    ``matched_class_count`` counts connected components of the bipartite
    pair graph — for crossover-closed pair sets (every alignment induced
    by a partition or by label equality) this coincides with the number
    of matched classes.
    """

    __slots__ = ("_graph", "_pairs", "_matched_source", "_matched_target")

    def __init__(
        self, graph: CombinedGraph, pairs: Iterable[tuple[NodeId, NodeId]]
    ) -> None:
        self._graph = graph
        self._pairs = frozenset(pairs)
        self._matched_source = frozenset(s for s, _ in self._pairs)
        self._matched_target = frozenset(t for _, t in self._pairs)

    @property
    def graph(self) -> CombinedGraph:
        return self._graph

    def pairs(self) -> Iterator[tuple[NodeId, NodeId]]:
        return iter(self._pairs)

    def sorted_pairs(
        self, key: Callable[[NodeId], Any]
    ) -> Iterator[tuple[NodeId, NodeId]]:
        """Every pair, ordered by ``(key(source), key(target))``.

        *key* is called once per paired node.  A pair set need not be
        crossover-closed, so unlike
        :meth:`~repro.partition.alignment.PartitionAlignment.sorted_pairs`
        this sorts the pairs themselves.
        """
        nodes = self._matched_source | self._matched_target
        keys = {node: key(node) for node in nodes}
        return iter(
            sorted(self._pairs, key=lambda pair: (keys[pair[0]], keys[pair[1]]))
        )

    def pair_count(self) -> int:
        return len(self._pairs)

    def aligned(self, source_node: NodeId, target_node: NodeId) -> bool:
        return (source_node, target_node) in self._pairs

    def unaligned_source(self) -> frozenset[NodeId]:
        return self._graph.source_nodes - self._matched_source

    def unaligned_target(self) -> frozenset[NodeId]:
        return self._graph.target_nodes - self._matched_target

    def unaligned(self) -> frozenset[NodeId]:
        return self.unaligned_source() | self.unaligned_target()

    def matched_class_count(self) -> int:
        """Connected components of the bipartite pair graph."""
        parent: dict[NodeId, NodeId] = {}

        def find(node: NodeId) -> NodeId:
            root = node
            while parent[root] != root:
                root = parent[root]
            while parent[node] != root:  # path compression
                parent[node], node = root, parent[node]
            return root

        for source, target in self._pairs:
            for node in (("s", source), ("t", target)):
                parent.setdefault(node, node)
            root_s, root_t = find(("s", source)), find(("t", target))
            if root_s != root_t:
                parent[root_t] = root_s
        return len({find(node) for node in parent})

    def __repr__(self) -> str:
        return (
            f"<PairAlignment pairs={len(self._pairs)} "
            f"matched={self.matched_class_count()}>"
        )


@dataclass(frozen=True)
class BaselineResult(_ResultOps):
    """The outcome of a pair-set method (registry ``baseline`` specs).

    ``details`` carries method-specific diagnostics (e.g. the number of
    similarity-flooding rounds) and is surfaced in the report's
    ``diagnostics`` block.
    """

    method: str
    graph: CombinedGraph
    alignment: PairAlignment
    engine: str = "reference"
    details: dict = field(default_factory=dict)
