"""Disjoint union of two graph versions (paper Sections 2.1 and 3).

All alignment methods operate on a single *combined graph*
``G = G1 ⊎ G2``: the disjoint union of the source version ``G1`` and the
target version ``G2``.  Because node identifiers are independent of labels,
the union can keep two nodes carrying the same URI label (one per version)
distinct — alignment is then precisely the question of which source node
corresponds to which target node.

:class:`CombinedGraph` tags every node with its side: node identifiers of
the union are ``(1, n)`` for ``n ∈ N1`` and ``(2, m)`` for ``m ∈ N2``.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from ..exceptions import AlignmentError, GraphError
from .graph import NodeId, TripleGraph

#: Side markers for the two versions.
SOURCE = 1
TARGET = 2


class CombinedGraph(TripleGraph):
    """The disjoint union ``G1 ⊎ G2`` with side bookkeeping.

    >>> from repro.model.rdf import RDFGraph, uri, lit
    >>> g1, g2 = RDFGraph(), RDFGraph()
    >>> g1.add(uri("a"), uri("p"), lit("x"))
    >>> g2.add(uri("a"), uri("p"), lit("y"))
    >>> union = CombinedGraph(g1, g2)
    >>> union.num_nodes            # 3 + 3, nothing is conflated
    6
    """

    __slots__ = ("_source", "_target", "_source_nodes", "_target_nodes")

    def __init__(self, source: TripleGraph, target: TripleGraph) -> None:
        super().__init__()
        self._source = source
        self._target = target
        self._source_nodes = self._add_side(SOURCE, source)
        self._target_nodes = self._add_side(TARGET, target)

    def _add_side(self, side: int, version: TripleGraph) -> frozenset[NodeId]:
        """Add *version*'s nodes, then its edges in its edge order, as *side*.

        Each node is lifted once to ``(side, node)``; the labels, edges,
        out-index and the returned side set all hold that one tuple, so
        the union keeps two tuples alive per edge (the edge and its
        out-pair).
        """
        labels = self._labels
        lift: dict[Hashable, NodeId] = {}
        for node, label in version.labels().items():
            lifted = lift[node] = (side, node)
            labels[lifted] = label
        edges = self._edges
        out = self._out
        for subject, predicate, obj in version.edges():
            try:
                edge = lift[subject], lift[predicate], lift[obj]
            except KeyError as missing:
                raise GraphError(
                    f"edge endpoint {(side, missing.args[0])!r} is not a node of the graph"
                ) from None
            edges.add(edge)
            pairs = out.get(edge[0])
            if pairs is None:
                pairs = out[edge[0]] = set()
            pairs.add(edge[1:])
        return frozenset(lift.values())

    # ------------------------------------------------------------------
    # Sides
    # ------------------------------------------------------------------
    @property
    def source(self) -> TripleGraph:
        """The original source graph ``G1``."""
        return self._source

    @property
    def target(self) -> TripleGraph:
        """The original target graph ``G2``."""
        return self._target

    @property
    def source_nodes(self) -> frozenset[NodeId]:
        """``N1`` as combined-graph node identifiers."""
        return self._source_nodes

    @property
    def target_nodes(self) -> frozenset[NodeId]:
        """``N2`` as combined-graph node identifiers."""
        return self._target_nodes

    def side(self, node: NodeId) -> int:
        """Which version a combined node comes from (:data:`SOURCE`/:data:`TARGET`)."""
        if node in self._source_nodes:
            return SOURCE
        if node in self._target_nodes:
            return TARGET
        raise AlignmentError(f"{node!r} is not a node of the combined graph")

    def original(self, node: NodeId) -> Hashable:
        """The node's identifier in its own version."""
        self.side(node)  # validates membership
        return node[1]  # type: ignore[index]

    def from_source(self, node: Hashable) -> NodeId:
        """Lift a source-version node identifier into the combined graph."""
        combined = (SOURCE, node)
        if combined not in self._source_nodes:
            raise AlignmentError(f"{node!r} is not a node of the source graph")
        return combined

    def from_target(self, node: Hashable) -> NodeId:
        """Lift a target-version node identifier into the combined graph."""
        combined = (TARGET, node)
        if combined not in self._target_nodes:
            raise AlignmentError(f"{node!r} is not a node of the target graph")
        return combined

    def side_nodes(self, side: int) -> frozenset[NodeId]:
        if side == SOURCE:
            return self._source_nodes
        if side == TARGET:
            return self._target_nodes
        raise AlignmentError(f"unknown side {side!r} (expected 1 or 2)")


def combine(source: TripleGraph, target: TripleGraph) -> CombinedGraph:
    """Build the disjoint union ``source ⊎ target``."""
    return CombinedGraph(source, target)


def combine_many(graphs: Iterable[TripleGraph]) -> list[CombinedGraph]:
    """Combine consecutive versions pairwise: ``[G1⊎G2, G2⊎G3, ...]``."""
    versions = list(graphs)
    return [CombinedGraph(a, b) for a, b in zip(versions, versions[1:])]
