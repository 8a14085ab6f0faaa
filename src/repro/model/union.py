"""Disjoint union of two graph versions (paper Sections 2.1 and 3).

All alignment methods operate on a single *combined graph*
``G = G1 ⊎ G2``: the disjoint union of the source version ``G1`` and the
target version ``G2``.  Because node identifiers are independent of labels,
the union can keep two nodes carrying the same URI label (one per version)
distinct — alignment is then precisely the question of which source node
corresponds to which target node.

:class:`CombinedGraph` numbers its nodes with plain ints.  The source
version's ``n1`` nodes are ``0 .. n1-1`` and the target's ``n2`` nodes are
``n1 .. n1+n2-1``, each block in its version's node order, so a union id
is exactly its dense id in :meth:`repro.model.csr.CSRGraph.from_blocks`.
Partitions of the union are keyed by these ints.  The id contract:

* :meth:`~CombinedGraph.side` reads a node's version from its id range;
* :meth:`~CombinedGraph.original` reads the node's identifier in its own
  version from a per-side term table;
* :meth:`~CombinedGraph.from_source` and :meth:`~CombinedGraph.from_target`
  are the only way from a version's identifier to a union id.

All four raise :class:`~repro.exceptions.AlignmentError` for anything
that is not a node of the union or of the version (bools, other types,
ids out of range).  Ids follow the input's node order, which is file
order for parsed graphs, so output that must not depend on file order
sorts on :meth:`~CombinedGraph.sort_key`, never on the id.
"""

from __future__ import annotations

from itertools import islice
from typing import Hashable, Iterable

from ..exceptions import AlignmentError, GraphError
from .graph import NodeId, TripleGraph

#: Side markers for the two versions.
SOURCE = 1
TARGET = 2

_SIDE_NAMES = {SOURCE: "source", TARGET: "target"}


class CombinedGraph(TripleGraph):
    """The disjoint union ``G1 ⊎ G2`` over int node ids.

    >>> from repro.model.rdf import RDFGraph, uri, lit
    >>> g1, g2 = RDFGraph(), RDFGraph()
    >>> g1.add(uri("a"), uri("p"), lit("x"))
    >>> g2.add(uri("a"), uri("p"), lit("y"))
    >>> union = CombinedGraph(g1, g2)
    >>> union.num_nodes            # 3 + 3, nothing is conflated
    6
    >>> union.from_target(uri("a")), union.original(3)
    (3, URI('a'))
    """

    __slots__ = ("_source", "_target", "_split", "_terms", "_lifts", "_side_sets")

    def __init__(self, source: TripleGraph, target: TripleGraph) -> None:
        super().__init__()
        self._source = source
        self._target = target
        source_terms = self._add_side(SOURCE, source)
        #: The first target id (``n1``); ids below it are source nodes.
        self._split = len(source_terms)
        self._terms = (source_terms, self._add_side(TARGET, target))
        # Term -> id maps, built on the first from_source/from_target call:
        # most unions are never asked, and a map per side costs memory.
        self._lifts: list[dict[Hashable, int] | None] = [None, None]
        self._side_sets: list[frozenset[NodeId] | None] = [None, None]

    def _add_side(self, side: int, version: TripleGraph) -> list[Hashable]:
        """Add *version*'s nodes as the next id block, then its edges.

        Returns the side's term table (its node identifiers in id order).
        Labels, edges and out-pairs all hold the one int object minted per
        node, so a union keeps two int tuples per edge (the edge and its
        out-pair), which the cyclic GC untracks on its first pass.
        """
        labels = self._labels
        lift: dict[Hashable, int] = {}
        for node_id, (node, label) in enumerate(version.labels().items(), len(labels)):
            lift[node] = node_id
            labels[node_id] = label
        edges = self._edges
        out = self._out
        for subject, predicate, obj in version.edges():
            try:
                edge = lift[subject], lift[predicate], lift[obj]
            except KeyError as missing:
                raise GraphError(
                    f"edge endpoint {missing.args[0]!r} is not a node of the "
                    f"{_SIDE_NAMES[side]} graph"
                ) from None
            edges.add(edge)
            pairs = out.get(edge[0])
            if pairs is None:
                pairs = out[edge[0]] = set()
            pairs.add(edge[1:])
        return list(lift)

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
    def num_source_nodes(self) -> int:
        """``|N1|``: ids below this are source nodes, the rest target nodes."""
        return self._split

    @property
    def source_nodes(self) -> frozenset[NodeId]:
        """``N1`` as combined-graph node ids."""
        return self.side_nodes(SOURCE)

    @property
    def target_nodes(self) -> frozenset[NodeId]:
        """``N2`` as combined-graph node ids."""
        return self.side_nodes(TARGET)

    def side_nodes(self, side: int) -> frozenset[NodeId]:
        """The node ids of one side (built on first use, then cached)."""
        if side not in _SIDE_NAMES:
            raise AlignmentError(f"unknown side {side!r} (expected 1 or 2)")
        nodes = self._side_sets[side - 1]
        if nodes is None:
            # Read the ids off the label keys, which share their int objects.
            start, stop = (0, self._split) if side == SOURCE else (self._split, None)
            nodes = self._side_sets[side - 1] = frozenset(
                islice(self._labels, start, stop)
            )
        return nodes

    def _checked(self, node: NodeId) -> int:
        """*node* itself if it is a union id, else :class:`AlignmentError`."""
        # A bool is an int, and True == 1: it must not pass for a node.
        if (
            not isinstance(node, int)
            or isinstance(node, bool)
            or not 0 <= node < len(self._labels)
        ):
            raise AlignmentError(f"{node!r} is not a node of the combined graph")
        return node

    def side(self, node: NodeId) -> int:
        """Which version a combined node comes from (:data:`SOURCE`/:data:`TARGET`)."""
        return SOURCE if self._checked(node) < self._split else TARGET

    def original(self, node: NodeId) -> Hashable:
        """The node's identifier in its own version."""
        node_id = self._checked(node)
        if node_id < self._split:
            return self._terms[0][node_id]
        return self._terms[1][node_id - self._split]

    def sort_key(self, node: NodeId) -> str:
        """The text listings sort union ids by: ``repr((side, original))``.

        Ids follow the input's node order, so every order that reaches
        output is taken over this rendering instead.
        """
        return repr((self.side(node), self.original(node)))

    def from_source(self, node: Hashable) -> int:
        """Lift a source-version node identifier into the combined graph."""
        return self._lift(SOURCE, node)

    def from_target(self, node: Hashable) -> int:
        """Lift a target-version node identifier into the combined graph."""
        return self._lift(TARGET, node)

    def _lift(self, side: int, node: Hashable) -> int:
        lift = self._lifts[side - 1]
        if lift is None:
            base = 0 if side == SOURCE else self._split
            lift = self._lifts[side - 1] = {
                term: node_id
                for node_id, term in enumerate(self._terms[side - 1], base)
            }
        if type(node) is not bool:  # True == 1 would find a version's int node
            try:
                return lift[node]
            except (KeyError, TypeError):  # TypeError: unhashable
                pass
        raise AlignmentError(f"{node!r} is not a node of the {_SIDE_NAMES[side]} graph")


def combine(source: TripleGraph, target: TripleGraph) -> CombinedGraph:
    """Build the disjoint union ``source ⊎ target``."""
    return CombinedGraph(source, target)


def combine_many(graphs: Iterable[TripleGraph]) -> list[CombinedGraph]:
    """Combine consecutive versions pairwise: ``[G1⊎G2, G2⊎G3, ...]``."""
    versions = list(graphs)
    return [CombinedGraph(a, b) for a, b in zip(versions, versions[1:])]
