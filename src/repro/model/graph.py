"""Triple graphs: the paper's core data model (Definition 1).

A *triple graph* is ``G = (N_G, E_G, ℓ_G)`` where ``N_G`` is a finite set of
node identifiers, ``E_G ⊆ N_G × N_G × N_G`` is a set of node triples
(subject, predicate, object) and ``ℓ_G`` labels every node with a URI, a
literal or the blank label.  Crucially, node identifiers are *independent of
labels*: two versions of an RDF graph may use the same URI label on
different node identifiers, which is what makes a disjoint union of the two
versions well defined (see :mod:`repro.model.union`).

The bisimulation machinery views a triple ``(s, p, o)`` as an unlabeled edge
from ``s`` to the pair ``(p, o)``; therefore the central accessor is
:meth:`TripleGraph.out`, the outbound neighborhood
``out_G(n) = {(p, o) | (n, p, o) ∈ E_G}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping

from ..exceptions import GraphError
from .labels import BLANK, Label, NodeKind, is_blank, is_literal, is_uri

#: Node identifiers may be any hashable value (ints for generated data,
#: strings or label objects for hand-built graphs).
NodeId = Hashable

#: An edge is a (subject, predicate, object) triple of node identifiers.
Edge = tuple[NodeId, NodeId, NodeId]

#: An outbound pair (predicate, object).
OutPair = tuple[NodeId, NodeId]

_EMPTY_OUT: frozenset[OutPair] = frozenset()


@dataclass(frozen=True, slots=True)
class GraphStats:
    """Node/edge counts of a triple graph, split by node kind."""

    num_nodes: int
    num_edges: int
    num_uris: int
    num_literals: int
    num_blanks: int

    def as_dict(self) -> dict[str, int]:
        return {
            "nodes": self.num_nodes,
            "edges": self.num_edges,
            "uris": self.num_uris,
            "literals": self.num_literals,
            "blanks": self.num_blanks,
        }


class TripleGraph:
    """A mutable triple graph ``G = (N_G, E_G, ℓ_G)``.

    The graph maintains the outbound-neighborhood index incrementally so
    that :meth:`out` is O(1), which the partition-refinement algorithms rely
    on.  A reverse *occurrence index* (node → nodes whose out-pairs mention
    it) is built lazily for the incremental refinement variant.
    """

    __slots__ = ("_labels", "_edges", "_out", "_occurrences")

    def __init__(self) -> None:
        self._labels: dict[NodeId, Label] = {}
        self._edges: set[Edge] = set()
        self._out: dict[NodeId, set[OutPair]] = {}
        self._occurrences: dict[NodeId, set[NodeId]] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: NodeId, label: Label) -> NodeId:
        """Add *node* with *label*; re-adding with the same label is a no-op.

        Raises :class:`GraphError` if the node exists with a different label
        (a node's label never changes).
        """
        existing = self._labels.get(node)
        if existing is None:
            self._labels[node] = label
        elif existing != label:
            raise GraphError(
                f"node {node!r} already has label {existing!r}; cannot relabel to {label!r}"
            )
        return node

    def add_edge(self, subject: NodeId, predicate: NodeId, obj: NodeId) -> None:
        """Add the triple ``(subject, predicate, obj)``.

        All three nodes must already exist.  Adding a duplicate edge is a
        no-op (``E_G`` is a set).
        """
        for role, node in (("subject", subject), ("predicate", predicate), ("object", obj)):
            if node not in self._labels:
                raise GraphError(f"{role} {node!r} of edge is not a node of the graph")
        edge = (subject, predicate, obj)
        if edge not in self._edges:
            self._edges.add(edge)
            self._out.setdefault(subject, set()).add((predicate, obj))
            self._occurrences = None  # invalidate the lazy reverse index

    def add_edges(self, edges: Iterable[Edge]) -> None:
        """Add many triples at once, in order.

        The bulk form of :meth:`add_edge`, with its checks: every endpoint
        must already be a node, and a duplicate is a no-op.  Each new edge
        is stored as the tuple it arrived as.
        """
        labels = self._labels
        known = self._edges
        out = self._out
        self._occurrences = None  # invalidate the lazy reverse index
        for edge in edges:
            subject, predicate, obj = edge
            if subject not in labels or predicate not in labels or obj not in labels:
                self.add_edge(subject, predicate, obj)  # raises, naming the role
            size = len(known)
            known.add(edge)
            if len(known) == size:  # a duplicate; the size test hashes once
                continue
            pairs = out.get(subject)
            if pairs is None:
                pairs = out[subject] = set()
            pairs.add((predicate, obj))

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __contains__(self, node: NodeId) -> bool:
        return node in self._labels

    def __len__(self) -> int:
        return len(self._labels)

    @property
    def num_nodes(self) -> int:
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def nodes(self) -> Iterator[NodeId]:
        """Iterate over all node identifiers."""
        return iter(self._labels)

    def edges(self) -> Iterator[Edge]:
        """Iterate over all (subject, predicate, object) triples."""
        return iter(self._edges)

    def has_edge(self, subject: NodeId, predicate: NodeId, obj: NodeId) -> bool:
        return (subject, predicate, obj) in self._edges

    def label(self, node: NodeId) -> Label:
        """Return ``ℓ_G(node)``."""
        try:
            return self._labels[node]
        except KeyError:
            raise GraphError(f"unknown node {node!r}") from None

    def labels(self) -> Mapping[NodeId, Label]:
        """A read-only view of the labeling function ``ℓ_G``."""
        return self._labels

    def out(self, node: NodeId) -> frozenset[OutPair] | set[OutPair]:
        """The outbound neighborhood ``out_G(node)`` as a set of pairs."""
        if node not in self._labels:
            raise GraphError(f"unknown node {node!r}")
        return self._out.get(node, _EMPTY_OUT)

    def out_degree(self, node: NodeId) -> int:
        """``|out_G(node)|`` — the number of distinct (predicate, object) pairs."""
        return len(self.out(node))

    def out_index(self) -> Mapping[NodeId, set[OutPair]]:
        """The whole outbound index at once (treat as read-only).

        Bulk consumers (CSR compaction, inbound-index construction) use
        this to avoid a per-node :meth:`out` call; sinks may be absent.
        """
        return self._out

    # ------------------------------------------------------------------
    # Node subsets by kind (paper Section 2.1)
    # ------------------------------------------------------------------
    def kind(self, node: NodeId) -> NodeKind:
        return self.label(node).kind

    def uris(self) -> set[NodeId]:
        """``URIs(G)`` — nodes with a URI label."""
        return {n for n, lbl in self._labels.items() if is_uri(lbl)}

    def literals(self) -> set[NodeId]:
        """``Literals(G)`` — nodes with a literal label."""
        return {n for n, lbl in self._labels.items() if is_literal(lbl)}

    def blanks(self) -> set[NodeId]:
        """``Blanks(G)`` — nodes labeled with the blank label."""
        return {n for n, lbl in self._labels.items() if is_blank(lbl)}

    def is_literal_node(self, node: NodeId) -> bool:
        return is_literal(self.label(node))

    def is_blank_node(self, node: NodeId) -> bool:
        return is_blank(self.label(node))

    def is_uri_node(self, node: NodeId) -> bool:
        return is_uri(self.label(node))

    def stats(self) -> GraphStats:
        """Count nodes by kind (used by the dataset-statistics experiments)."""
        uris = literals = blanks = 0
        for lbl in self._labels.values():
            node_kind = lbl.kind
            if node_kind is NodeKind.URI:
                uris += 1
            elif node_kind is NodeKind.LITERAL:
                literals += 1
            else:
                blanks += 1
        return GraphStats(
            num_nodes=len(self._labels),
            num_edges=len(self._edges),
            num_uris=uris,
            num_literals=literals,
            num_blanks=blanks,
        )

    # ------------------------------------------------------------------
    # Reverse occurrence index (for incremental refinement)
    # ------------------------------------------------------------------
    def occurrences(self, node: NodeId) -> frozenset[NodeId]:
        """Nodes ``n`` whose outbound neighborhood mentions *node*.

        A node ``v`` occurs in ``out_G(n)`` if there is an edge
        ``(n, v, o)`` or ``(n, p, v)``.  When ``v``'s color changes during
        partition refinement, exactly the nodes returned here may need to be
        recolored — this is the worklist of the incremental algorithm.
        """
        return frozenset(self.occurrence_index().get(node, ()))

    def occurrence_index(self) -> Mapping[NodeId, set[NodeId]]:
        """The whole reverse index at once (treat as read-only).

        Bulk consumers (the maintenance closure BFS, the worklist loop of
        the incremental refinement) call this once instead of paying a
        frozenset copy per :meth:`occurrences` query; nodes that occur in
        no neighborhood are absent.
        """
        if self._occurrences is None:
            index: dict[NodeId, set[NodeId]] = {}
            for subject, predicate, obj in self._edges:
                index.setdefault(predicate, set()).add(subject)
                index.setdefault(obj, set()).add(subject)
            self._occurrences = index
        return self._occurrences

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def copy(self) -> "TripleGraph":
        """An independent deep-enough copy (labels/edges are immutable)."""
        clone = TripleGraph()
        clone._labels = dict(self._labels)
        clone._edges = set(self._edges)
        clone._out = {n: set(pairs) for n, pairs in self._out.items()}
        return clone

    def __repr__(self) -> str:
        return f"<{type(self).__name__} nodes={self.num_nodes} edges={self.num_edges}>"


def isomorphic_by_labels(first: TripleGraph, second: TripleGraph) -> bool:
    """Cheap label-level equality of two graphs.

    Returns ``True`` iff the multisets of node labels coincide and the edge
    sets coincide *after replacing non-blank nodes by their labels*.  Blank
    nodes are compared only by count, so this is a necessary (not
    sufficient) condition for isomorphism — sufficient whenever each graph
    is blank-free.  Used by I/O round-trip tests.
    """
    from collections import Counter

    if Counter(map(repr, first.labels().values())) != Counter(
        map(repr, second.labels().values())
    ):
        return False

    def edge_signature(graph: TripleGraph) -> Counter:
        def name(node: NodeId) -> str:
            lbl = graph.label(node)
            return "⊥" if is_blank(lbl) else repr(lbl)

        return Counter((name(s), name(p), name(o)) for s, p, o in graph.edges())

    return edge_signature(first) == edge_signature(second)
