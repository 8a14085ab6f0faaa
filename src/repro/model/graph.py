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

Storage is columnar.  A node table numbers the nodes ``0 .. n-1`` in
insertion order (the *dense ids*), and ``E_G`` is three ``array('q')``
columns of dense ids, one entry per edge in insertion order.  Duplicate
edges collapse through a set of packed-int keys, and neither ints nor
arrays of ints give the cyclic GC anything to track per edge.  The
dict-of-sets views -- :meth:`~TripleGraph.out_index` and
:meth:`~TripleGraph.occurrence_index` -- are built from the columns on
first use and kept current by later edges; the dense engine never asks
for them and reads :meth:`~TripleGraph.csr`, one stable sort of the
columns by subject.
"""

from __future__ import annotations

from array import array
from copy import copy as shallow_copy
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Iterator, Mapping, TypeVar

from ..exceptions import GraphError
from .labels import Label, NodeKind, is_blank, is_literal, is_uri

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .csr import CSRGraph

#: Node identifiers may be any hashable value (ints for generated data,
#: strings or label objects for hand-built graphs).
NodeId = Hashable

#: An edge is a (subject, predicate, object) triple of node identifiers.
Edge = tuple[NodeId, NodeId, NodeId]

#: An outbound pair (predicate, object).
OutPair = tuple[NodeId, NodeId]

#: Typecode of every dense-id array: the edge columns and the CSR
#: buffers (signed 64-bit).
INDEX_TYPECODE = "q"

_EMPTY_OUT: frozenset[OutPair] = frozenset()

#: State a pickle and a copy leave out: each is rebuilt on first use.
_DERIVED = ("_keys", "_out", "_occurrences", "_csr")

_Graph = TypeVar("_Graph", bound="TripleGraph")


def _edge_key(subject: int, predicate: int, obj: int) -> int:
    """One int per edge of dense ids below ``2**32``: its dedup key."""
    return (subject << 32 | predicate) << 32 | obj


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

    The node table holds ``ℓ_G`` in insertion order plus node -> dense id
    and dense id -> node; the edges are three dense-id columns.  Three
    views are derived state.  The outbound index behind :meth:`out` and
    the reverse *occurrence index* of the incremental refinement variant
    are built on first use and then kept current by :meth:`add_edge`;
    the :meth:`csr` snapshot every dense kernel reads is dropped when
    the graph changes.
    """

    __slots__ = (
        "_labels", "_nodes", "_index", "_subjects", "_predicates", "_objects",
        "_keys", "_out", "_occurrences", "_csr",
    )

    def __init__(self) -> None:
        self._labels: dict[NodeId, Label] = {}
        self._nodes: list[NodeId] = []
        self._index: dict[NodeId, int] = {}
        self._subjects = array(INDEX_TYPECODE)
        self._predicates = array(INDEX_TYPECODE)
        self._objects = array(INDEX_TYPECODE)
        self._keys: set[int] | None = set()
        self._out: dict[NodeId, set[OutPair]] | None = None
        self._occurrences: dict[NodeId, set[NodeId]] | None = None
        self._csr: CSRGraph | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: NodeId, label: Label) -> NodeId:
        """Add *node* with *label*; re-adding with the same label is a no-op.

        The node's dense id is the number of nodes before it.  Raises
        :class:`GraphError` if the node exists with a different label (a
        node's label never changes).
        """
        existing = self._labels.get(node)
        if existing is None:
            self._labels[node] = label
            self._index[node] = len(self._nodes)
            self._nodes.append(node)
            self._csr = None
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
        index = self._index
        s, p, o = index.get(subject), index.get(predicate), index.get(obj)
        if s is None or p is None or o is None:
            role, node = next(
                (role, node)
                for role, node in (("subject", subject), ("predicate", predicate), ("object", obj))
                if node not in index
            )
            raise GraphError(f"{role} {node!r} of edge is not a node of the graph")
        self.add_edge_ids(s, p, o)

    def add_edge_ids(self, subject: int, predicate: int, obj: int) -> None:
        """Add the edge between the nodes with these dense ids.

        The form of :meth:`add_edge` for callers that hold dense ids (see
        :meth:`dense_id`), such as the N-Triples loader.  Raises
        :class:`GraphError` for an id outside the node table; a duplicate
        is a no-op.
        """
        count = len(self._nodes)
        if not (0 <= subject < count and 0 <= predicate < count and 0 <= obj < count):
            raise GraphError(
                f"edge ({subject}, {predicate}, {obj}) names a dense id "
                f"outside the {count} nodes of the graph"
            )
        keys = self._keys
        if keys is None:
            keys = self._edge_keys()
        key = (subject << 32 | predicate) << 32 | obj  # _edge_key, inlined
        if key in keys:
            return
        keys.add(key)
        self._subjects.append(subject)
        self._predicates.append(predicate)
        self._objects.append(obj)
        self._csr = None
        if self._out is not None or self._occurrences is not None:
            self._index_edge(subject, predicate, obj)

    def add_edges(self, edges: Iterable[Edge]) -> None:
        """Add many triples, in order, each with :meth:`add_edge`'s checks."""
        for subject, predicate, obj in edges:
            self.add_edge(subject, predicate, obj)

    def _index_edge(self, subject: int, predicate: int, obj: int) -> None:
        """Enter one new edge into the derived indexes already built."""
        nodes = self._nodes
        s, p, o = nodes[subject], nodes[predicate], nodes[obj]
        out = self._out
        if out is not None:
            pairs = out.get(s)
            if pairs is None:
                pairs = out[s] = set()
            pairs.add((p, o))
        occurrences = self._occurrences
        if occurrences is not None:
            occurrences.setdefault(p, set()).add(s)
            occurrences.setdefault(o, set()).add(s)

    def _edge_keys(self) -> set[int]:
        """The dedup keys of every edge (built from the columns when absent)."""
        keys = self._keys
        if keys is None:
            keys = self._keys = set(map(_edge_key, *self.edge_columns()))
        return keys

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
        return len(self._subjects)

    def nodes(self) -> Iterator[NodeId]:
        """Iterate over all node identifiers, in dense-id order."""
        return iter(self._nodes)

    def dense_id(self, node: NodeId) -> int:
        """*node*'s dense id, its position in :meth:`nodes` order."""
        try:
            return self._index[node]
        except KeyError:
            raise GraphError(f"unknown node {node!r}") from None

    def edges(self) -> Iterator[Edge]:
        """Iterate over all (subject, predicate, object) triples, in insertion order."""
        return zip(*self._node_columns())

    def _node_columns(self) -> tuple[Iterator[NodeId], Iterator[NodeId], Iterator[NodeId]]:
        """The edge columns read through the id -> node table."""
        node: Callable[[int], NodeId] = self._nodes.__getitem__
        subjects, predicates, objects = self.edge_columns()
        return map(node, subjects), map(node, predicates), map(node, objects)

    def edge_columns(self) -> tuple[array, array, array]:
        """The subject, predicate and object columns (treat as read-only).

        Entry ``i`` of each is a dense id of edge ``i``, in insertion
        order; bulk readers (the CSR sort, the union, edge counts) use
        them instead of term triples.
        """
        return self._subjects, self._predicates, self._objects

    def has_edge(self, subject: NodeId, predicate: NodeId, obj: NodeId) -> bool:
        index = self._index
        s, p, o = index.get(subject), index.get(predicate), index.get(obj)
        if s is None or p is None or o is None:
            return False
        return _edge_key(s, p, o) in self._edge_keys()

    def label(self, node: NodeId) -> Label:
        """Return ``ℓ_G(node)``."""
        try:
            return self._labels[node]
        except KeyError:
            raise GraphError(f"unknown node {node!r}") from None

    def labels(self) -> Mapping[NodeId, Label]:
        """A read-only view of the labeling function ``ℓ_G``, in dense-id order."""
        return self._labels

    def out(self, node: NodeId) -> frozenset[OutPair] | set[OutPair]:
        """The outbound neighborhood ``out_G(node)`` as a set of pairs."""
        if node not in self._labels:
            raise GraphError(f"unknown node {node!r}")
        out = self._out
        if out is None:
            out = self._build_out()
        return out.get(node, _EMPTY_OUT)

    def out_degree(self, node: NodeId) -> int:
        """``|out_G(node)|`` — the number of distinct (predicate, object) pairs."""
        return len(self.out(node))

    def out_index(self) -> Mapping[NodeId, set[OutPair]]:
        """The whole outbound index at once (treat as read-only).

        Built from the columns on first use, subjects in the order of
        their first edge; sinks are absent.  Bulk consumers (inbound-index
        construction, the reference engine) use this to avoid a per-node
        :meth:`out` call.
        """
        out = self._out
        return out if out is not None else self._build_out()

    def _build_out(self) -> dict[NodeId, set[OutPair]]:
        out: dict[NodeId, set[OutPair]] = {}
        subjects, predicates, objects = self._node_columns()
        for subject, pair in zip(subjects, zip(predicates, objects)):
            pairs = out.get(subject)
            if pairs is None:
                pairs = out[subject] = set()
            pairs.add(pair)
        self._out = out
        return out

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
            num_edges=self.num_edges,
            num_uris=uris,
            num_literals=literals,
            num_blanks=blanks,
        )

    # ------------------------------------------------------------------
    # Reverse occurrence index (for fixpoint maintenance)
    # ------------------------------------------------------------------
    def occurrences(self, node: NodeId) -> frozenset[NodeId]:
        """Nodes ``n`` whose outbound neighborhood mentions *node*.

        A node ``v`` occurs in ``out_G(n)`` if there is an edge
        ``(n, v, o)`` or ``(n, p, v)``.  When ``v``'s color changes during
        partition refinement, exactly the nodes returned here may need to be
        recolored — the step of fixpoint maintenance's predecessor closure.
        """
        return frozenset(self.occurrence_index().get(node, ()))

    def occurrence_index(self) -> Mapping[NodeId, set[NodeId]]:
        """The whole reverse index at once (treat as read-only).

        Bulk consumers (the maintenance closure BFS) call this once
        instead of paying a frozenset copy per :meth:`occurrences` query;
        nodes that occur in no neighborhood are absent.  Built from the
        columns on first use.
        """
        index = self._occurrences
        if index is None:
            index = self._occurrences = {}
            for subject, predicate, obj in zip(*self._node_columns()):
                index.setdefault(predicate, set()).add(subject)
                index.setdefault(obj, set()).add(subject)
        return index

    # ------------------------------------------------------------------
    # CSR snapshot (for the dense engine)
    # ------------------------------------------------------------------
    def csr(self) -> "CSRGraph":
        """This graph's :class:`~repro.model.csr.CSRGraph` snapshot.

        Built on first use and cached until the graph changes, so every
        dense kernel run over one graph reads one snapshot.  The snapshot
        lists the nodes in :meth:`nodes` order.
        """
        if self._csr is None:
            from .csr import CSRGraph  # csr imports this module

            self._csr = CSRGraph(self)
        return self._csr

    @property
    def has_csr(self) -> bool:
        """Whether the snapshot is built (reading this builds nothing)."""
        return self._csr is not None

    def install_csr(self, snapshot: "CSRGraph") -> None:
        """Use a prebuilt *snapshot* of this graph (a pickled store, an archive).

        The one way in for a snapshot built elsewhere.  Raises
        :class:`GraphError` unless *snapshot* lists this graph's nodes in
        this graph's order and holds one pair per edge: dense ids are
        positions in the node order, so any other block would hand each
        node another node's adjacency.
        """
        if snapshot.num_pairs != self.num_edges or snapshot.nodes != list(self._nodes):
            raise GraphError(
                "the CSR snapshot does not list this graph's nodes in the "
                "graph's order with one pair per edge"
            )
        self._csr = snapshot

    def __getstate__(self) -> tuple[dict[str, object] | None, dict[str, object]]:
        # A pickle carries the node table and the columns.  The indexes
        # are rebuilt on first use, and the snapshot may view a mapped
        # file (a pickled store carries its built blocks separately).
        slots = {
            name: getattr(self, name)
            for cls in type(self).__mro__
            for name in getattr(cls, "__slots__", ())
            if hasattr(self, name)
        }
        slots.update(dict.fromkeys(_DERIVED))
        return getattr(self, "__dict__", None), slots

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def copy(self: _Graph) -> _Graph:
        """An independent copy of this graph, of the same type.

        The node table and the columns are copied (labels and node
        identifiers are immutable); the indexes are rebuilt on first use.
        """
        clone = shallow_copy(self)  # through __getstate__
        for name in ("_labels", "_nodes", "_index", "_subjects", "_predicates", "_objects"):
            setattr(clone, name, shallow_copy(getattr(self, name)))
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
