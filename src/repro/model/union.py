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
is exactly its dense id in :meth:`repro.model.csr.CSRGraph.from_blocks`,
which :meth:`CombinedGraph.csr` calls on the two versions' own snapshots.
The union is its labels plus its sides' edge columns, the target's with
every id offset by ``n1``: construction does no per-edge Python work,
:meth:`~CombinedGraph.edges` yields int triples straight from the
columns, and the dict index behind ``out()`` is built from them only
when the reference engine asks.  Partitions of the union are keyed by
these ints.  The id contract:

* :meth:`~CombinedGraph.side` reads a node's version from its id range;
* :meth:`~CombinedGraph.original` reads the node's identifier in its own
  version from a per-side term table (:meth:`~CombinedGraph.originals`
  lists both tables in id order);
* :meth:`~CombinedGraph.from_source` and :meth:`~CombinedGraph.from_target`
  are the only way from a version's identifier to a union id.

All four raise :class:`~repro.exceptions.AlignmentError` for anything
that is not a node of the union or of the version (bools, other types,
ids out of range).  Ids follow the input's node order, which is file
order for parsed graphs, so output that must not depend on file order
sorts on :meth:`~CombinedGraph.sort_key`, never on the id.  A union is
read-only: to change it, change a version and combine again.
"""

from __future__ import annotations

from array import array
from itertools import chain, islice
from typing import Hashable, Iterable, Iterator

from ..exceptions import AlignmentError, GraphError
from .csr import CSRGraph, IdentityIndex, concat_shifted
from .graph import Edge, NodeId, TripleGraph
from .labels import Label

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

    __slots__ = (
        "_source", "_target", "_split", "_edge_split", "_edge_count", "_assembled",
        "_terms", "_lifts", "_side_sets",
    )

    def __init__(self, source: TripleGraph, target: TripleGraph) -> None:
        super().__init__()
        self._source = source
        self._target = target
        #: Each side's node identifiers in id order: its term table.
        self._terms = (list(source.nodes()), list(target.nodes()))
        #: The first target id (``n1``); ids below it are source nodes.
        split = self._split = len(self._terms[0])
        count = split + len(self._terms[1])
        self._labels = dict(
            zip(range(count), chain(source.labels().values(), target.labels().values()))
        )
        # Ids are their own nodes: the id -> node table lists the label
        # keys, so the out-pair index and side sets built from it share
        # one int object per node, and node -> id is the identity.
        self._nodes = list(self._labels)
        self._index = IdentityIndex(count)  # type: ignore[assignment]
        #: The first target edge; edges below it are source edges.
        self._edge_split = _checked_edge_count(SOURCE, source, split)
        self._edge_count = self._edge_split + _checked_edge_count(TARGET, target, count - split)
        self._assembled = False  # the columns, see edge_columns
        self._keys = None  # built only if has_edge asks
        # Term -> id maps, built on the first from_source/from_target call:
        # most unions are never asked, and a map per side costs memory.
        self._lifts: list[dict[Hashable, int] | None] = [None, None]
        self._side_sets: list[frozenset[NodeId] | None] = [None, None]

    def add_node(self, node: NodeId, label: Label) -> NodeId:
        raise GraphError("a combined graph is read-only: change a version and combine again")

    def add_edge_ids(self, subject: int, predicate: int, obj: int) -> None:
        raise GraphError("a combined graph is read-only: change a version and combine again")

    @property
    def num_edges(self) -> int:
        return self._edge_count

    @property
    def num_source_edges(self) -> int:
        """``|E1|``: the first this many edges (and column entries) are source edges."""
        return self._edge_split

    def edge_columns(self) -> tuple[array, array, array]:
        """The source's columns, then the target's with every id offset by
        ``n1``; assembled on first use (the dense engine never asks)."""
        if not self._assembled:
            source_edges = self._edge_split
            target_edges = self._edge_count - source_edges
            self._subjects, self._predicates, self._objects = (
                concat_shifted(mine[:source_edges], theirs[:target_edges], self._split)
                for mine, theirs in zip(
                    self._source.edge_columns(), self._target.edge_columns()
                )
            )
            self._assembled = True
        return self._subjects, self._predicates, self._objects

    def edges(self) -> Iterator[Edge]:
        """The int triples, straight from the columns (source edges first)."""
        return zip(*self.edge_columns())

    def csr(self) -> CSRGraph:
        """The union's snapshot, assembled once from its sides' snapshots.

        Each version graph builds (or was given) its own block once, and
        every union over it reuses that block.  Raises :class:`GraphError`
        when a version changed after the union was built, since its block
        then describes nodes and edges the union does not have.
        """
        if self._csr is None:
            snapshot = CSRGraph.from_blocks(self._source.csr(), self._target.csr())
            if (
                snapshot.num_nodes != len(self._labels)
                or snapshot.num_pairs != self.num_edges
            ):
                raise GraphError(
                    "a version graph changed after the union was built; "
                    "combine the versions again"
                )
            self._csr = snapshot
        return self._csr

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
            start, stop = (0, self._split) if side == SOURCE else (self._split, None)
            nodes = self._side_sets[side - 1] = frozenset(islice(self._nodes, start, stop))
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

    def originals(self) -> Iterator[Hashable]:
        """Every node's identifier in its own version, in union-id order.

        The bulk form of :meth:`original` for a renderer that visits every
        node: the two term tables one after the other, with no per-node
        check.
        """
        return chain(*self._terms)

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


def _checked_edge_count(side: int, version: TripleGraph, count: int) -> int:
    """*version*'s edge count, once its columns are checked against its
    *count* nodes: an id outside ``0 .. count-1`` would name a node of
    the other side, or none, once offset into the union."""
    columns = version.edge_columns()
    for column in columns:
        if column and not (min(column) >= 0 and max(column) < count):
            raise GraphError(
                f"an edge of the {_SIDE_NAMES[side]} graph names a dense id "
                f"outside its {count} nodes"
            )
    return len(columns[0])


def combine(source: TripleGraph, target: TripleGraph) -> CombinedGraph:
    """Build the disjoint union ``source ⊎ target``."""
    return CombinedGraph(source, target)


def combine_many(graphs: Iterable[TripleGraph]) -> list[CombinedGraph]:
    """Combine consecutive versions pairwise: ``[G1⊎G2, G2⊎G3, ...]``."""
    versions = list(graphs)
    return [CombinedGraph(a, b) for a, b in zip(versions, versions[1:])]
