"""Compressed-sparse-row view of a triple graph (dense-engine substrate).

The reference refinement engine walks ``TripleGraph``'s per-node hash sets;
every recolor step pays Python dict/set overhead per out-pair.  Following
the flat-array representations of the large-graph bisimulation literature
(Schätzle et al. [16]; Rau et al., *Computing k-Bisimulations for Large
Graphs*; the I/O-efficient line of Hellings et al.), :class:`CSRGraph`
groups a graph's dense-id edge columns by subject, in one stable counting
sort (standard library only), into contiguous adjacency arrays:

* ``nodes[i]`` — the original node identifier of dense id ``i``,
* ``out_offsets[i] : out_offsets[i+1]`` — the slice of ``out_predicates``
  / ``out_objects`` holding node ``i``'s outbound ``(p, o)`` pairs, both
  stored as dense node ids.

The per-round work of the dense engine (:mod:`repro.core.dense`) then
reduces to array indexing over these buffers — no hashing of node
identifiers, no per-node set objects.  The sort is stable, so each node's
pairs keep the graph's insertion order (file order for a parsed graph):
the engines' results must not, and do not, depend on that order.

A snapshot is derived state of the graph it describes:
:meth:`TripleGraph.csr() <repro.model.graph.TripleGraph.csr>` builds it
once and caches it until the graph changes, and a union's
:meth:`~repro.model.union.CombinedGraph.csr` is assembled from its two
sides' snapshots by :meth:`CSRGraph.from_blocks`.  A pool worker reads
the blocks of the store it was handed: a ``fork`` worker inherits them,
and a ``spawn`` worker gets them in the store's pickle, re-assembled by
:meth:`CSRGraph.from_parts` and installed on their graphs.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import accumulate, repeat
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from ..exceptions import GraphError, PartitionError
from .graph import INDEX_TYPECODE, NodeId, TripleGraph


class CSRGraph:
    """An immutable CSR snapshot of a :class:`~repro.model.graph.TripleGraph`.

    Construction is one O(|N| + |E|) pass over the graph's edge columns;
    the snapshot does not follow later mutations of the source graph
    (read it through the graph's
    :meth:`~repro.model.graph.TripleGraph.csr`, which drops a snapshot
    the graph has outgrown).
    """

    __slots__ = ("nodes", "index", "out_offsets", "out_predicates", "out_objects")

    def __init__(self, graph: TripleGraph) -> None:
        #: Dense id -> original node identifier (graph iteration order).
        self.nodes: Sequence[NodeId] = list(graph.nodes())
        count = len(self.nodes)
        #: Original node identifier -> dense id.
        self.index: Mapping[NodeId, int] = dict(zip(self.nodes, range(count)))
        # One stable counting sort of the edge columns by subject, so each
        # node's pairs keep the graph's insertion order.
        subjects, predicates, objects = graph.edge_columns()
        degrees = Counter(subjects)
        offsets = array(
            INDEX_TYPECODE, accumulate(map(degrees.get, range(count), repeat(0)), initial=0)
        )
        cursor = offsets.tolist()
        width = len(subjects) * offsets.itemsize
        sorted_predicates = array(INDEX_TYPECODE, bytes(width))
        sorted_objects = array(INDEX_TYPECODE, bytes(width))
        for subject, predicate, obj in zip(subjects, predicates, objects):
            slot = cursor[subject]
            cursor[subject] = slot + 1
            sorted_predicates[slot] = predicate
            sorted_objects[slot] = obj
        #: ``out_offsets[i]:out_offsets[i+1]`` slices the pair arrays.
        self.out_offsets: array = offsets
        #: Dense predicate ids of every out-pair, grouped by subject.
        self.out_predicates: array = sorted_predicates
        #: Dense object ids of every out-pair, grouped by subject.
        self.out_objects: array = sorted_objects

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_pairs(self) -> int:
        """Total number of stored (subject, predicate, object) pairs."""
        return len(self.out_predicates)

    def dense_id(self, node: NodeId) -> int:
        """The dense id of *node* (raises :class:`GraphError` if unknown)."""
        try:
            return self.index[node]
        except KeyError:
            raise GraphError(f"node {node!r} is not in the CSR snapshot") from None

    def dense_ids(self, nodes: Iterable[NodeId]) -> list[int]:
        """Dense ids of *nodes*, in iteration order."""
        index = self.index
        try:
            return [index[node] for node in nodes]
        except KeyError as exc:
            raise GraphError(
                f"node {exc.args[0]!r} is not in the CSR snapshot"
            ) from None

    def out_slice(self, dense: int) -> tuple[int, int]:
        """The ``[start, end)`` slice of the pair arrays for dense id *dense*."""
        return self.out_offsets[dense], self.out_offsets[dense + 1]

    def out_degree(self, dense: int) -> int:
        return self.out_offsets[dense + 1] - self.out_offsets[dense]

    # ------------------------------------------------------------------
    def gather_colors(
        self, colors: Mapping[NodeId, int], default: int | None = None
    ) -> list[int]:
        """Colors of every node in dense-id order.

        *colors* may be any mapping from original node id to int.  When a
        node is missing, *default* is used if given, otherwise a
        :class:`GraphError` is raised.
        """
        out: list[int] = []
        # A plain dict misses with KeyError, a Partition with PartitionError.
        for node in self.nodes:
            try:
                out.append(colors[node])
            except (LookupError, PartitionError):
                if default is None:
                    raise GraphError(
                        f"coloring does not cover node {node!r}"
                    ) from None
                out.append(default)
        return out

    def subgraph_pairs(
        self, dense_subset: Sequence[int]
    ) -> tuple[array, array, array]:
        """Restrict the pair arrays to the given subjects.

        Returns ``(offsets, predicates, objects)`` where ``offsets`` has
        ``len(dense_subset) + 1`` entries and ``offsets[k]:offsets[k+1]``
        slices the pairs of ``dense_subset[k]``.  Used by the dense engine
        to touch only the refined subset's edges each round.
        """
        num_nodes = self.num_nodes
        if len(dense_subset) == num_nodes and list(dense_subset) == list(range(num_nodes)):
            # Only the in-order full subset is the identity restriction.
            return self.out_offsets, self.out_predicates, self.out_objects
        offsets = array(INDEX_TYPECODE, [0])
        predicates = array(INDEX_TYPECODE)
        objects = array(INDEX_TYPECODE)
        all_offsets = self.out_offsets
        total = 0
        for dense in dense_subset:
            start, end = all_offsets[dense], all_offsets[dense + 1]
            predicates.extend(self.out_predicates[start:end])
            objects.extend(self.out_objects[start:end])
            total += end - start
            offsets.append(total)
        return offsets, predicates, objects

    def __repr__(self) -> str:
        return f"<CSRGraph nodes={self.num_nodes} pairs={self.num_pairs}>"

    # ------------------------------------------------------------------
    # Assembly from pre-built parts (a pickled store, disk persistence)
    # ------------------------------------------------------------------
    @classmethod
    def from_parts(
        cls,
        nodes: Sequence[NodeId],
        out_offsets: Sequence[int],
        out_predicates: Sequence[int],
        out_objects: Sequence[int],
    ) -> "CSRGraph":
        """Assemble a snapshot from its four buffers without re-walking.

        The index buffers may be ``array('q')`` instances or any int64
        sequence supporting the buffer protocol (read-only memmaps of a
        persisted store); the engines consume them through
        ``frombuffer``/indexing either way.  ``index`` is rebuilt — it is
        derived state, never serialized.
        """
        snapshot = cls.__new__(cls)
        snapshot.nodes = list(nodes)
        snapshot.index = {node: i for i, node in enumerate(snapshot.nodes)}
        snapshot.out_offsets = out_offsets
        snapshot.out_predicates = out_predicates
        snapshot.out_objects = out_objects
        return snapshot

    # ------------------------------------------------------------------
    @classmethod
    def from_blocks(cls, source: "CSRGraph", target: "CSRGraph") -> "CSRGraph":
        """Assemble the union snapshot from two per-version blocks.

        Given CSR snapshots of the two *plain* version graphs, build the
        snapshot of their disjoint union ``CombinedGraph(source, target)``
        without re-walking either graph: the union numbers "all source
        nodes, then all target nodes", so its node ids are the dense ids
        ``0 .. n1+n2-1`` and the adjacency arrays are the source block
        followed by the target block with every dense id offset by
        ``source.num_nodes``.

        :meth:`CombinedGraph.csr() <repro.model.union.CombinedGraph.csr>`
        calls this once per union, so each version's block is built once
        and shared by every pair touching it.  The blocks are read through
        the buffer protocol (``array('q')``, read-only memmaps) with the
        standard library alone: the reference engine's k-signature runs
        read this snapshot too.  Its node table and index are the identity
        on ``range(n1 + n2)``.
        """
        snapshot = cls.__new__(cls)
        offset = source.num_nodes
        count = offset + target.num_nodes
        snapshot.nodes = range(count)
        snapshot.index = IdentityIndex(count)
        pairs = int(source.out_offsets[-1])  # a NumPy view yields numpy ints
        snapshot.out_offsets = concat_shifted(
            source.out_offsets, _int64s(target.out_offsets)[1:], pairs
        )
        snapshot.out_predicates = concat_shifted(
            source.out_predicates, _int64s(target.out_predicates), offset
        )
        snapshot.out_objects = concat_shifted(
            source.out_objects, _int64s(target.out_objects), offset
        )
        return snapshot


class IdentityIndex(Mapping[int, int]):
    """Each id of ``0 .. size-1`` to itself: the node -> dense id map of a
    union and of its snapshot, whose ids are their own nodes.  Anything
    else is missing, so :meth:`CSRGraph.dense_id` refuses it."""

    def __init__(self, size: int) -> None:
        self._ids = range(size)

    def __getitem__(self, node: int) -> int:
        if type(node) is int and node in self._ids:
            return node
        raise KeyError(node)

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids)

    def __len__(self) -> int:
        return len(self._ids)


def _int64s(buffer: array) -> memoryview:
    """*buffer*'s items as a flat int64 memoryview (Python ints on read)."""
    return memoryview(buffer).cast("B").cast(INDEX_TYPECODE)


def concat_shifted(first: array, second: Iterable[int], offset: int) -> array:
    """``first + (second + offset)`` as one ``array('q')``."""
    out = array(INDEX_TYPECODE)
    out.frombytes(memoryview(first).cast("B"))
    out.extend([item + offset for item in second])
    return out


def subset_mask(csr: CSRGraph, subset: Collection[NodeId] | None) -> list[int]:
    """Dense ids of *subset* (all nodes when ``None``), in dense order.

    Dense order makes the engine's per-round iteration cache-friendly and
    its output independent of the caller's subset iteration order.
    """
    if subset is None:
        return list(range(csr.num_nodes))
    members = set(csr.dense_ids(subset))
    return sorted(members)
