"""Alignments of two graph versions (paper Section 3.1).

Given a partition ``λ`` of the combined graph ``G = G1 ⊎ G2``, the induced
alignment is ``Align(λ) = {(n, m) ∈ N1 × N2 | λ(n) = λ(m)}``.  Alignments
of this form are exactly the binary relations with the *crossover
property*: if ``(n, m)``, ``(n, m′)`` and ``(n′, m)`` are aligned then so
is ``(n′, m′)``.

A node of one version is *unaligned* when its class contains no node of
the other version; the progressive methods (Deblank → Hybrid → Overlap)
work on exactly those nodes.

:class:`PartitionAlignment` is built in one pass over the partition's
``(node, color)`` items:

* a node's side is read from its identifier — union ids are ints and
  every source id is below every target id (:mod:`repro.model.union`),
  so one comparison with ``graph.num_source_nodes`` gives the side and
  the pass probes no side set;
* the pass only counts, per color, the source and target members, which
  answers :meth:`~PartitionAlignment.matched_class_count`,
  :meth:`~PartitionAlignment.pair_count` and, with one more pass for
  both sides, the cached unaligned sets;
* reading the side from the id is sound only for partitions of exactly
  this graph, so the constructor refuses a partition whose size differs
  from the graph's node count (an O(1) :class:`AlignmentError` guard);
* the per-class :class:`ClassSides` are built lazily, on the first
  :meth:`~PartitionAlignment.class_sides` or
  :meth:`~PartitionAlignment.partners` call, and cached, so
  ``partners()`` is O(1) after its first call;
* :meth:`~PartitionAlignment.pairs` walks per-color member lists of the
  matched classes only;
* :meth:`~PartitionAlignment.sorted_pairs` lists the pairs in key order
  with no sort over pairs: by the crossover property ``Align(λ)`` is one
  biclique per matched class, so one sort puts each class's targets in a
  contiguous run and every source, in key order, emits its class's run.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, groupby, islice, repeat
from operator import eq
from typing import Any, Callable, Iterator

from ..exceptions import AlignmentError
from ..model.graph import NodeId
from ..model.union import SOURCE, TARGET, CombinedGraph
from .coloring import Partition
from .interner import Color


@dataclass(frozen=True, slots=True)
class ClassSides:
    """A partition class split into its source-side and target-side nodes."""

    source: frozenset[NodeId]
    target: frozenset[NodeId]

    @property
    def is_matched(self) -> bool:
        """Does the class witness an alignment (nodes on both sides)?"""
        return bool(self.source) and bool(self.target)


class PartitionAlignment:
    """The alignment ``Align(λ)`` of a combined graph's two versions.

    The full pair set can be quadratic in class sizes; this class therefore
    exposes counting and per-node queries in addition to (lazy) pair
    iteration.
    """

    __slots__ = (
        "_graph", "_partition", "_source_counts", "_target_counts",
        "_sides", "_unaligned",
    )

    def __init__(self, graph: CombinedGraph, partition: Partition) -> None:
        if len(partition) != graph.num_nodes:
            raise AlignmentError(
                f"partition colors {len(partition)} nodes but the combined "
                f"graph has {graph.num_nodes}"
            )
        self._graph = graph
        self._partition = partition
        split = graph.num_source_nodes
        source_counts: dict[Color, int] = {}
        target_counts: dict[Color, int] = {}
        for node, color in partition.items():
            counts = source_counts if node < split else target_counts
            counts[color] = counts.get(color, 0) + 1
        self._source_counts = source_counts
        self._target_counts = target_counts
        self._sides: dict[Color, ClassSides] | None = None
        self._unaligned: tuple[frozenset[NodeId], frozenset[NodeId]] | None = None

    # ------------------------------------------------------------------
    @property
    def graph(self) -> CombinedGraph:
        return self._graph

    @property
    def partition(self) -> Partition:
        return self._partition

    def _member_lists(
        self, matched_only: bool
    ) -> dict[Color, tuple[list[NodeId], list[NodeId]]]:
        """Per-color ``(source, target)`` members, in first-occurrence order.

        With *matched_only*, classes confined to one side are left out.
        """
        matched = (
            self._source_counts.keys() & self._target_counts.keys()
            if matched_only
            else None
        )
        split = self._graph.num_source_nodes
        members: dict[Color, tuple[list[NodeId], list[NodeId]]] = {}
        for node, color in self._partition.items():
            if matched is not None and color not in matched:
                continue
            lists = members.get(color)
            if lists is None:
                lists = members[color] = ([], [])
            lists[0 if node < split else 1].append(node)
        return members

    def _class_sides(self) -> dict[Color, ClassSides]:
        """The cached per-class side split (treat as read-only)."""
        if self._sides is None:
            self._sides = {
                color: ClassSides(source=frozenset(source), target=frozenset(target))
                for color, (source, target) in self._member_lists(False).items()
            }
        return self._sides

    def class_sides(self) -> dict[Color, ClassSides]:
        """Every class with its side split (a copy of the cached dict)."""
        return dict(self._class_sides())

    # -- membership ------------------------------------------------------
    def aligned(self, source_node: NodeId, target_node: NodeId) -> bool:
        """Is the pair (given as combined-graph ids) in ``Align(λ)``?"""
        return (
            self._graph.side(source_node) == SOURCE
            and self._graph.side(target_node) == TARGET
            and self._partition[source_node] == self._partition[target_node]
        )

    def partners(self, node: NodeId) -> frozenset[NodeId]:
        """All opposite-side nodes aligned with *node* (possibly empty)."""
        sides = self._class_sides()[self._partition[node]]
        if node < self._graph.num_source_nodes:  # type: ignore[operator]
            return sides.target
        return sides.source

    def pairs(self) -> Iterator[tuple[NodeId, NodeId]]:
        """Iterate over all aligned pairs (may be large for fat classes)."""
        for source, target in self._member_lists(True).values():
            for source_node in source:
                for target_node in target:
                    yield source_node, target_node

    def sorted_pairs(
        self, key: Callable[[NodeId], Any]
    ) -> Iterator[tuple[NodeId, NodeId]]:
        """Every aligned pair, ordered by ``(key(source), key(target))``.

        *key* is called once per matched node.  The matched targets are
        sorted once by ``(color, key)``, so each class's targets form one
        contiguous run, and the matched sources once by key; each source
        then emits its class's run.  Sources with equal keys (distinct ids
        may share a rendering, e.g. two ``float('nan')`` nodes) have their
        runs merged, so equal keys never break the order.  No container
        is built per pair or per class.
        """
        target_counts = self._target_counts
        matched_colors = self._source_counts.keys() & target_counts.keys()
        matched = {
            node: color
            for node, color in self._partition.items()
            if color in matched_colors
        }
        keys = {node: key(node) for node in matched}
        split = self._graph.num_source_nodes
        sources = [node for node in matched if node < split]
        targets = [node for node in matched if node >= split]
        sources.sort(key=keys.__getitem__)
        # Two stable sorts, by key and then by color, leave each class's
        # targets one run in key order.  Walking the runs backwards, the
        # last write per color is its run's first index.
        targets.sort(key=keys.__getitem__)
        targets.sort(key=matched.__getitem__)
        starts = dict(
            zip(map(matched.__getitem__, reversed(targets)),
                range(len(targets) - 1, -1, -1))
        )

        def emit(batch: list[NodeId]) -> Iterator[tuple[NodeId, NodeId]]:
            """Each source of *batch* paired with its class's run, in turn."""
            colors = [matched[source] for source in batch]
            counts = [target_counts[color] for color in colors]
            return zip(
                chain.from_iterable(
                    repeat(source, count) for source, count in zip(batch, counts)
                ),
                chain.from_iterable(
                    targets[starts[color]:starts[color] + count]
                    for color, count in zip(colors, counts)
                ),
            )

        source_keys = list(map(keys.__getitem__, sources))
        if not any(map(eq, source_keys, islice(source_keys, 1, None))):
            return emit(sources)
        # Some sources share a key: merge their runs by target key.
        return chain.from_iterable(
            sorted(emit(list(equal)), key=lambda pair: keys[pair[1]])
            for _, equal in groupby(sources, keys.__getitem__)
        )

    # -- counting ----------------------------------------------------------
    def pair_count(self) -> int:
        """``|Align(λ)|`` without materializing pairs."""
        target_counts = self._target_counts
        return sum(
            count * target_counts[color]
            for color, count in self._source_counts.items()
            if color in target_counts
        )

    def matched_class_count(self) -> int:
        """Number of classes containing nodes of both versions.

        This is the deduplicated "number of aligned nodes" of the paper's
        Figure 13: each matched class stands for one entity.
        """
        return len(self._source_counts.keys() & self._target_counts.keys())

    # -- unaligned nodes ----------------------------------------------------
    # The partition is immutable after __init__, so one pass finds both
    # sides' unaligned nodes and caches them; frozensets keep repeat
    # callers from mutating the cache.
    def unaligned_source(self) -> frozenset[NodeId]:
        """``Unaligned_1(λ)``: source nodes with no target partner."""
        return self._unaligned_sides()[0]

    def unaligned_target(self) -> frozenset[NodeId]:
        """``Unaligned_2(λ)``: target nodes with no source partner."""
        return self._unaligned_sides()[1]

    def _unaligned_sides(self) -> tuple[frozenset[NodeId], frozenset[NodeId]]:
        if self._unaligned is None:
            split = self._graph.num_source_nodes
            source_counts = self._source_counts
            target_counts = self._target_counts
            source: list[NodeId] = []
            target: list[NodeId] = []
            for node, color in self._partition.items():
                if node < split:
                    if color not in target_counts:
                        source.append(node)
                elif color not in source_counts:
                    target.append(node)
            self._unaligned = (frozenset(source), frozenset(target))
        return self._unaligned

    def unaligned(self) -> frozenset[NodeId]:
        """``Unaligned(λ) = Unaligned_1(λ) ∪ Unaligned_2(λ)``."""
        return self.unaligned_source() | self.unaligned_target()

    # -- properties ----------------------------------------------------------
    def has_crossover_property(self) -> bool:
        """Check the crossover property on the materialized pair set.

        Partition alignments always satisfy it (paper Section 3.1); the
        check runs on the actual pairs so tests exercise the theorem rather
        than the data structure.
        """
        return has_crossover_property(set(self.pairs()))

    def __repr__(self) -> str:
        matched = self.matched_class_count()
        classes = len(self._source_counts) + len(self._target_counts) - matched
        return f"<PartitionAlignment classes={classes} matched={matched}>"


def has_crossover_property(pairs: set[tuple[NodeId, NodeId]]) -> bool:
    """Does an arbitrary pair set satisfy the crossover property?

    ``(n, m), (n, m′), (n′, m) ∈ A ⇒ (n′, m′) ∈ A``.  Alignments induced by
    partitions always do; alignments induced by distance functions with a
    threshold (paper Section 4.1) need not.
    """
    partners_of_source: dict[NodeId, set[NodeId]] = {}
    partners_of_target: dict[NodeId, set[NodeId]] = {}
    for source_node, target_node in pairs:
        partners_of_source.setdefault(source_node, set()).add(target_node)
        partners_of_target.setdefault(target_node, set()).add(source_node)
    for source_node, target_node in pairs:
        for other_source in partners_of_target[target_node]:
            if partners_of_source[other_source] != partners_of_source[source_node]:
                # other_source shares target_node with source_node, so by
                # crossover they must share *all* partners.
                return False
    return True


def align(graph: CombinedGraph, partition: Partition) -> PartitionAlignment:
    """Build ``Align(λ)`` for *partition* over *graph*."""
    return PartitionAlignment(graph, partition)


def unaligned_nodes(graph: CombinedGraph, partition: Partition) -> set[NodeId]:
    """``Unaligned(λ)`` computed directly from a partition."""
    return PartitionAlignment(graph, partition).unaligned()


def unaligned_non_literals(graph: CombinedGraph, partition: Partition) -> set[NodeId]:
    """``UN(λ) = Unaligned(λ) \\ Literals(G)`` (paper equation (4))."""
    return {
        node
        for node in unaligned_nodes(graph, partition)
        if not graph.is_literal_node(node)
    }
