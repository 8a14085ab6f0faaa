"""Weighted partitions (paper Section 4.3).

A weighted partition ``ξ = (λ, ω)`` attaches to every node a weight
``ω(n) ∈ [0, 1]`` interpreted as the node's distance from the *center* of
its cluster.  By the triangle inequality, the distance between two nodes
in the same cluster is then estimated as ``ω(n) ⊕ ω(m)`` (equation (5)),
and 1 across clusters.  The induced alignment keeps same-cluster pairs
whose estimate stays below a threshold ``θ``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from ..exceptions import PartitionError
from ..model.graph import NodeId
from ..model.union import CombinedGraph
from ..oplus import oplus
from .alignment import PartitionAlignment
from .coloring import Partition
from .interner import Color, ColorInterner


class WeightedPartition:
    """``ξ = (λ, ω)``: a partition plus a per-node weight function."""

    __slots__ = ("_partition", "_weights")

    def __init__(self, partition: Partition, weights: Mapping[NodeId, float]) -> None:
        self._partition = partition
        self._weights = dict(weights)
        missing = set(partition) - set(self._weights)
        if missing:
            raise PartitionError(
                f"weight function does not cover {len(missing)} nodes (e.g. "
                f"{next(iter(missing))!r})"
            )
        for node, weight in self._weights.items():
            if not 0.0 <= weight <= 1.0:
                raise PartitionError(f"weight of {node!r} is {weight}, outside [0, 1]")

    # ------------------------------------------------------------------
    @property
    def partition(self) -> Partition:
        """The underlying coloring ``λ``."""
        return self._partition

    def color(self, node: NodeId) -> Color:
        return self._partition[node]

    def weight(self, node: NodeId) -> float:
        """``ω(node)``."""
        try:
            return self._weights[node]
        except KeyError:
            raise PartitionError(f"no weight for node {node!r}") from None

    def weights(self) -> Mapping[NodeId, float]:
        return dict(self._weights)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._partition)

    def __len__(self) -> int:
        return len(self._partition)

    # -- the induced distance function (equation (5)) -----------------------
    def distance(self, first: NodeId, second: NodeId) -> float:
        """``σ_ξ``: ``ω(n) ⊕ ω(m)`` within a cluster, 1 across clusters."""
        if self._partition[first] != self._partition[second]:
            return 1.0
        return oplus(self._weights[first], self._weights[second])

    # -- derivation ----------------------------------------------------------
    def with_updates(
        self,
        color_updates: Mapping[NodeId, Color] | None = None,
        weight_updates: Mapping[NodeId, float] | None = None,
    ) -> "WeightedPartition":
        """A new weighted partition with some colors/weights replaced."""
        partition = (
            self._partition.with_colors(color_updates)
            if color_updates
            else self._partition
        )
        weights = dict(self._weights)
        if weight_updates:
            weights.update(weight_updates)
        return WeightedPartition(partition, weights)

    def blank_out(self, nodes: Iterable[NodeId], interner: ColorInterner) -> "WeightedPartition":
        """``Blank(ξ, X)``: neutral color and weight 0 for every node in X.

        (Paper equation (3) extended to weighted partitions in Section 4.5.)
        """
        node_list = list(nodes)
        blank = interner.blank_color()
        return self.with_updates(
            color_updates={node: blank for node in node_list},
            weight_updates={node: 0.0 for node in node_list},
        )

    def __repr__(self) -> str:
        return (
            f"<WeightedPartition nodes={len(self._partition)} "
            f"classes={self._partition.num_classes}>"
        )


def zero_weighted(partition: Partition) -> WeightedPartition:
    """``(λ, 0)``: the weighted partition with the constant-zero weights."""
    return WeightedPartition(partition, {node: 0.0 for node in partition})


def align_threshold(
    graph: CombinedGraph, weighted: WeightedPartition, theta: float
) -> set[tuple[NodeId, NodeId]]:
    """``Align_θ(ξ)``: same-cluster cross-version pairs with ``ω ⊕ ω < θ``."""
    alignment = PartitionAlignment(graph, weighted.partition)
    return {
        (source_node, target_node)
        for source_node, target_node in alignment.pairs()
        if oplus(weighted.weight(source_node), weighted.weight(target_node)) < theta
    }
