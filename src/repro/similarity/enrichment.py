"""Enrichment of weighted partitions with close pairs (paper Section 4.4).

Newly discovered pairs of close nodes arrive as a weighted bipartite graph
``H = (A, B, M, d)`` with ``A``/``B`` unaligned source/target nodes and
``d`` the distance on the matched pairs.  ``Enrich(ξ, H)``

1. decomposes ``H`` into connected components,
2. gives every component a fresh color — its members now form one cluster,
3. assigns every source member half of the maximum ``⊕``-shortest-path
   distance to any target member of its component (and symmetrically),
   which guarantees ``d*(a, b) ≤ w(a) ⊕ w(b)`` for all matched pairs.

Components are not tiny in general: on a scale-free version pair the
largest can hold hundreds of nodes, and step 3 searches from every
member.  So Enrich costs one pass over ``H`` — the adjacency and the node
sets are built once per graph and cached on it — plus one bounded
Dijkstra per member over component-local ids.  A search stops at its
first pop at distance ≥ 1: ``⊕`` caps at 1, so every member not yet
settled is at capped distance 1 and the weight is 1/2.  It also stops
once it has settled every member of the other side; Dijkstra settles in
nondecreasing order, so the last one settled is the farthest.  Float
addition is monotone, so every distance settled below 1 is the same
float a full search computes, whatever the order of ties.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping

from ..model.graph import NodeId
from ..partition.interner import ColorInterner
from ..partition.weighted import WeightedPartition


@dataclass(frozen=True)
class WeightedBipartiteGraph:
    """``H = (A, B, M, d)``: matched pairs with their distances.

    Built from the edge map alone, so no node is ever isolated (the paper
    assumes isolated nodes are removed from consideration).  The edge map
    must not change after construction: the node sets and the adjacency
    are computed on first use and cached.
    """

    edges: Mapping[tuple[NodeId, NodeId], float] = field(default_factory=dict)

    @cached_property
    def source_nodes(self) -> frozenset[NodeId]:
        """``A`` — the matched source-side nodes."""
        return frozenset(pair[0] for pair in self.edges)

    @cached_property
    def target_nodes(self) -> frozenset[NodeId]:
        """``B`` — the matched target-side nodes."""
        return frozenset(pair[1] for pair in self.edges)

    @property
    def is_empty(self) -> bool:
        return not self.edges

    def __len__(self) -> int:
        return len(self.edges)

    def adjacency(self) -> dict[NodeId, list[tuple[NodeId, float]]]:
        """Undirected adjacency with edge distances (a fresh copy)."""
        adjacency: dict[NodeId, list[tuple[NodeId, float]]] = {}
        for (source, target), distance in self.edges.items():
            adjacency.setdefault(source, []).append((target, distance))
            adjacency.setdefault(target, []).append((source, distance))
        return adjacency

    @cached_property
    def _neighbors(self) -> dict[NodeId, list[tuple[NodeId, float]]]:
        """The :meth:`adjacency` every search of this graph reads."""
        return self.adjacency()

    def components(self, key: Callable[[NodeId], str]) -> list[frozenset[NodeId]]:
        """Maximal connected components, ordered by their least *key*.

        Over a combined graph pass its ``sort_key``: union ids follow
        input order, their rendering does not.  There is no default, so
        no caller falls back to an order the ids leak into.
        """
        adjacency = self._neighbors
        seen: set[NodeId] = set()
        components: list[frozenset[NodeId]] = []
        for start in adjacency:
            if start in seen:
                continue
            stack = [start]
            component: set[NodeId] = set()
            while stack:
                node = stack.pop()
                if node in component:
                    continue
                component.add(node)
                stack.extend(
                    neighbor for neighbor, __ in adjacency[node]
                    if neighbor not in component
                )
            seen.update(component)
            components.append(frozenset(component))
        components.sort(key=lambda c: min(key(node) for node in c))
        return components


def shortest_distances(
    graph: WeightedBipartiteGraph, start: NodeId
) -> dict[NodeId, float]:
    """``d*(start, ·)``: ⊕-shortest-path distances within *start*'s component.

    ``⊕`` is capped addition, and capping is monotone, so the minimum capped
    path length equals the capped minimum plain path length — Dijkstra with
    plain sums followed by a cap at 1 is exact.
    """
    adjacency = graph._neighbors
    distances: dict[NodeId, float] = {start: 0.0}
    queue: list[tuple[float, int, NodeId]] = [(0.0, 0, start)]
    counter = 0
    while queue:
        distance, __, node = heapq.heappop(queue)
        if distance > distances.get(node, float("inf")):
            continue
        for neighbor, edge_distance in adjacency.get(node, ()):
            candidate = distance + edge_distance
            if candidate < distances.get(neighbor, float("inf")):
                distances[neighbor] = candidate
                counter += 1
                heapq.heappush(queue, (candidate, counter, neighbor))
    return {node: min(d, 1.0) for node, d in distances.items()}


def _farthest(
    neighbors: list[list[tuple[int, float]]],
    opposite: list[bool],
    count: int,
    start: int,
) -> float:
    """Capped ``d*`` from *start* to the farthest of the *count* ``opposite``
    members, by a Dijkstra over local ids that stops as soon as it is known.
    """
    distances = [float("inf")] * len(neighbors)
    distances[start] = 0.0
    queue = [(0.0, start)]
    while queue:
        distance, node = heapq.heappop(queue)
        if distance >= 1.0:
            return 1.0
        if distance > distances[node]:
            continue
        if opposite[node]:
            count -= 1
            if not count:
                return distance
        for neighbor, edge_distance in neighbors[node]:
            candidate = distance + edge_distance
            if candidate < distances[neighbor]:
                distances[neighbor] = candidate
                heapq.heappush(queue, (candidate, neighbor))
    return 1.0


def component_weights(
    graph: WeightedBipartiteGraph, component: frozenset[NodeId]
) -> dict[NodeId, float]:
    """The paper's weight assignment for one component of ``graph.components(key)``.

    Every source node gets half its maximum ``d*`` distance to a target
    node of the component, and vice versa; then for any matched pair,
    ``d*(a, b) ≤ w(a) ⊕ w(b)`` because each side contributes at least
    ``d*(a, b) / 2``.
    """
    members = list(component)
    local = {node: index for index, node in enumerate(members)}
    adjacency = graph._neighbors
    neighbors = [
        [(local[neighbor], distance) for neighbor, distance in adjacency[node]]
        for node in members
    ]
    is_source = [node in graph.source_nodes for node in members]
    is_target = [node in graph.target_nodes for node in members]
    source_count = sum(is_source)
    target_count = sum(is_target)
    weights: dict[NodeId, float] = {}
    for index, node in enumerate(members):
        if is_target[index]:
            farthest = _farthest(neighbors, is_source, source_count, index)
        else:
            farthest = _farthest(neighbors, is_target, target_count, index)
        weights[node] = farthest / 2.0
    return weights


def enrich(
    weighted: WeightedPartition,
    close_pairs: WeightedBipartiteGraph,
    interner: ColorInterner,
    generation: int = 0,
    *,
    key: Callable[[NodeId], str],
) -> WeightedPartition:
    """``Enrich(ξ, H)``: fold the matched components into the partition.

    *generation* keeps component colors from different enrichment rounds
    distinct (Algorithm 2 calls this once per iteration).  *key* orders
    the components, and so their colors (see
    :meth:`WeightedBipartiteGraph.components`).
    """
    if close_pairs.is_empty:
        return weighted
    color_updates: dict[NodeId, int] = {}
    weight_updates: dict[NodeId, float] = {}
    for index, component in enumerate(close_pairs.components(key)):
        color = interner.component_color(generation, index)
        for node in component:
            color_updates[node] = color
        weight_updates.update(component_weights(close_pairs, component))
    return weighted.with_updates(color_updates, weight_updates)
