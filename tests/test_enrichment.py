"""Tests for enrichment (repro.similarity.enrichment) — paper Section 4.4."""

from __future__ import annotations

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import RDFGraph, combine, lit, uri
from repro.oplus import oplus
from repro.partition.coloring import Partition
from repro.partition.interner import ColorInterner
from repro.partition.weighted import zero_weighted
from repro.similarity.enrichment import (
    WeightedBipartiteGraph,
    component_weights,
    enrich,
    shortest_distances,
)


def bipartite(edges: dict) -> WeightedBipartiteGraph:
    return WeightedBipartiteGraph(edges)


def brute_force_weights(h: WeightedBipartiteGraph, component: frozenset) -> dict:
    """The oracle: a full Dijkstra from every member over all of H, capped
    at 1, then half the largest distance to the other side."""
    adjacency = h.adjacency()

    def capped_distances(start):
        distances = {start: 0.0}
        queue = [(0.0, 0, start)]
        counter = 0
        while queue:
            distance, __, node = heapq.heappop(queue)
            if distance > distances[node]:
                continue
            for neighbor, edge_distance in adjacency[node]:
                candidate = distance + edge_distance
                if candidate < distances.get(neighbor, float("inf")):
                    distances[neighbor] = candidate
                    counter += 1
                    heapq.heappush(queue, (candidate, counter, neighbor))
        return {node: min(d, 1.0) for node, d in distances.items()}

    sources = h.source_nodes & component
    targets = h.target_nodes & component
    weights = {}
    for source in sources:
        reachable = capped_distances(source)
        weights[source] = max(reachable.get(target, 1.0) for target in targets) / 2.0
    for target in targets:
        reachable = capped_distances(target)
        weights[target] = max(reachable.get(source, 1.0) for source in sources) / 2.0
    return weights


@st.composite
def close_pair_graphs(draw) -> WeightedBipartiteGraph:
    """1–12 nodes a side, up to 30 edges; some paths cross the ⊕ cap."""
    sources = draw(st.integers(1, 12))
    targets = draw(st.integers(1, 12))
    pair = st.tuples(
        st.integers(0, sources - 1).map(lambda i: f"a{i}"),
        st.integers(0, targets - 1).map(lambda i: f"b{i}"),
    )
    distance = st.one_of(
        st.just(0.0),
        st.just(1 / 3),
        st.floats(0.0, 0.7, exclude_max=True),
    )
    return bipartite(draw(st.dictionaries(pair, distance, min_size=1, max_size=30)))


class TestBipartiteGraph:
    def test_node_sets_from_edges(self):
        h = bipartite({("a1", "b1"): 0.2, ("a2", "b1"): 0.4})
        assert h.source_nodes == {"a1", "a2"}
        assert h.target_nodes == {"b1"}
        assert len(h) == 2 and not h.is_empty

    def test_empty(self):
        assert bipartite({}).is_empty

    def test_components_split_disconnected_pairs(self):
        h = bipartite({("a1", "b1"): 0.2, ("a2", "b2"): 0.4})
        components = h.components(repr)
        assert len(components) == 2
        assert frozenset({"a1", "b1"}) in components

    def test_components_merge_shared_nodes(self):
        h = bipartite({("a1", "b1"): 0.2, ("a2", "b1"): 0.4, ("a3", "b3"): 0.1})
        components = h.components(repr)
        assert len(components) == 2
        assert frozenset({"a1", "a2", "b1"}) in components

    def test_components_deterministic_order(self):
        h = bipartite({("a2", "b2"): 0.1, ("a1", "b1"): 0.1})
        assert h.components(repr) == h.components(repr)


class TestShortestDistances:
    def test_single_edge(self):
        h = bipartite({("a", "b"): 0.3})
        assert shortest_distances(h, "a")["b"] == pytest.approx(0.3)

    def test_path_through_shared_node(self):
        h = bipartite({("a1", "b"): 0.2, ("a2", "b"): 0.3})
        distances = shortest_distances(h, "a1")
        assert distances["a2"] == pytest.approx(0.5)

    def test_distances_capped_at_one(self):
        h = bipartite({("a1", "b1"): 0.9, ("a2", "b1"): 0.9})
        assert shortest_distances(h, "a1")["a2"] == 1.0

    def test_shortest_of_two_routes(self):
        h = bipartite(
            {("a1", "b1"): 0.1, ("a2", "b1"): 0.1, ("a1", "b2"): 0.9, ("a2", "b2"): 0.05}
        )
        # a1 -> b2 direct 0.9 vs a1-b1-a2-b2 = 0.25.
        assert shortest_distances(h, "a1")["b2"] == pytest.approx(0.25)


class TestComponentWeights:
    def test_half_of_max_distance(self):
        h = bipartite({("a", "b"): 0.4})
        weights = component_weights(h, frozenset({"a", "b"}))
        assert weights == {"a": pytest.approx(0.2), "b": pytest.approx(0.2)}

    def test_triangle_inequality_guarantee(self):
        h = bipartite({("a1", "b1"): 0.2, ("a2", "b1"): 0.6, ("a2", "b2"): 0.1})
        (component,) = h.components(repr)
        weights = component_weights(h, component)
        for (source, target), __ in h.edges.items():
            d_star = shortest_distances(h, source)[target]
            assert d_star <= oplus(weights[source], weights[target]) + 1e-9

    @settings(max_examples=300, deadline=None)
    @given(close_pair_graphs())
    def test_equals_brute_force_bit_for_bit(self, h):
        for component in h.components(repr):
            assert component_weights(h, component) == brute_force_weights(h, component)


class TestEnrich:
    def _setup(self):
        g1 = RDFGraph()
        g1.add(uri("s"), uri("p"), lit("old value"))
        g2 = RDFGraph()
        g2.add(uri("s"), uri("p"), lit("new value"))
        union = combine(g1, g2)
        interner = ColorInterner()
        colors = {node: interner.node_color(node) for node in union.nodes()}
        weighted = zero_weighted(Partition(colors))
        return union, interner, weighted

    def test_enrich_unifies_component_colors(self):
        union, interner, weighted = self._setup()
        a = union.from_source(lit("old value"))
        b = union.from_target(lit("new value"))
        h = bipartite({(a, b): 0.4})
        enriched = enrich(weighted, h, interner, generation=1, key=repr)
        assert enriched.color(a) == enriched.color(b)
        assert enriched.weight(a) == pytest.approx(0.2)
        assert enriched.distance(a, b) == pytest.approx(0.4)

    def test_enrich_untouched_nodes_keep_state(self):
        union, interner, weighted = self._setup()
        a = union.from_source(lit("old value"))
        b = union.from_target(lit("new value"))
        s = union.from_source(uri("s"))
        enriched = enrich(weighted, bipartite({(a, b): 0.4}), interner, generation=1, key=repr)
        assert enriched.color(s) == weighted.color(s)
        assert enriched.weight(s) == 0.0

    def test_enrich_empty_graph_is_identity(self):
        union, interner, weighted = self._setup()
        assert enrich(weighted, bipartite({}), interner, generation=1, key=repr) is weighted

    def test_generations_keep_colors_distinct(self):
        union, interner, weighted = self._setup()
        a = union.from_source(lit("old value"))
        b = union.from_target(lit("new value"))
        first = enrich(weighted, bipartite({(a, b): 0.4}), interner, generation=1, key=repr)
        second = enrich(weighted, bipartite({(a, b): 0.4}), interner, generation=2, key=repr)
        assert first.color(a) != second.color(a)

    def test_enrich_builds_the_adjacency_once(self, monkeypatch):
        build = WeightedBipartiteGraph.adjacency
        calls = []

        def counting(graph):
            calls.append(None)
            return build(graph)

        monkeypatch.setattr(WeightedBipartiteGraph, "adjacency", counting)
        # 300 disjoint pairs plus one 100-node path a0-b0-a1-b1-...-b49.
        edges = {(f"a{i}", f"b{i}"): 0.2 for i in range(1000, 1300)}
        for i in range(50):
            edges[(f"a{i}", f"b{i}")] = 0.01
            if i:
                edges[(f"a{i}", f"b{i - 1}")] = 0.01
        h = bipartite(edges)
        interner = ColorInterner()
        nodes = h.source_nodes | h.target_nodes
        weighted = zero_weighted(
            Partition({node: interner.node_color(node) for node in sorted(nodes)})
        )
        enriched = enrich(weighted, h, interner, generation=1, key=repr)
        assert len(calls) == 1
        assert enriched.weight("a1000") == pytest.approx(0.1)
        assert enriched.color("a0") == enriched.color("b49")
