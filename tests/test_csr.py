"""Unit tests for the CSR graph snapshot (repro.model.csr)."""

from __future__ import annotations

import pytest

from repro.exceptions import GraphError
from repro.model import RDFGraph, blank, lit, uri
from repro.model.csr import CSRGraph, csr_snapshot, subset_mask


@pytest.fixture
def small_graph() -> RDFGraph:
    g = RDFGraph()
    g.add(uri("a"), uri("p"), blank("b1"))
    g.add(uri("a"), uri("q"), lit("x"))
    g.add(blank("b1"), uri("p"), lit("x"))
    return g


class TestSnapshot:
    def test_node_indexing_roundtrip(self, small_graph):
        csr = csr_snapshot(small_graph)
        assert csr.num_nodes == small_graph.num_nodes
        for node in small_graph.nodes():
            assert csr.nodes[csr.dense_id(node)] == node

    def test_pair_arrays_cover_all_edges(self, small_graph):
        csr = CSRGraph(small_graph)
        assert csr.num_pairs == small_graph.num_edges
        assert len(csr.out_offsets) == csr.num_nodes + 1
        assert csr.out_offsets[-1] == csr.num_pairs
        rebuilt = set()
        for dense, node in enumerate(csr.nodes):
            start, end = csr.out_slice(dense)
            for position in range(start, end):
                rebuilt.add(
                    (
                        node,
                        csr.nodes[csr.out_predicates[position]],
                        csr.nodes[csr.out_objects[position]],
                    )
                )
        assert rebuilt == set(small_graph.edges())

    def test_out_degree_matches_graph(self, small_graph):
        csr = CSRGraph(small_graph)
        for node in small_graph.nodes():
            assert csr.out_degree(csr.dense_id(node)) == small_graph.out_degree(node)

    def test_unknown_node_raises(self, small_graph):
        csr = CSRGraph(small_graph)
        with pytest.raises(GraphError):
            csr.dense_id(uri("missing"))
        with pytest.raises(GraphError):
            csr.dense_ids([uri("a"), uri("missing")])

    def test_snapshot_is_frozen(self, small_graph):
        csr = CSRGraph(small_graph)
        small_graph.add(uri("late"), uri("p"), lit("y"))
        assert csr.num_nodes == small_graph.num_nodes - 2  # late uri + literal
        assert csr.num_pairs == small_graph.num_edges - 1


class TestColorsAndSubsets:
    def test_gather_colors_orders_by_dense_id(self, small_graph):
        csr = CSRGraph(small_graph)
        coloring = {node: i * 10 for i, node in enumerate(csr.nodes)}
        assert csr.gather_colors(coloring) == [i * 10 for i in range(csr.num_nodes)]

    def test_gather_colors_missing_node(self, small_graph):
        csr = CSRGraph(small_graph)
        with pytest.raises(GraphError):
            csr.gather_colors({})
        assert csr.gather_colors({}, default=7) == [7] * csr.num_nodes

    def test_subset_mask_full_and_partial(self, small_graph):
        csr = CSRGraph(small_graph)
        assert subset_mask(csr, None) == list(range(csr.num_nodes))
        blanks = subset_mask(csr, small_graph.blanks())
        assert blanks == sorted(csr.dense_id(n) for n in small_graph.blanks())

    def test_subgraph_pairs_full_subset_is_identity(self, small_graph):
        csr = CSRGraph(small_graph)
        offsets, predicates, objects = csr.subgraph_pairs(
            subset_mask(csr, None)
        )
        assert offsets is csr.out_offsets
        assert predicates is csr.out_predicates
        assert objects is csr.out_objects

    def test_subgraph_pairs_restricts_to_subjects(self, small_graph):
        csr = CSRGraph(small_graph)
        subset = subset_mask(csr, small_graph.blanks())
        offsets, predicates, objects = csr.subgraph_pairs(subset)
        assert len(offsets) == len(subset) + 1
        assert offsets[-1] == len(predicates) == len(objects)
        total = sum(csr.out_degree(dense) for dense in subset)
        assert offsets[-1] == total

    @pytest.mark.parametrize("order", ["reversed", "repeated"])
    def test_subgraph_pairs_other_full_length_subsets(self, small_graph, order):
        """Only ``0..n-1`` is the identity; any other subset of length n
        (permuted, or with duplicates) is restricted slot by slot."""
        csr = CSRGraph(small_graph)
        n = csr.num_nodes
        subset = list(reversed(range(n))) if order == "reversed" else [0] * n
        offsets, predicates, objects = csr.subgraph_pairs(subset)
        assert offsets is not csr.out_offsets
        assert len(offsets) == n + 1
        for k, dense in enumerate(subset):
            start, end = csr.out_slice(dense)
            mine = slice(offsets[k], offsets[k + 1])
            assert list(predicates[mine]) == list(csr.out_predicates[start:end])
            assert list(objects[mine]) == list(csr.out_objects[start:end])
