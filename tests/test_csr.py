"""Unit tests for the CSR graph snapshot (repro.model.csr)."""

from __future__ import annotations

import pytest

from repro.exceptions import GraphError
from repro.model import RDFGraph, blank, combine, lit, uri
from repro.model.csr import CSRGraph, subset_mask


@pytest.fixture
def small_graph() -> RDFGraph:
    g = RDFGraph()
    g.add(uri("a"), uri("p"), blank("b1"))
    g.add(uri("a"), uri("q"), lit("x"))
    g.add(blank("b1"), uri("p"), lit("x"))
    return g


class TestSnapshot:
    def test_node_indexing_roundtrip(self, small_graph):
        csr = small_graph.csr()
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


def _arrays(csr: CSRGraph) -> tuple[list[int], list[int], list[int]]:
    return (
        list(csr.out_offsets), list(csr.out_predicates), list(csr.out_objects)
    )


class TestGraphOwnsSnapshot:
    def test_snapshot_is_cached_until_the_graph_grows(self, small_graph):
        csr = small_graph.csr()
        assert small_graph.csr() is csr
        small_graph.add_node(uri("lone"), uri("lone"))
        grown = small_graph.csr()
        assert grown is not csr and grown.num_nodes == csr.num_nodes + 1
        small_graph.add_edge(uri("lone"), uri("p"), lit("x"))
        assert small_graph.csr().num_pairs == csr.num_pairs + 1
        small_graph.add_edges([(uri("lone"), uri("q"), lit("x"))])
        assert small_graph.csr().num_pairs == csr.num_pairs + 2
        # Re-adding what the graph has changes nothing, so keeps the block.
        kept = small_graph.csr()
        small_graph.add_node(uri("lone"), uri("lone"))
        small_graph.add_edge(uri("lone"), uri("p"), lit("x"))
        assert small_graph.csr() is kept

    def test_install_refuses_a_block_in_another_node_order(self, small_graph):
        block = CSRGraph(small_graph)
        reordered = CSRGraph.from_parts(
            block.nodes[::-1], block.out_offsets, block.out_predicates,
            block.out_objects,
        )
        with pytest.raises(GraphError, match="graph's order"):
            small_graph.install_csr(reordered)
        small_graph.add(uri("late"), uri("p"), lit("y"))
        with pytest.raises(GraphError):  # a block the graph has outgrown
            small_graph.install_csr(block)
        assert not small_graph.has_csr
        fresh = CSRGraph(small_graph)
        small_graph.install_csr(fresh)
        assert small_graph.csr() is fresh

    def test_union_snapshot_is_assembled_from_its_sides(self, small_graph):
        other = RDFGraph()
        other.add(uri("a"), uri("p"), lit("z"))
        union = combine(small_graph, other)
        csr = union.csr()
        assert small_graph.has_csr and other.has_csr
        assert union.csr() is csr
        assembled = CSRGraph.from_blocks(small_graph.csr(), other.csr())
        assert list(csr.nodes) == list(union.nodes())
        assert _arrays(csr) == _arrays(assembled)

    def test_union_snapshot_tables_are_the_identity(self, small_graph):
        """Union ids are dense ids: the snapshot answers ``nodes[i]`` and
        ``index[i]`` without a list or dict per node, and still refuses
        anything that is not one of its ids."""
        other = RDFGraph()
        other.add(uri("a"), uri("p"), lit("z"))
        union = combine(small_graph, other)
        csr = union.csr()
        n = union.num_nodes
        assert csr.nodes == range(n) and csr.num_nodes == n
        assert not isinstance(csr.index, dict) and len(csr.index) == n
        assert list(csr.index.items()) == [(i, i) for i in range(n)]
        assert csr.dense_ids(reversed(range(n))) == list(reversed(range(n)))
        assert subset_mask(csr, {n - 1, 0}) == [0, n - 1]
        for bad in (True, -1, n, "x", 1.0, uri("a")):
            assert bad not in csr.index
            with pytest.raises(GraphError):
                csr.dense_id(bad)
            with pytest.raises(GraphError):
                csr.dense_ids([0, bad])

    def test_union_refuses_a_side_that_grew(self, small_graph):
        union = combine(small_graph, RDFGraph())
        small_graph.add(uri("late"), uri("p"), lit("y"))
        with pytest.raises(GraphError, match="changed after the union"):
            union.csr()

    def test_from_blocks_reads_buffer_views(self, small_graph):
        """Blocks attached from shared memory or an archive are NumPy
        views; the stdlib assembly reads them like ``array('q')``."""
        numpy = pytest.importorskip("numpy")
        other = RDFGraph()
        other.add(uri("a"), uri("p"), lit("z"))
        other.add(blank("c"), uri("q"), uri("a"))

        def viewed(block: CSRGraph) -> CSRGraph:
            parts = []
            for buffer in (block.out_offsets, block.out_predicates, block.out_objects):
                view = numpy.frombuffer(buffer.tobytes(), dtype=numpy.int64)
                assert not view.flags.writeable
                parts.append(view)
            return CSRGraph.from_parts(block.nodes, *parts)

        first, second = CSRGraph(small_graph), CSRGraph(other)
        plain = CSRGraph.from_blocks(first, second)
        assert _arrays(CSRGraph.from_blocks(viewed(first), viewed(second))) == (
            _arrays(plain)
        )
        empty = CSRGraph(RDFGraph())
        assert _arrays(CSRGraph.from_blocks(viewed(empty), viewed(second))) == (
            _arrays(second)
        )
