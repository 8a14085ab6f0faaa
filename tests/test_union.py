"""Unit tests for CombinedGraph (repro.model.union)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import AlignmentError, GraphError
from repro.model import RDFGraph, blank, combine, combine_many, lit, uri
from repro.model.graph import TripleGraph
from repro.model.union import SOURCE, TARGET


@pytest.fixture
def versions() -> tuple[RDFGraph, RDFGraph]:
    g1 = RDFGraph()
    g1.add(uri("a"), uri("p"), lit("x"))
    g2 = RDFGraph()
    g2.add(uri("a"), uri("p"), lit("y"))
    return g1, g2


class TestDisjointness:
    def test_same_labels_stay_distinct(self, versions):
        union = combine(*versions)
        assert union.num_nodes == 6
        assert union.num_edges == 2

    def test_side_tracking(self, versions):
        union = combine(*versions)
        n = union.from_source(uri("a"))
        m = union.from_target(uri("a"))
        assert n != m
        assert union.side(n) == SOURCE
        assert union.side(m) == TARGET
        assert union.original(n) == uri("a")

    def test_side_node_sets_partition_nodes(self, versions):
        union = combine(*versions)
        assert union.source_nodes | union.target_nodes == set(union.nodes())
        assert not union.source_nodes & union.target_nodes
        assert union.side_nodes(SOURCE) == union.source_nodes
        assert union.side_nodes(TARGET) == union.target_nodes

    def test_labels_preserved(self, versions):
        union = combine(*versions)
        assert union.label(union.from_source(lit("x"))) == lit("x")

    def test_source_target_accessors(self, versions):
        g1, g2 = versions
        union = combine(g1, g2)
        assert union.source is g1
        assert union.target is g2


class TestErrors:
    def test_unknown_node_side(self, versions):
        union = combine(*versions)
        with pytest.raises(AlignmentError):
            union.side("nope")

    def test_from_source_rejects_target_only_node(self, versions):
        union = combine(*versions)
        with pytest.raises(AlignmentError):
            union.from_source(lit("y"))

    def test_bad_side_constant(self, versions):
        union = combine(*versions)
        with pytest.raises(AlignmentError):
            union.side_nodes(3)


class TestCombineMany:
    def test_consecutive_pairs(self):
        graphs = []
        for i in range(4):
            g = RDFGraph()
            g.add(uri(f"a{i}"), uri("p"), lit(f"x{i}"))
            graphs.append(g)
        unions = combine_many(graphs)
        assert len(unions) == 3
        assert unions[0].source is graphs[0]
        assert unions[2].target is graphs[3]

    def test_blanks_both_sides(self):
        g1 = RDFGraph()
        g1.add(blank("b"), uri("p"), lit("x"))
        g2 = RDFGraph()
        g2.add(blank("b"), uri("p"), lit("x"))
        union = combine(g1, g2)
        assert len(union.blanks()) == 2


# ----------------------------------------------------------------------
# The lift-once construction against a per-element oracle
# ----------------------------------------------------------------------
def _per_element_union(source: RDFGraph, target: RDFGraph) -> TripleGraph:
    """The union built one ``add_node``/``add_edge`` call at a time."""
    union = TripleGraph()
    for side, version in ((SOURCE, source), (TARGET, target)):
        for node in version.nodes():
            union.add_node((side, node), version.label(node))
    for side, version in ((SOURCE, source), (TARGET, target)):
        for subject, predicate, obj in version.edges():
            union.add_edge((side, subject), (side, predicate), (side, obj))
    return union


def _graph(triples) -> RDFGraph:
    graph = RDFGraph()
    graph.add_all(triples)
    return graph


_SUBJECTS = st.sampled_from([uri("a"), uri("b"), blank("x"), blank("y")])
_PREDICATES = st.sampled_from([uri("p"), uri("q")])
_OBJECTS = st.one_of(_SUBJECTS, st.sampled_from([lit("v"), lit("v", language="en")]))
_VERSIONS = st.lists(st.tuples(_SUBJECTS, _PREDICATES, _OBJECTS), max_size=10).map(_graph)


class TestLiftOnce:
    @settings(max_examples=80, deadline=None)
    @given(source=_VERSIONS, target=_VERSIONS)
    def test_equals_the_per_element_union(self, source, target):
        union = combine(source, target)
        oracle = _per_element_union(source, target)
        assert list(union.labels().items()) == list(oracle.labels().items())
        assert set(union.edges()) == set(oracle.edges())
        assert list(union.out_index().items()) == list(oracle.out_index().items())
        assert union.source_nodes == {(SOURCE, node) for node in source.nodes()}
        assert union.target_nodes == {(TARGET, node) for node in target.nodes()}
        for side, version in ((SOURCE, source), (TARGET, target)):
            for node in version.nodes():
                assert union.side((side, node)) == side
                assert union.original((side, node)) == node

    @settings(max_examples=40, deadline=None)
    @given(source=_VERSIONS, target=_VERSIONS)
    def test_each_node_is_one_shared_tuple(self, source, target):
        union = combine(source, target)
        lifted = {node: node for node in union.nodes()}
        for edge in union.edges():
            assert all(lifted[node] is node for node in edge)
        for subject, pairs in union.out_index().items():
            assert lifted[subject] is subject
            for predicate, obj in pairs:
                assert lifted[predicate] is predicate and lifted[obj] is obj
        for node in union.source_nodes | union.target_nodes:
            assert lifted[node] is node

    @pytest.mark.parametrize("side", ["source", "target"])
    def test_edge_to_a_non_node_raises(self, side):
        broken = _graph([(uri("a"), uri("p"), lit("v"))])
        broken._edges.add((uri("a"), uri("p"), uri("ghost")))
        versions = {"source": (broken, RDFGraph()), "target": (RDFGraph(), broken)}[side]
        with pytest.raises(GraphError, match="ghost"):
            combine(*versions)
