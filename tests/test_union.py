"""Unit tests for CombinedGraph (repro.model.union)."""

from __future__ import annotations

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import AlignmentError, GraphError
from repro.model import RDFGraph, blank, combine, combine_many, lit, uri
from repro.model.csr import CSRGraph
from repro.model.graph import TripleGraph
from repro.model.union import SOURCE, TARGET
from repro.partition.coloring import label_partition
from repro.partition.interner import ColorInterner


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

    def test_union_is_read_only(self, versions):
        union = combine(*versions)
        with pytest.raises(GraphError, match="read-only"):
            union.add_node(union.num_nodes, uri("new"))
        with pytest.raises(GraphError, match="read-only"):
            union.add_edge(0, 1, 5)
        assert union.num_nodes == 6 and union.num_edges == 2


class TestIntIds:
    """Union ids are the CSR dense ids: source block, then target block."""

    def test_ids_are_dense_and_blocked(self, versions):
        g1, g2 = versions
        union = combine(g1, g2)
        assert list(union.nodes()) == list(range(6))
        assert union.num_source_nodes == 3
        assert [union.original(node) for node in range(3)] == list(g1.nodes())
        assert [union.original(node) for node in range(3, 6)] == list(g2.nodes())
        assert list(union.originals()) == [*g1.nodes(), *g2.nodes()]
        assert [union.side(node) for node in union.nodes()] == [SOURCE] * 3 + [TARGET] * 3
        csr = CSRGraph.from_blocks(CSRGraph(g1), CSRGraph(g2))
        assert list(csr.nodes) == list(union.nodes())

    @pytest.mark.parametrize("accessor", ["side", "original", "from_source", "from_target"])
    def test_non_nodes_are_refused(self, versions, accessor):
        union = combine(*versions)
        for bad in (True, -1, union.num_nodes, "x", (SOURCE, uri("a"))):
            with pytest.raises(AlignmentError):
                getattr(union, accessor)(bad)

    def test_bool_never_finds_an_int_node(self):
        versions = []
        for _ in range(2):
            graph = TripleGraph()
            graph.add_node(0, uri("zero"))
            graph.add_node(1, uri("one"))
            versions.append(graph)
        union = combine(*versions)
        assert union.from_source(1) == 1 and union.from_target(1) == 3
        for lift in (union.from_source, union.from_target):
            with pytest.raises(AlignmentError):
                lift(True)

    def test_union_tuples_and_label_partition_leave_the_gc(self):
        """The union stores no GC-tracked object per edge (its edges are
        int columns), and the label partition's color dict is untracked."""
        source = _graph([(uri(f"s{i}"), uri("p"), lit(f"v{i}")) for i in range(300)])
        target = _graph([(blank(f"b{i}"), uri("p"), uri(f"s{i}")) for i in range(300)])
        gc.collect()
        before = len(gc.get_objects())
        union = combine(source, target)
        gc.collect()
        assert len(gc.get_objects()) - before <= 16  # the union holds 600 edges
        assert union.num_edges == 600
        partition = label_partition(union, ColorInterner())
        gc.collect()
        assert not gc.is_tracked(partition._colors)


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
def _per_element_union(source: RDFGraph, target: RDFGraph, lifts) -> TripleGraph:
    """The union built one ``add_node``/``add_edge`` call at a time.

    *lifts* maps each side to the union's ``from_source``/``from_target``.
    """
    union = TripleGraph()
    for side, version in ((SOURCE, source), (TARGET, target)):
        lift = lifts[side]
        for node in version.nodes():
            union.add_node(lift(node), version.label(node))
    for side, version in ((SOURCE, source), (TARGET, target)):
        lift = lifts[side]
        for subject, predicate, obj in version.edges():
            union.add_edge(lift(subject), lift(predicate), lift(obj))
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
        lifts = {SOURCE: union.from_source, TARGET: union.from_target}
        oracle = _per_element_union(source, target, lifts)
        assert list(union.labels().items()) == list(oracle.labels().items())
        assert set(union.edges()) == set(oracle.edges())
        source_edges = list(union.edges())[: union.num_source_edges]
        assert union.num_source_edges == source.num_edges
        assert all(union.side(subject) == SOURCE for subject, _, _ in source_edges)
        assert list(union.out_index().items()) == list(oracle.out_index().items())
        assert union.source_nodes == {union.from_source(node) for node in source.nodes()}
        assert union.target_nodes == {union.from_target(node) for node in target.nodes()}
        for side, version in ((SOURCE, source), (TARGET, target)):
            for node in version.nodes():
                assert union.side(lifts[side](node)) == side
                assert union.original(lifts[side](node)) == node

    @settings(max_examples=40, deadline=None)
    @given(source=_VERSIONS, target=_VERSIONS)
    def test_each_node_is_one_shared_tuple(self, source, target):
        """The node list, the out-pair index and the side sets hold the one
        int object minted per node (a label key); ``edges()`` reads the
        columns.  The source is padded so that the drawn nodes' ids lie
        past CPython's cache of small ints, where a fresh int would show."""
        padded = RDFGraph()
        for i in range(300):
            padded.term(uri(f"pad{i}"))
        padded.add_all(source.triples())
        union = combine(padded, target)
        lifted = {node: node for node in union.labels()}
        assert set(union.edges()) == {
            (union.from_source(s), union.from_source(p), union.from_source(o))
            for s, p, o in source.triples()
        } | {
            (union.from_target(s), union.from_target(p), union.from_target(o))
            for s, p, o in target.triples()
        }
        for subject, pairs in union.out_index().items():
            assert lifted[subject] is subject
            for predicate, obj in pairs:
                assert lifted[predicate] is predicate and lifted[obj] is obj
        for node in [*union.nodes(), *union.source_nodes, *union.target_nodes]:
            assert lifted[node] is node

    @pytest.mark.parametrize("side", ["source", "target"])
    def test_edge_to_a_non_node_raises(self, side):
        """A version whose columns name an id outside its node table
        cannot be combined: in the union that id would be a node of the
        other side, or no node at all."""
        for column in range(3):
            for bad in (3, 4, -1):  # the version has 3 nodes, ids 0..2
                broken = _graph([(uri("a"), uri("p"), lit("v"))])
                broken.edge_columns()[column][0] = bad
                other = _graph([(uri("b"), uri("q"), lit("w"))])
                versions = {"source": (broken, other), "target": (other, broken)}[side]
                with pytest.raises(GraphError, match=f"{side} graph"):
                    combine(*versions)
