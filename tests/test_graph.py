"""Unit tests for TripleGraph (repro.model.graph)."""

from __future__ import annotations

import pytest

from repro.exceptions import GraphError
from repro.model.graph import TripleGraph, isomorphic_by_labels
from repro.model.labels import BLANK, Literal, URI


def small_graph() -> TripleGraph:
    g = TripleGraph()
    g.add_node("s", URI("s"))
    g.add_node("p", URI("p"))
    g.add_node("o", Literal("o"))
    g.add_node("b", BLANK)
    g.add_edge("s", "p", "o")
    g.add_edge("s", "p", "b")
    return g


class TestConstruction:
    def test_add_node_idempotent(self):
        g = TripleGraph()
        g.add_node(1, URI("a"))
        g.add_node(1, URI("a"))
        assert g.num_nodes == 1

    def test_relabel_rejected(self):
        g = TripleGraph()
        g.add_node(1, URI("a"))
        with pytest.raises(GraphError):
            g.add_node(1, URI("b"))

    def test_edge_requires_existing_nodes(self):
        g = TripleGraph()
        g.add_node(1, URI("a"))
        with pytest.raises(GraphError):
            g.add_edge(1, 2, 1)

    def test_duplicate_edges_collapse(self):
        g = small_graph()
        before = g.num_edges
        g.add_edge("s", "p", "o")
        assert g.num_edges == before

    def test_add_edges_bulk(self):
        g = TripleGraph()
        for n in ("a", "b", "c"):
            g.add_node(n, URI(n))
        g.add_edges([("a", "b", "c"), ("c", "b", "a")])
        assert g.num_edges == 2

    def test_add_edges_keeps_add_edge_checks(self):
        """The bulk path raises add_edge's error for a missing endpoint,
        after adding the edges before it; duplicates are no-ops and the
        reverse index is rebuilt."""
        g = small_graph()
        assert g.occurrences("o") == {"s"}
        with pytest.raises(GraphError) as per_edge:
            small_graph().add_edge("o", "p", "zzz")
        with pytest.raises(GraphError) as bulk:
            g.add_edges([("b", "p", "o"), ("s", "p", "o"), ("o", "p", "zzz"), ("o", "p", "s")])
        assert str(bulk.value) == str(per_edge.value)
        assert g.num_edges == 3
        assert g.out("b") == {("p", "o")}
        assert g.occurrences("o") == {"s", "b"}


class TestInspection:
    def test_out_neighborhood(self):
        g = small_graph()
        assert g.out("s") == {("p", "o"), ("p", "b")}
        assert g.out("o") == frozenset()
        assert g.out_degree("s") == 2

    def test_out_unknown_node(self):
        with pytest.raises(GraphError):
            small_graph().out("zzz")

    def test_label_unknown_node(self):
        with pytest.raises(GraphError):
            small_graph().label("zzz")

    def test_contains_and_len(self):
        g = small_graph()
        assert "s" in g and "zzz" not in g
        assert len(g) == 4

    def test_kind_sets(self):
        g = small_graph()
        assert g.uris() == {"s", "p"}
        assert g.literals() == {"o"}
        assert g.blanks() == {"b"}
        assert g.is_blank_node("b") and not g.is_blank_node("s")
        assert g.is_literal_node("o") and g.is_uri_node("p")

    def test_stats(self):
        stats = small_graph().stats()
        assert stats.num_nodes == 4
        assert stats.num_edges == 2
        assert stats.num_uris == 2
        assert stats.num_literals == 1
        assert stats.num_blanks == 1
        assert stats.as_dict()["edges"] == 2

    def test_has_edge(self):
        g = small_graph()
        assert g.has_edge("s", "p", "o")
        assert not g.has_edge("o", "p", "s")


class TestOccurrences:
    def test_occurrence_index(self):
        g = small_graph()
        assert g.occurrences("o") == {"s"}
        assert g.occurrences("p") == {"s"}
        assert g.occurrences("s") == frozenset()

    def test_occurrences_invalidated_by_new_edge(self):
        g = small_graph()
        assert g.occurrences("b") == {"s"}
        g.add_node("x", URI("x"))
        g.add_edge("b", "p", "x")
        assert g.occurrences("x") == {"b"}


class TestCopyAndIsomorphism:
    def test_copy_is_independent(self):
        g = small_graph()
        clone = g.copy()
        clone.add_node("extra", URI("extra"))
        assert "extra" not in g

    def test_isomorphic_by_labels_positive(self):
        g = small_graph()
        assert isomorphic_by_labels(g, g.copy())

    def test_isomorphic_by_labels_negative(self):
        g = small_graph()
        h = small_graph()
        h.add_node("x", URI("x"))
        assert not isomorphic_by_labels(g, h)

    def test_repr(self):
        assert "nodes=4" in repr(small_graph())
