"""Tests for the Section 6 future-work extensions.

* context-aware (bidirectional) refinement,
* keyed refinement,
* predicate-aware alignment (the Section 5.1 proposal).
"""

from __future__ import annotations

import pytest

from repro.core.context import (
    bidirectional_bisimulation_partition,
    bidirectional_refine_fixpoint,
    context_hybrid_partition,
    in_neighborhood,
    inbound_index,
)
from repro.core.hybrid import hybrid_partition
from repro.core.keyed import keyed_hybrid_partition, keyed_refine_fixpoint, predicate_key
from repro.core.bisimulation import bisimulation_partition
from repro.datasets import GtoPdbGenerator
from repro.evaluation.precision import classify_node
from repro.model import SOURCE, RDFGraph, blank, combine, lit, uri
from repro.partition.alignment import align
from repro.partition.coloring import label_partition
from repro.partition.interner import ColorInterner
from repro.partition.weighted import zero_weighted
from repro.similarity.predicate_alignment import (
    mediation_index,
    predominantly_predicates,
    refine_predicates,
)


class TestInboundNeighborhood:
    def test_in_neighborhood(self, figure2_graph):
        pairs = in_neighborhood(figure2_graph, uri("u"))
        # u is reached from w via q and from b2/b3 via r.
        assert (uri("q"), uri("w")) in pairs
        assert (uri("r"), blank("b2")) in pairs
        assert len(pairs) == 3

    def test_inbound_index_matches_single_queries(self, figure2_graph):
        index = inbound_index(figure2_graph)
        for node in figure2_graph.nodes():
            assert index[node] == in_neighborhood(figure2_graph, node)


class TestBidirectionalRefinement:
    def test_finer_than_outbound(self, figure2_graph):
        outbound = bisimulation_partition(figure2_graph)
        bidirectional = bidirectional_bisimulation_partition(figure2_graph)
        assert bidirectional.finer_than(outbound) or not outbound.finer_than(
            bidirectional
        )

    def test_context_separates_out_bisimilar_nodes(self):
        """Two sinks with equal contents but different contexts split."""
        g = RDFGraph()
        g.add(uri("a"), uri("p"), blank("x"))
        g.add(uri("b"), uri("q"), blank("y"))
        outbound = bisimulation_partition(g)
        assert outbound.same_class(blank("x"), blank("y"))  # both empty sinks
        bidirectional = bidirectional_bisimulation_partition(g)
        assert not bidirectional.same_class(blank("x"), blank("y"))

    def test_same_context_stays_together(self):
        g = RDFGraph()
        g.add(uri("a"), uri("p"), blank("x"))
        g.add(uri("a"), uri("p"), blank("y"))
        bidirectional = bidirectional_bisimulation_partition(g)
        assert bidirectional.same_class(blank("x"), blank("y"))

    def test_context_hybrid_separates_conflated_predicates(self):
        """The GtoPdb predicate conflation disappears under context."""
        generator = GtoPdbGenerator(scale=0.1, versions=3)
        union, __ = generator.combined(0, 1)
        plain = hybrid_partition(union, ColorInterner())
        contextual = context_hybrid_partition(union, ColorInterner())
        predicates = predominantly_predicates(union)
        fat_plain = max(
            len(plain.class_of(node)) for node in predicates
        )
        fat_contextual = max(
            len(contextual.class_of(node)) for node in predicates
        )
        assert fat_contextual < fat_plain

    def test_max_rounds_respected(self, figure2_graph):
        interner = ColorInterner()
        initial = label_partition(figure2_graph, interner)
        bounded = bidirectional_refine_fixpoint(
            figure2_graph, initial, None, interner, max_rounds=0
        )
        assert bounded.equivalent_to(initial)


class TestKeyedRefinement:
    def _versions(self):
        """Entities share 'name' but differ on churny 'comment' fields."""
        g1 = RDFGraph()
        g1.add(uri("v1/e1"), uri("name"), lit("calcitonin"))
        g1.add(uri("v1/e1"), uri("comment"), lit("old remark"))
        g1.add(uri("v1/e2"), uri("name"), lit("histamine"))
        g1.add(uri("v1/e2"), uri("comment"), lit("another old remark"))
        g2 = RDFGraph()
        g2.add(uri("v2/e1"), uri("name"), lit("calcitonin"))
        g2.add(uri("v2/e1"), uri("comment"), lit("rewritten remark"))
        g2.add(uri("v2/e2"), uri("name"), lit("histamine"))
        g2.add(uri("v2/e2"), uri("comment"), lit("yet another remark"))
        return g1, g2

    def test_key_alignment_ignores_non_key_churn(self):
        union = combine(*self._versions())
        # Full hybrid cannot align e1/e2 (comments differ).
        interner = ColorInterner()
        full = hybrid_partition(union, interner)
        alignment = align(union, full)
        assert not alignment.aligned(
            union.from_source(uri("v1/e1")), union.from_target(uri("v2/e1"))
        )
        # Keyed on 'name', both entities align, and correctly so.
        keyed_interner = ColorInterner()
        keyed = keyed_hybrid_partition(
            union, predicate_key([uri("name")]), keyed_interner
        )
        keyed_alignment = align(union, keyed)
        assert keyed_alignment.aligned(
            union.from_source(uri("v1/e1")), union.from_target(uri("v2/e1"))
        )
        assert keyed_alignment.aligned(
            union.from_source(uri("v1/e2")), union.from_target(uri("v2/e2"))
        )
        assert not keyed_alignment.aligned(
            union.from_source(uri("v1/e1")), union.from_target(uri("v2/e2"))
        )

    def test_keyed_is_coarser_than_full(self):
        union = combine(*self._versions())
        interner = ColorInterner()
        base = hybrid_partition(union, interner)
        keyed_interner = ColorInterner()
        keyed = keyed_hybrid_partition(
            union, predicate_key([uri("name")]), keyed_interner
        )
        full_pairs = set(align(union, base).pairs())
        keyed_pairs = set(align(union, keyed).pairs())
        assert full_pairs <= keyed_pairs

    def test_empty_key_conflates_everything_unaligned(self):
        union = combine(*self._versions())
        interner = ColorInterner()
        keyed = keyed_hybrid_partition(union, predicate_key([]), interner)
        # With no key attributes every blanked node looks the same.
        e1 = union.from_source(uri("v1/e1"))
        e2 = union.from_target(uri("v2/e2"))
        assert keyed[e1] == keyed[e2]


class TestPredicateAlignment:
    @pytest.fixture(scope="class")
    def gtopdb_pair(self):
        generator = GtoPdbGenerator(scale=0.25, versions=3)
        return generator.combined(0, 1)

    def test_predominantly_predicates_found(self, gtopdb_pair):
        union, __ = gtopdb_pair
        predicates = predominantly_predicates(union)
        assert predicates
        labels = {union.label(node).value for node in predicates}
        assert any("#name" in label for label in labels)

    def test_mediation_index(self, gtopdb_pair):
        union, __ = gtopdb_pair
        index = mediation_index(union)
        total = sum(len(pairs) for pairs in index.values())
        assert total == union.num_edges

    def test_refinement_fixes_predicate_precision(self, gtopdb_pair):
        union, truth = gtopdb_pair
        interner = ColorInterner()
        hybrid = hybrid_partition(union, interner)
        weighted = zero_weighted(hybrid)
        refined = refine_predicates(union, weighted, interner, theta=0.5)

        def score(partition):
            alignment = align(union, partition)
            counts = {"exact": 0, "inclusive": 0, "missing": 0, "false": 0}
            for node in predominantly_predicates(union):
                term = union.original(node)
                if union.side(node) == SOURCE:
                    partner_term = truth.partner_of_source(term)
                    version, lift = union.target, union.from_target
                else:
                    partner_term = truth.partner_of_target(term)
                    version, lift = union.source, union.from_source
                if partner_term is None:
                    category = classify_node(alignment, node, None)
                elif partner_term in version:
                    category = classify_node(alignment, node, lift(partner_term))
                else:
                    category = "missing"  # an absent partner is nobody's partner
                counts[category] += 1
            return counts

        before = score(hybrid)
        after = score(refined.partition)
        assert after["exact"] > before["exact"]
        assert after["inclusive"] < before["inclusive"]

    def test_no_candidates_is_identity(self, figure2_graph):
        union = combine(figure2_graph, figure2_graph.copy())
        interner = ColorInterner()
        weighted = zero_weighted(hybrid_partition(union, interner))
        assert refine_predicates(union, weighted, interner) is weighted
