"""Tests for the related-work baselines (repro.baselines)."""

from __future__ import annotations

import random

import pytest

from repro.baselines.label_invention import (
    CyclicBlankError,
    invent_labels,
    label_invention_alignment,
)
from repro.baselines.similarity_flooding import similarity_flooding
from repro.core.deblank import deblank_partition
from repro.exceptions import ExperimentError
from repro.model import RDFGraph, blank, combine, lit, uri
from repro.partition.alignment import align
from repro.partition.interner import ColorInterner

from .conftest import random_rdf_graph


class TestLabelInvention:
    def test_equal_records_get_equal_labels(self, figure3_combined):
        invented = invent_labels(figure3_combined)
        g = figure3_combined
        assert invented[g.from_source(blank("b2"))] == invented[g.from_target(blank("b4"))]
        assert invented[g.from_source(blank("b2"))] == invented[g.from_source(blank("b3"))]
        assert invented[g.from_source(blank("b1"))] != invented[g.from_target(blank("b4"))]

    def test_alignment_matches_deblank_on_figure3(self, figure3_combined):
        pairs = label_invention_alignment(figure3_combined)
        interner = ColorInterner()
        deblank_pairs = set(
            align(figure3_combined, deblank_partition(figure3_combined, interner)).pairs()
        )
        assert pairs == deblank_pairs

    @pytest.mark.parametrize("seed", range(5))
    def test_agrees_with_deblank_on_acyclic_random_graphs(self, seed):
        rng = random.Random(seed)
        # Build acyclic-blank graphs: blanks only point at URIs/literals.
        def acyclic(prefix: str) -> RDFGraph:
            g = RDFGraph()
            uris = [uri(f"{prefix}{i}") for i in range(4)]
            for u in uris:
                g.term(u)
            for i in range(4):
                b = blank(f"{prefix}b{i}")
                for _ in range(rng.randint(1, 3)):
                    g.add(b, rng.choice(uris), lit(f"v{rng.randint(0, 3)}"))
                g.add(rng.choice(uris), rng.choice(uris), b)
            return g

        union = combine(acyclic("x"), acyclic("x"))
        pairs = label_invention_alignment(union)
        interner = ColorInterner()
        deblank_pairs = set(align(union, deblank_partition(union, interner)).pairs())
        assert pairs == deblank_pairs

    def test_cyclic_blanks_rejected_but_deblank_succeeds(self):
        """Our work generalizes [17]: cycles break invention, not deblanking."""
        g1 = RDFGraph()
        g1.add(blank("c1"), uri("p"), blank("c2"))
        g1.add(blank("c2"), uri("p"), blank("c1"))
        g2 = RDFGraph()
        g2.add(blank("d1"), uri("p"), blank("d2"))
        g2.add(blank("d2"), uri("p"), blank("d1"))
        union = combine(g1, g2)
        with pytest.raises(CyclicBlankError):
            label_invention_alignment(union)
        # Deblanking handles the same input.
        interner = ColorInterner()
        partition = deblank_partition(union, interner)
        assert partition[union.from_source(blank("c1"))] == partition[
            union.from_target(blank("d1"))
        ]

    def test_self_loop_rejected(self):
        g = RDFGraph()
        g.add(blank("s"), uri("p"), blank("s"))
        with pytest.raises(CyclicBlankError):
            invent_labels(g)


class TestSimilarityFlooding:
    def test_identical_graphs_match_perfectly(self, figure3_graphs):
        g1, __ = figure3_graphs
        union = combine(g1, g1.copy())
        result = similarity_flooding(union)
        matches = result.mutual_best_matches(threshold=0.0)
        # Every URI should be its own best match.
        for node in union.source_nodes:
            if union.is_uri_node(node):
                partner = union.from_target(union.original(node))
                assert (node, partner) in matches

    def test_flooding_finds_renamed_uri(self, figure7_combined):
        """w/w2 share the structure under shared predicate labels r and q."""
        result = similarity_flooding(figure7_combined)
        g = figure7_combined
        matches = result.mutual_best_matches()
        assert (g.from_source(uri("w")), g.from_target(uri("w2"))) in matches

    def test_rounds_recorded(self, figure7_combined):
        result = similarity_flooding(figure7_combined, max_rounds=3)
        assert 1 <= result.rounds <= 3

    def test_pair_budget_guard(self, figure7_combined):
        with pytest.raises(ExperimentError):
            similarity_flooding(figure7_combined, max_pairs=3)

    def test_similarities_normalized(self, figure7_combined):
        result = similarity_flooding(figure7_combined)
        values = result.similarities.values()
        assert max(values) <= 1.0 + 1e-9
        assert all(value >= 0.0 for value in values)

    def test_best_matches_threshold(self, figure7_combined):
        result = similarity_flooding(figure7_combined)
        assert result.best_matches(threshold=2.0) == {}

    @pytest.mark.parametrize("seed", range(3))
    def test_insertion_order_independent(self, seed):
        """Flooding is a function of graph *content*, not load order.

        The same triples inserted forwards and backwards (as after a
        canonical N-Triples round trip) must give bit-identical similarity
        tables and identical matches — tie-breaking and float summation are
        pinned to a canonical node order, not hash/insertion order.
        """
        rng = random.Random(seed)
        triples = []
        uris = [uri(f"n{i}") for i in range(6)]
        preds = [uri(f"p{i}") for i in range(3)]
        for i in range(12):
            triples.append(
                (rng.choice(uris), rng.choice(preds),
                 rng.choice(uris + [lit(f"v{i % 4}")]))
            )

        def build(order):
            g = RDFGraph()
            for s, p, o in order:
                g.add(s, p, o)
            return g

        target = build(triples)
        forward = combine(build(triples), target)
        backward = combine(build(list(reversed(triples))), target)
        first = similarity_flooding(forward)
        second = similarity_flooding(backward)

        # Union ids follow insertion order, so compare over the terms.
        def terms(union, pairs):
            return {(union.original(s), union.original(t)): pairs[s, t] for s, t in pairs}

        def term_pairs(union, pairs):
            return {(union.original(s), union.original(t)) for s, t in pairs}

        def term_map(union, mapping):
            return {union.original(s): union.original(t) for s, t in mapping.items()}

        assert terms(forward, first.similarities) == terms(backward, second.similarities)
        assert first.rounds == second.rounds
        assert term_pairs(forward, first.mutual_best_matches()) == term_pairs(
            backward, second.mutual_best_matches()
        )
        assert term_map(forward, first.best_matches()) == term_map(
            backward, second.best_matches()
        )
