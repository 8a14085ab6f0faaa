"""VersionStore: per-version snapshot cache for batch execution.

The store's central claim is that the expensive per-cell artifacts can be
composed from per-version ones: the union's deblanking partition from
per-version blank-class quotients, Figure 10's aligned-edge ratios from
per-version edge-token sets, the union CSR snapshot from per-version
blocks.  These tests pin each composition against the legacy per-cell
computation, and the caching behaviour itself (artifacts are built once).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.align import AlignConfig
from repro.core.deblank import deblank_partition
from repro.core.hybrid import hybrid_partition
from repro.core.trivial import trivial_partition
from repro.datasets.efo import EFOGenerator
from repro.datasets.gtopdb import GtoPdbGenerator
from repro.evaluation.metrics import aligned_edge_counts
from repro.experiments.store import (
    VersionStore,
    blank_summary,
    joint_quotient_colors,
)
from repro.model import CombinedGraph, RDFGraph, blank, combine, lit, uri
from repro.model.csr import CSRGraph
from repro.partition.interner import ColorInterner
from repro.similarity.overlap_alignment import overlap_partition

from .conftest import random_rdf_graph


class _ListGenerator:
    """Minimal generator protocol over a fixed list of graphs."""

    def __init__(self, graphs):
        self._graphs = list(graphs)

        class config:  # noqa: N801 - mimics the dataclass attribute
            versions = len(self._graphs)

        self.config = config

    def graph(self, index):
        return self._graphs[index]


def store_of(*graphs) -> VersionStore:
    return VersionStore(_ListGenerator(graphs), versions=len(graphs))


# ----------------------------------------------------------------------
# Deblank composition
# ----------------------------------------------------------------------
class TestDeblankComposition:
    def test_matches_legacy_on_efo_pairs(self):
        generator = EFOGenerator(scale=0.15, seed=234, versions=4)
        store = VersionStore(generator)
        for source in range(4):
            for target in range(source, 4):
                union = combine(generator.graph(source), generator.graph(target))
                legacy = deblank_partition(union, ColorInterner())
                composed = store.deblank_partition(
                    source, target, ColorInterner(), union
                )
                assert composed.equivalent_to(legacy)

    def test_unequal_depth_chains(self):
        """Sides stabilizing at different refinement depths still compose."""

        def chain(length: int, tail: str) -> RDFGraph:
            graph = RDFGraph()
            nodes = [blank(f"c{i}") for i in range(length)]
            for first, second in zip(nodes, nodes[1:]):
                graph.add(first, uri("p"), second)
            graph.add(nodes[-1], uri("p"), lit(tail))
            return graph

        first, second = chain(3, "x"), chain(7, "x")
        store = store_of(first, second)
        union = combine(first, second)
        legacy = deblank_partition(union, ColorInterner())
        composed = store.deblank_partition(0, 1, ColorInterner(), union)
        assert composed.equivalent_to(legacy)

    def test_blank_cycles(self):
        """Cyclic blank structures (no finite unrolling) compose too."""

        def cycle(length: int) -> RDFGraph:
            graph = RDFGraph()
            nodes = [blank(f"y{i}") for i in range(length)]
            for index, node in enumerate(nodes):
                graph.add(node, uri("p"), nodes[(index + 1) % length])
            return graph

        first, second = cycle(2), cycle(3)
        store = store_of(first, second)
        union = combine(first, second)
        legacy = deblank_partition(union, ColorInterner())
        composed = store.deblank_partition(0, 1, ColorInterner(), union)
        assert composed.equivalent_to(legacy)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_random_graphs(self, seed):
        rng = random.Random(seed)
        first = random_rdf_graph(
            rng,
            num_uris=rng.randrange(2, 6),
            num_literals=rng.randrange(1, 4),
            num_blanks=rng.randrange(0, 6),
            num_edges=rng.randrange(4, 24),
            uri_prefix="a",
        )
        second = random_rdf_graph(
            rng,
            num_uris=rng.randrange(2, 6),
            num_literals=rng.randrange(1, 4),
            num_blanks=rng.randrange(0, 6),
            num_edges=rng.randrange(4, 24),
            # Half the runs share the URI universe (alignable), half not.
            uri_prefix="a" if rng.random() < 0.5 else "b",
        )
        store = store_of(first, second)
        union = combine(first, second)
        legacy = deblank_partition(union, ColorInterner())
        composed = store.deblank_partition(0, 1, ColorInterner(), union)
        assert composed.equivalent_to(legacy)

    def test_self_pair_is_complete(self):
        graph = random_rdf_graph(random.Random(7))
        store = store_of(graph)
        union = combine(graph, graph)
        composed = store.deblank_partition(0, 0, ColorInterner(), union)
        legacy = deblank_partition(union, ColorInterner())
        assert composed.equivalent_to(legacy)


# ----------------------------------------------------------------------
# Fast aligned-edge metrics
# ----------------------------------------------------------------------
class TestAlignedEdgeFastPath:
    @pytest.fixture(scope="class")
    def efo(self):
        generator = EFOGenerator(scale=0.15, seed=234, versions=4)
        return generator, VersionStore(generator)

    def test_trivial_matches_legacy(self, efo):
        generator, store = efo
        for source in range(4):
            for target in range(source, 4):
                union = combine(generator.graph(source), generator.graph(target))
                legacy = aligned_edge_counts(
                    union, trivial_partition(union, ColorInterner())
                )
                assert store.aligned_edge_stats(source, target, "trivial") == legacy

    def test_deblank_matches_legacy(self, efo):
        generator, store = efo
        for source in range(4):
            for target in range(source, 4):
                union = combine(generator.graph(source), generator.graph(target))
                legacy = aligned_edge_counts(
                    union, deblank_partition(union, ColorInterner())
                )
                assert store.aligned_edge_stats(source, target, "deblank") == legacy

    def test_deblank_diagonal_is_complete(self, efo):
        _, store = efo
        aligned, total = store.aligned_edge_stats(2, 2, "deblank")
        assert aligned == total

    def test_trivial_diagonal_below_one(self, efo):
        """Blanks keep the trivial self-alignment incomplete (Figure 10)."""
        _, store = efo
        aligned, total = store.aligned_edge_stats(2, 2, "trivial")
        assert aligned < total

    def test_unknown_method_rejected(self, efo):
        _, store = efo
        from repro.exceptions import ExperimentError

        with pytest.raises(ExperimentError):
            store.edge_tokens(0, "hybrid")


# ----------------------------------------------------------------------
# Cell contexts (hybrid + overlap over shared snapshots)
# ----------------------------------------------------------------------
class TestCellContext:
    @pytest.fixture(scope="class")
    def gtopdb(self):
        generator = GtoPdbGenerator(scale=0.2, seed=2016, versions=3)
        return generator, VersionStore(generator)

    @pytest.mark.parametrize("engine", ["reference", "dense"])
    def test_hybrid_matches_legacy(self, gtopdb, engine):
        generator, store = gtopdb
        union, _ = generator.combined(0, 1)
        legacy = hybrid_partition(union, ColorInterner(), engine=engine)
        context = store.cell_context(0, 1, AlignConfig(engine=engine))
        assert context.hybrid.equivalent_to(legacy)

    @pytest.mark.parametrize("engine", ["reference", "dense"])
    def test_overlap_matches_legacy(self, gtopdb, engine):
        generator, store = gtopdb
        union, _ = generator.combined(1, 2)
        interner = ColorInterner()
        legacy = overlap_partition(
            union,
            theta=0.65,
            interner=interner,
            base=hybrid_partition(union, interner, engine=engine),
            engine=engine,
        )
        weighted, trace = store.overlap_result(
            1, 2, AlignConfig(theta=0.65, engine=engine)
        )
        assert weighted.partition.equivalent_to(legacy.partition)
        assert trace.total_rounds >= 1

    def test_union_csr_matches_direct_snapshot(self, gtopdb):
        generator, store = gtopdb
        union, _ = generator.combined(0, 1)
        direct = CSRGraph(union)
        assembled = store.union(0, 1).csr()
        assert list(assembled.nodes) == direct.nodes
        assert list(assembled.out_offsets) == list(direct.out_offsets)
        for dense_id in range(direct.num_nodes):
            start, end = direct.out_slice(dense_id)
            assert set(
                zip(direct.out_predicates[start:end], direct.out_objects[start:end])
            ) == set(
                zip(
                    assembled.out_predicates[start:end],
                    assembled.out_objects[start:end],
                )
            )

    def test_overlap_result_does_not_disturb_siblings(self, gtopdb):
        """Different thetas over one context give theta-pure results."""
        _, store = gtopdb
        low_first, _ = store.overlap_result(0, 1, AlignConfig(theta=0.45))
        high, _ = store.overlap_result(0, 1, AlignConfig(theta=0.95))
        # Recompute theta=0.45 on a fresh store: identical match structure.
        fresh = VersionStore(store.generator)
        low_fresh, _ = fresh.overlap_result(0, 1, AlignConfig(theta=0.45))
        assert low_first.partition.equivalent_to(low_fresh.partition)


# ----------------------------------------------------------------------
# Caching behaviour
# ----------------------------------------------------------------------
class TestCaching:
    def test_artifacts_are_built_once(self):
        generator = EFOGenerator(scale=0.1, seed=234, versions=3)
        store = VersionStore(generator)
        first = store.summary(1)
        assert store.summary(1) is first
        block = store.graph(1).csr()
        assert store.graph(1).csr() is block
        tokens = store.edge_tokens(1, "deblank")
        assert store.edge_tokens(1, "deblank") is tokens
        union = store.union(0, 1)
        assert store.union(0, 1) is union
        context = store.cell_context(0, 1)
        assert store.cell_context(0, 1) is context
        overlap = store.overlap_result(0, 1)
        assert store.overlap_result(0, 1) is overlap
        stats = store.cache_stats()
        for kind in ("summary", "edge_tokens", "union", "context", "overlap"):
            hits, misses = stats[kind]
            assert hits >= 1, kind
            assert misses >= 1, kind

    @settings(max_examples=20, deadline=None)
    @given(
        accesses=st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=12
        )
    )
    def test_cache_hit_property(self, accesses):
        """Any re-request of a pair artifact is a hit and the same object."""
        generator = EFOGenerator(scale=0.1, seed=234, versions=3)
        store = VersionStore(generator)
        seen = {}
        for source, target in accesses:
            stats = store.aligned_edge_stats(source, target, "deblank")
            if (source, target) in seen:
                assert seen[(source, target)] == stats
            seen[(source, target)] = stats
        # Every summary was computed at most once per version.
        assert store.misses.get("summary", 0) <= 3
        assert store.misses.get("joint", 0) <= len(set(accesses))

    def test_shared_store_is_per_configuration(self):
        first = VersionStore.shared("efo", scale=0.1, seed=234, versions=3)
        again = VersionStore.shared("efo", scale=0.1, seed=234, versions=3)
        other = VersionStore.shared("efo", scale=0.1, seed=235, versions=3)
        assert first is again
        assert first is not other
        assert first.generator is EFOGenerator.shared(
            scale=0.1, seed=234, versions=3
        )

    def test_clear_shared_generators_clears_stores_too(self):
        from repro.datasets import clear_shared_generators

        before = VersionStore.shared("efo", scale=0.1, seed=236, versions=2)
        clear_shared_generators()
        after = VersionStore.shared("efo", scale=0.1, seed=236, versions=2)
        assert after is not before
        assert after.generator is not before.generator

    def test_context_cache_is_bounded(self):
        generator = EFOGenerator(scale=0.1, seed=234, versions=6)
        store = VersionStore(generator)
        for source in range(6):
            for target in range(source, 6):
                store.cell_context(source, target)
        assert len(store._contexts) <= VersionStore.CONTEXT_CACHE_SIZE
        assert len(store._unions) <= VersionStore.UNION_CACHE_SIZE

    def test_unknown_family_rejected(self):
        from repro.exceptions import ExperimentError

        with pytest.raises(ExperimentError):
            VersionStore.shared("nope", scale=1.0, seed=1, versions=2)


# ----------------------------------------------------------------------
# Quotient internals
# ----------------------------------------------------------------------
class TestQuotientInternals:
    def test_summary_of_blank_free_graph_is_empty(self):
        graph = RDFGraph()
        graph.add(uri("a"), uri("p"), lit("x"))
        summary = blank_summary(graph)
        assert summary.num_classes == 0
        assert joint_quotient_colors(summary, summary) == ([], [])

    def test_bisimilar_duplicates_share_a_class(self):
        graph = RDFGraph()
        for name in ("b1", "b2"):
            record = blank(name)
            graph.add(uri("s"), uri("cite"), record)
            graph.add(record, uri("src"), lit("PubMed"))
        summary = blank_summary(graph)
        assert summary.num_classes == 1
        assert len(summary.classes) == 2

    def test_joint_colors_align_equal_contents(self):
        def record_graph(marker: str) -> RDFGraph:
            graph = RDFGraph()
            record = blank(f"r-{marker}")
            graph.add(uri("s"), uri("cite"), record)
            graph.add(record, uri("src"), lit("PubMed"))
            return graph

        first = blank_summary(record_graph("a"))
        second = blank_summary(record_graph("b"))
        colors_first, colors_second = joint_quotient_colors(first, second)
        assert colors_first == colors_second

    def test_joint_colors_separate_different_contents(self):
        def record_graph(value: str) -> RDFGraph:
            graph = RDFGraph()
            record = blank("r")
            graph.add(uri("s"), uri("cite"), record)
            graph.add(record, uri("src"), lit(value))
            return graph

        first = blank_summary(record_graph("PubMed"))
        second = blank_summary(record_graph("DOI"))
        colors_first, colors_second = joint_quotient_colors(first, second)
        assert colors_first != colors_second
