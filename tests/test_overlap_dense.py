"""Tests for the dense overlap pipeline (repro.similarity.dense_overlap).

Three layers are pinned here:

* the dense weight iterator's edge cases (sinks, empty subsets, the ε
  boundary, truncation signalling, subsets out of dense order);
* the incremental :class:`AlignmentTracker` against brute-force side
  scans under random recoloring;
* full Algorithm 2 parity: ``engine="dense"`` must reproduce the
  reference engine's weighted partitions (colors up to renaming, weights
  within ε) and its exact :class:`OverlapTrace` round counts.
"""

from __future__ import annotations

import logging
import random

import pytest

from repro.align import Aligner
from repro.core.dense_weights import dense_weight_fixpoint
from repro.core.refinement import WeightFixpointStats
from repro.datasets.mutations import mutation_workload
from repro.model import RDFGraph, combine, lit, uri
from repro.model.csr import CSRGraph
from repro.model.union import CombinedGraph
from repro.oplus import oplus_probabilistic
from repro.partition.alignment import PartitionAlignment
from repro.partition.coloring import Partition
from repro.partition.interner import ColorInterner
from repro.similarity.dense_overlap import AlignmentTracker
from repro.similarity.string_distance import character_set
from repro.similarity.weighted_refine import weighted_refine_fixpoint
from repro.partition.weighted import WeightedPartition

from .conftest import random_rdf_graph


# ----------------------------------------------------------------------
# The dense weight iterator
# ----------------------------------------------------------------------
class TestDenseWeightFixpoint:
    def simple_graph(self):
        g = RDFGraph()
        g.add(uri("a"), uri("p"), lit("x"))
        g.add(uri("a"), uri("q"), lit("y"))
        return g, CSRGraph(g)

    def test_sink_keeps_weight(self):
        graph, csr = self.simple_graph()
        weights = [0.0] * csr.num_nodes
        sink = csr.dense_id(lit("x"))
        weights[sink] = 0.5
        stats = WeightFixpointStats()
        result = dense_weight_fixpoint(
            csr, weights, [sink], epsilon=1e-9, stats=stats
        )
        assert result[sink] == 0.5
        assert stats.converged and stats.rounds == 0  # sinks are dropped

    def test_empty_subset_is_noop(self):
        graph, csr = self.simple_graph()
        weights = [0.3] * csr.num_nodes
        stats = WeightFixpointStats()
        result = dense_weight_fixpoint(csr, weights, [], epsilon=1e-9, stats=stats)
        assert result == weights
        assert result is not weights  # fresh buffer, input untouched
        assert stats.converged
        assert stats.rounds == 0
        assert stats.final_delta == 0.0

    def test_average_over_out_pairs(self):
        graph, csr = self.simple_graph()
        weights = [0.0] * csr.num_nodes
        weights[csr.dense_id(lit("x"))] = 0.2
        weights[csr.dense_id(lit("y"))] = 0.4
        a = csr.dense_id(uri("a"))
        result = dense_weight_fixpoint(csr, weights, [a], epsilon=1e-9)
        # ((0⊕0.2) + (0⊕0.4)) / 2 = 0.3, stable after one productive sweep.
        assert result[a] == pytest.approx(0.3)

    def test_epsilon_boundary_is_strict(self):
        """The sweep whose delta equals ε exactly does not stop the loop."""
        g = RDFGraph()
        g.add(uri("a"), uri("p"), lit("x"))
        csr = CSRGraph(g)
        weights = [0.0] * csr.num_nodes
        weights[csr.dense_id(uri("p"))] = 0.3
        weights[csr.dense_id(lit("x"))] = 0.2
        a = csr.dense_id(uri("a"))
        # Sweep 1 moves a from 0 to 0.5 (delta = 0.5), sweep 2 moves nothing.
        strict = WeightFixpointStats()
        dense_weight_fixpoint(csr, list(weights), [a], epsilon=0.5, stats=strict)
        assert strict.rounds == 2 and strict.converged
        loose = WeightFixpointStats()
        dense_weight_fixpoint(
            csr, list(weights), [a], epsilon=0.5000001, stats=loose
        )
        assert loose.rounds == 1 and loose.converged
        assert loose.final_delta == pytest.approx(0.5)

    def test_truncation_warns_and_reports(self, caplog):
        """A max_rounds cutoff is loud: warning + converged=False."""
        g = RDFGraph()
        g.add(uri("a"), uri("p"), uri("b"))
        g.add(uri("b"), uri("p"), uri("a"))
        g.add(uri("b"), uri("q"), lit("s"))
        csr = CSRGraph(g)
        weights = [0.0] * csr.num_nodes
        weights[csr.dense_id(lit("s"))] = 1.0
        subset = [csr.dense_id(uri("a")), csr.dense_id(uri("b"))]
        stats = WeightFixpointStats()
        with caplog.at_level(logging.WARNING, logger="repro.core.refinement"):
            dense_weight_fixpoint(
                csr, weights, subset, epsilon=1e-12, max_rounds=3, stats=stats
            )
        assert not stats.converged
        assert stats.rounds == 3
        assert stats.final_delta >= 1e-12
        assert any(
            "weight iteration" in record.message for record in caplog.records
        )

    def test_subset_out_of_dense_order(self):
        """Each node is swept over its own out-pairs, whatever the subset
        order: a permuted full-length subset is not the identity."""
        a, b, c = uri("a"), uri("b"), uri("c")
        g = RDFGraph()
        g.add(a, b, c)
        g.add(b, c, a)
        g.add(c, a, a)
        g.add(c, b, b)
        csr = CSRGraph(g)
        assert csr.dense_ids([a, b, c]) == [0, 1, 2]
        weights = [0.1, 0.7, 0.3]
        for subset in ([0, 1, 2], [2, 1, 0]):
            swept = dense_weight_fixpoint(
                csr, weights, subset, epsilon=1e-9, max_rounds=1
            )
            # a: 0.7 ⊕ 0.3; b: 0.3 ⊕ 0.1; c: (0.1 ⊕ 0.1)/2 + (0.7 ⊕ 0.7)/2.
            assert swept == pytest.approx([1.0, 0.4, 0.6])

    def test_generic_operator_matches_reference(self):
        """Non-default ⊕ operators take the fold path; pin it against the
        reference Jacobi iteration on the same graph."""
        rng = random.Random(7)
        graph = random_rdf_graph(rng, num_edges=30)
        csr = CSRGraph(graph)
        interner = ColorInterner()
        partition = Partition(
            {node: interner.node_color(node) for node in graph.nodes()}
        )
        weights = {node: 0.0 for node in graph.nodes()}
        subset = sorted((n for n in graph.nodes() if graph.out(n)), key=repr)
        reference = weighted_refine_fixpoint(
            graph,
            WeightedPartition(partition, weights),
            subset,
            interner,
            operator=oplus_probabilistic,
        )
        dense = dense_weight_fixpoint(
            csr,
            [0.0] * csr.num_nodes,
            sorted(csr.dense_ids(subset)),
            epsilon=1e-9,
            operator=oplus_probabilistic,
        )
        for node in graph.nodes():
            assert dense[csr.dense_id(node)] == pytest.approx(
                reference.weight(node), abs=1e-7
            )


# ----------------------------------------------------------------------
# The incremental alignment tracker
# ----------------------------------------------------------------------
class TestAlignmentTracker:
    @staticmethod
    def brute_force(colors, is_source):
        source_colors = {c for i, c in enumerate(colors) if is_source[i]}
        target_colors = {c for i, c in enumerate(colors) if not is_source[i]}
        unaligned_source = {
            i for i, c in enumerate(colors)
            if is_source[i] and c not in target_colors
        }
        unaligned_target = {
            i for i, c in enumerate(colors)
            if not is_source[i] and c not in source_colors
        }
        return unaligned_source, unaligned_target

    @classmethod
    def recolor_randomly(cls, rng, size, initial, palette):
        """Check the tracker after each of 300 random recolorings; return
        the ``(is_source, members before, members after)`` class changes."""
        colors = [rng.randrange(initial) for _ in range(size)]
        is_source = [rng.random() < 0.5 for _ in range(size)]
        tracker = AlignmentTracker(colors, is_source)
        expected = cls.brute_force(colors, is_source)
        assert (tracker.unaligned_source, tracker.unaligned_target) == expected
        changes = set()
        for _ in range(300):
            node = rng.randrange(size)
            new_color = rng.randrange(palette)
            if colors[node] != new_color:
                side = is_source[node]
                for color, delta in ((colors[node], -1), (new_color, 1)):
                    members = sum(
                        c == color and s == side for c, s in zip(colors, is_source)
                    )
                    changes.add((side, members, members + delta))
            colors[node] = new_color
            tracker.recolor(node, new_color)
            expected = cls.brute_force(colors, is_source)
            assert tracker.unaligned_source == expected[0]
            assert tracker.unaligned_target == expected[1]
        return changes

    @pytest.mark.parametrize("seed", [0, 5, 18])
    def test_matches_brute_force_under_random_recoloring(self, seed):
        rng = random.Random(seed)
        self.recolor_randomly(rng, size=60, initial=8, palette=12)
        # Over 2-3 colors, classes go from 0 to 1 to 2 members, back to 1
        # and to 0, on both sides.
        changes = set()
        for palette in (2, 3):
            changes |= self.recolor_randomly(rng, size=6, initial=palette, palette=palette)
        for side in (True, False):
            assert {(side, 0, 1), (side, 1, 2), (side, 2, 1), (side, 1, 0)} <= changes

    def test_matches_partition_alignment_on_real_graph(self):
        source, target = mutation_workload(4)
        union = combine(source, target)
        result = Aligner(method="hybrid").align(source, target)
        csr = CSRGraph(result.graph)
        colors = csr.gather_colors(result.partition.as_dict())
        is_source = [node in result.graph.source_nodes for node in csr.nodes]
        tracker = AlignmentTracker(colors, is_source)
        alignment = PartitionAlignment(result.graph, result.partition)
        assert {csr.nodes[i] for i in tracker.unaligned_source} == set(
            alignment.unaligned_source()
        )
        assert {csr.nodes[i] for i in tracker.unaligned_target} == set(
            alignment.unaligned_target()
        )


# ----------------------------------------------------------------------
# Cached side scans (PartitionAlignment is immutable after __init__)
# ----------------------------------------------------------------------
class TestAlignmentCaching:
    def test_side_scans_cached(self, figure7_combined):
        from repro.core.hybrid import hybrid_partition

        alignment = PartitionAlignment(
            figure7_combined, hybrid_partition(figure7_combined)
        )
        first = alignment.unaligned_source()
        assert alignment.unaligned_source() is first  # computed once
        assert alignment.unaligned_target() is alignment.unaligned_target()
        assert alignment.unaligned() == first | alignment.unaligned_target()


# ----------------------------------------------------------------------
# Full Algorithm 2 parity across engines
# ----------------------------------------------------------------------
class TestDenseOverlapParity:
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_mutation_workloads(self, seed):
        source, target = mutation_workload(seed)
        reference = Aligner(method="overlap").align(source, target)
        dense = Aligner(method="overlap", engine="dense").align(source, target)
        assert dense.partition.equivalent_to(reference.partition)
        assert dense.matched_entities() == reference.matched_entities()
        assert dense.unaligned_counts() == reference.unaligned_counts()
        # Identical round traces, not merely an equivalent endpoint.
        assert dense.trace.literal_matches == reference.trace.literal_matches
        assert dense.trace.rounds == reference.trace.rounds
        assert (
            dense.trace.stopped_by_round_limit
            == reference.trace.stopped_by_round_limit
        )
        # Weights within ε (engines sum contributions in different orders).
        for node in reference.partition:
            assert dense.weighted.weight(node) == pytest.approx(
                reference.weighted.weight(node), abs=1e-6
            )

    def test_figure7_worked_example(self, figure7_combined):
        """The paper's Figure 8 weighted partition survives the dense path."""
        from repro.similarity.overlap_alignment import (
            OverlapTrace,
            overlap_partition,
        )

        reference_trace, dense_trace = OverlapTrace(), OverlapTrace()
        reference = overlap_partition(
            figure7_combined, splitter=character_set, trace=reference_trace
        )
        dense = overlap_partition(
            figure7_combined,
            splitter=character_set,
            trace=dense_trace,
            engine="dense",
        )
        assert dense.partition.equivalent_to(reference.partition)
        assert dense_trace.literal_matches == reference_trace.literal_matches
        assert dense_trace.rounds == reference_trace.rounds
        graph = figure7_combined
        assert dense.distance(
            graph.from_source(uri("w")), graph.from_target(uri("w2"))
        ) == pytest.approx(1 / 4)
        assert dense.distance(
            graph.from_source(uri("v")), graph.from_target(uri("v2"))
        ) == pytest.approx(1 / 6)

    def test_both_engines_record_weight_stats(self):
        source, target = mutation_workload(8)
        for engine in ("reference", "dense"):
            result = Aligner(method="overlap", engine=engine).align(source, target)
            trace = result.trace
            assert len(trace.weight_stats) == trace.total_rounds
            assert all(stats.converged for stats in trace.weight_stats)
            assert trace.weight_truncations == 0
            assert all(stats.engine == engine for stats in trace.weight_stats)

    def test_shared_csr_snapshot_accepted(self):
        source, target = mutation_workload(2)
        union = combine(source, target)
        interner = ColorInterner()
        from repro.core.hybrid import hybrid_partition
        from repro.similarity.overlap_alignment import overlap_partition

        base = hybrid_partition(union, interner, engine="dense")
        csr = union.csr()
        weighted = overlap_partition(
            union, interner=interner, base=base, engine="dense"
        )
        assert union.csr() is csr  # the base and every generation share it
        reference = overlap_partition(CombinedGraph(source, target))
        assert weighted.partition.equivalent_to(reference.partition)
