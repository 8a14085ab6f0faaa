"""Engine parity: the dense engine must reproduce the reference engine.

The dense engine (repro.core.dense) is a performance rewrite of the
reference refinement (repro.core.refinement); the contract is that both
produce *equivalent* partitions (same classes, colors notwithstanding) on
every workload and every alignment method.  These property-style tests
exercise that contract on random mutation workloads built with the
operators of repro.datasets.mutations.
"""

from __future__ import annotations

import logging
import random

import pytest

from repro.align import Aligner, method_order
from repro.core.bisimulation import bisimulation_partition
from repro.core.deblank import deblank_partition
from repro.core.dense import dense_refine_fixpoint, resolve_refine_engine
from repro.core.hybrid import hybrid_partition
from repro.core.refinement import FixpointStats, bisim_refine_fixpoint
from repro.datasets.mutations import mutated_version, random_mutation_graph
from repro.exceptions import ExperimentError
from repro.model import RDFGraph, combine
from repro.partition.coloring import label_partition
from repro.partition.interner import ColorInterner

from .conftest import random_rdf_graph

VOCABULARY = ("graph", "node", "edge", "version", "aligned", "blank", "color")


def workload(seed: int) -> tuple[RDFGraph, RDFGraph]:
    """A random mutation workload (shared builders, see datasets.mutations)."""
    rng = random.Random(seed)
    source = random_mutation_graph(
        rng, num_uris=10, num_literals=8, num_blanks=8, num_edges=40
    )
    return source, mutated_version(rng, source, VOCABULARY)


class TestAlignmentParity:
    @pytest.mark.parametrize("seed", [1, 7, 42])
    @pytest.mark.parametrize("method", method_order())
    def test_methods_equivalent_across_engines(self, method, seed):
        source, target = workload(seed)
        reference = Aligner(method=method).align(source, target)
        dense = Aligner(method=method, engine="dense").align(source, target)
        assert dense.partition.equivalent_to(reference.partition)
        assert dense.matched_entities() == reference.matched_entities()
        assert dense.unaligned_counts() == reference.unaligned_counts()

    def test_result_records_engine(self):
        source, target = workload(3)
        assert Aligner().align(source, target).engine == "reference"
        assert Aligner(engine="dense").align(source, target).engine == "dense"

    def test_unknown_engine_rejected(self):
        source, target = workload(3)
        with pytest.raises(ExperimentError):
            Aligner(engine="sparse").align(source, target)
        with pytest.raises(ExperimentError):
            resolve_refine_engine("sparse")


class TestFixpointParity:
    @pytest.mark.parametrize("seed", [2, 9, 23, 31])
    def test_full_refinement_same_rounds_and_classes(self, seed):
        source, target = workload(seed)
        union = combine(source, target)
        ref_interner, dense_interner = ColorInterner(), ColorInterner()
        ref_stats, dense_stats = FixpointStats(), FixpointStats()
        reference = bisim_refine_fixpoint(
            union, label_partition(union, ref_interner), None, ref_interner,
            stats=ref_stats,
        )
        dense = dense_refine_fixpoint(
            union, label_partition(union, dense_interner), None, dense_interner,
            stats=dense_stats,
        )
        assert dense.equivalent_to(reference)
        # Identical stop semantics, not merely an equivalent result.
        assert dense_stats.rounds == ref_stats.rounds
        assert dense_stats.final_classes == ref_stats.final_classes
        assert dense_stats.converged and ref_stats.converged

    @pytest.mark.parametrize("seed", [5, 13])
    def test_partition_builders_equivalent(self, seed):
        source, target = workload(seed)
        union = combine(source, target)
        assert deblank_partition(union, engine="dense").equivalent_to(
            deblank_partition(union)
        )
        assert hybrid_partition(union, engine="dense").equivalent_to(
            hybrid_partition(union)
        )
        assert bisimulation_partition(union).equivalent_to(
            dense_refine_fixpoint(
                union,
                label_partition(union, interner := ColorInterner()),
                None,
                interner,
            )
        )

    def test_subset_refinement_preserves_other_colors(self, rng):
        graph = random_rdf_graph(rng, num_edges=30)
        interner = ColorInterner()
        initial = label_partition(graph, interner)
        subset = graph.blanks()
        refined = dense_refine_fixpoint(graph, initial, subset, interner)
        for node in graph.nodes():
            if node not in subset:
                assert refined[node] == initial[node]

    def test_seeded_interner_path(self, rng):
        """Without an interner, foreign colors are re-seeded (as reference)."""
        graph = random_rdf_graph(rng, num_edges=25)
        foreign = label_partition(graph, ColorInterner())
        dense = dense_refine_fixpoint(graph, foreign)
        reference = bisim_refine_fixpoint(graph, foreign)
        assert dense.equivalent_to(reference)


class TestTruncationSignal:
    def test_truncated_run_reports_non_convergence(self, figure2_graph, caplog):
        interner = ColorInterner()
        initial = label_partition(figure2_graph, interner)
        for refine in (bisim_refine_fixpoint, dense_refine_fixpoint):
            stats = FixpointStats()
            with caplog.at_level(logging.WARNING, logger="repro.core.refinement"):
                caplog.clear()
                bounded = refine(
                    figure2_graph, initial, None, interner,
                    max_rounds=0, stats=stats,
                )
            assert bounded.equivalent_to(initial)
            assert stats.rounds == 0
            assert not stats.converged
            assert any(
                "before reaching a fixpoint" in record.message
                for record in caplog.records
            )

    def test_converged_run_reports_convergence(self, figure2_graph):
        interner = ColorInterner()
        initial = label_partition(figure2_graph, interner)
        stats = FixpointStats()
        bisim_refine_fixpoint(figure2_graph, initial, None, interner, stats=stats)
        assert stats.converged
        assert stats.rounds >= 1
        assert stats.final_classes >= stats.initial_classes
