"""Micro benchmarks for the core algorithms.

* batch partition refinement, full and on the blanks only,
* the hash-consing interner,
* full-bisimulation throughput per edge,
* building ``Align(λ)`` and ``UN(λ)`` on one Figure-11 cell (report-only),
* ingesting a version pair: parsing both N-Triples files and building
  their union (report-only).
"""

from __future__ import annotations

import pytest

from repro.core.bisimulation import bisimulation_partition
from repro.core.refinement import bisim_refine_fixpoint
from repro.datasets import EFOGenerator
from repro.datasets.synthetic import SyntheticConfig, SyntheticGenerator
from repro.experiments.store import VersionStore
from repro.io import ntriples
from repro.model import CombinedGraph, combine
from repro.partition.alignment import PartitionAlignment, unaligned_non_literals
from repro.partition.coloring import label_partition
from repro.partition.interner import ColorInterner


@pytest.fixture(scope="module")
def efo_union():
    generator = EFOGenerator(scale=0.6)
    return combine(generator.graph(6), generator.graph(7))


def test_batch_refinement(benchmark, efo_union):
    def run():
        interner = ColorInterner()
        return bisim_refine_fixpoint(
            efo_union, label_partition(efo_union, interner), None, interner
        )

    partition = benchmark(run)
    assert partition.num_classes > 1


def test_deblank_refinement_on_blanks_only(benchmark, efo_union):
    def run():
        interner = ColorInterner()
        return bisim_refine_fixpoint(
            efo_union,
            label_partition(efo_union, interner),
            efo_union.blanks(),
            interner,
        )

    partition = benchmark(run)
    assert partition.num_classes > 1


def test_interner_throughput(benchmark):
    def run():
        interner = ColorInterner()
        for i in range(20_000):
            interner.intern(("recolor", i % 500, ((i % 7, i % 11),)))
        return interner

    interner = benchmark(run)
    assert len(interner) <= 20_000


def test_full_bisimulation_partition(benchmark, efo_union):
    partition = benchmark(lambda: bisimulation_partition(efo_union))
    assert partition.num_classes > 1


def test_partition_alignment_cell(benchmark):
    """``PartitionAlignment`` plus ``UN(λ)`` on Figure 11's v1 ⊎ v8 cell.

    The store is Figure 11's (EFO, scale 1.0, seed 234, 10 versions) and
    the partition is the cell's hybrid one.  Report-only: the autouse
    fixture records the timing into ``results/bench.json``; no gate.
    """
    store = VersionStore(EFOGenerator(scale=1.0, seed=234, versions=10))
    context = store.cell_context(0, 7)
    union, partition = context.union, context.hybrid

    def run():
        alignment = PartitionAlignment(union, partition)
        return alignment.matched_class_count(), unaligned_non_literals(union, partition)

    matched, unaligned = benchmark(run)
    assert 0 < matched < union.num_nodes
    assert unaligned


@pytest.fixture(scope="module")
def scale_free_pair_texts():
    generator = SyntheticGenerator(
        config=SyntheticConfig(shape="scale_free", seed=7, versions=2, scale=50)
    )
    return [ntriples.dumps(generator.graph(version)) for version in range(2)]


def test_ingest_pair(benchmark, scale_free_pair_texts):
    """``ntriples.loads`` of both versions of a scale-50 ``scale_free``
    pair, then their ``CombinedGraph``.  Report-only: the autouse fixture
    records the timing into ``results/bench.json``; no gate."""

    def run():
        source, target = (ntriples.loads(text) for text in scale_free_pair_texts)
        return CombinedGraph(source, target)

    union = benchmark(run)
    assert union.num_edges == sum(text.count("\n") for text in scale_free_pair_texts)
