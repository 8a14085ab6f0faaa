"""Micro benchmarks for the core algorithms.

* batch vs incremental (worklist) partition refinement — the ablation for
  the optimization DESIGN.md calls out,
* the hash-consing interner,
* full-bisimulation throughput per edge.
"""

from __future__ import annotations

import pytest

from repro.core.bisimulation import bisimulation_partition
from repro.core.incremental import incremental_refine_fixpoint
from repro.core.refinement import bisim_refine_fixpoint
from repro.datasets import EFOGenerator
from repro.model import combine
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


def test_incremental_refinement(benchmark, efo_union):
    def run():
        interner = ColorInterner()
        return incremental_refine_fixpoint(
            efo_union, label_partition(efo_union, interner), None, interner
        )

    partition = benchmark(run)
    assert partition.num_classes > 1


def test_batch_vs_incremental_equivalent(efo_union):
    """The two refinement variants must produce the same partition."""
    interner_a = ColorInterner()
    batch = bisim_refine_fixpoint(
        efo_union, label_partition(efo_union, interner_a), None, interner_a
    )
    interner_b = ColorInterner()
    incremental = incremental_refine_fixpoint(
        efo_union, label_partition(efo_union, interner_b), None, interner_b
    )
    assert incremental.equivalent_to(batch)


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
