"""Tests for fixpoint maintenance under deltas (repro.core.maintain).

The contract under test, in increasing generality:

* hand-built splitting / coarsening cases where the expected class
  structure is known — in particular deletions and literal edits that
  *merge* previously distinct classes, the path the ``mutation_chain``
  scenario never exercises;
* the documented precondition: maintaining a partition whose non-subset
  classes are not label-grounded (a hybrid base) raises
  :class:`~repro.exceptions.PartitionError`, and
  :func:`~repro.core.maintain.maintain_or_batch` falls back to batch —
  never a silently divergent partition;
* the Hypothesis property: on random graphs under random composable
  mutation sequences, ``maintain_fixpoint(previous, delta)`` is
  equivalent (up to recoloring) to batch
  :func:`~repro.core.refinement.bisim_refine_fixpoint` on the mutated
  graph, for both the deblanking subset and full bisimulation;
* the chain contract: anchored by
  :func:`~repro.core.maintain.canonical_fixpoint` in one chain interner,
  a step carries every color outside its delta's predecessor closure,
  and a cycle in the closure falls back to batch for one step.
"""

from __future__ import annotations

import itertools
import random

from hypothesis import given, settings, strategies as st

from repro.align import AlignConfig, Aligner
from repro.core.maintain import (
    MaintenanceStats,
    canonical_fixpoint,
    deblank_fixpoint,
    maintain_fixpoint,
    maintain_or_batch,
)
from repro.core.hybrid import hybrid_partition
from repro.core.refinement import bisim_refine_fixpoint
from repro.datasets.synthetic import SCENARIOS, SyntheticGenerator
from repro.delta.changes import VersionChanges, diff
from repro.exceptions import PartitionError
from repro.model import RDFGraph, blank, combine, lit, uri
from repro.partition.coloring import label_partition
from repro.partition.interner import ColorInterner

import pytest

from .conftest import random_rdf_graph

_seeds = st.integers(min_value=0, max_value=1_000_000)


def _batch(graph, subset):
    interner = ColorInterner()
    return bisim_refine_fixpoint(
        graph, label_partition(graph, interner), subset, interner
    )


def _perturb(before: RDFGraph, rng: random.Random):
    """A random mutated sibling of *before* plus its identity map.

    Exercises every delta constructor input: URI renames (label
    changes), blank renames (pure key substitution — the archive
    reshuffle), edge deletions (the coarsening trigger), node and edge
    insertions.
    """
    fresh = itertools.count()
    renames = {}
    for node in sorted(before.uris(), key=repr):
        if rng.random() < 0.2:
            renames[node] = uri(f"ren{next(fresh)}")
    for node in sorted(before.blanks(), key=repr):
        if rng.random() < 0.3:
            renames[node] = blank(f"renb{next(fresh)}")

    after = RDFGraph()
    dropped = set()
    for node in sorted(before.nodes(), key=repr):
        if rng.random() < 0.05:
            dropped.add(node)  # node deletion takes its edges along
            continue
        after.term(renames.get(node, node))
    for s, p, o in sorted(before.edges(), key=repr):
        if {s, p, o} & dropped or rng.random() < 0.15:
            continue
        after.add(renames.get(s, s), renames.get(p, p), renames.get(o, o))

    new_terms = [uri(f"new{next(fresh)}") for _ in range(rng.randrange(3))]
    new_terms += [blank(f"newb{next(fresh)}") for _ in range(rng.randrange(3))]
    new_terms += [lit(f"newlit{next(fresh)}") for _ in range(rng.randrange(2))]
    for term in new_terms:
        after.term(term)
    subjects = sorted(after.uris() | after.blanks(), key=repr)
    predicates = sorted(after.uris(), key=repr)
    objects = sorted(after.nodes(), key=repr)
    if subjects and predicates:
        for _ in range(rng.randrange(5)):
            after.add(
                rng.choice(subjects), rng.choice(predicates), rng.choice(objects)
            )
    return after, renames


class TestHandBuilt:
    def test_pure_rename_is_key_substitution(self):
        """A blank reshuffle keeps every class; nothing is recolored."""
        g1 = RDFGraph()
        g1.add(blank("a"), uri("p"), lit("x"))
        g1.add(blank("b"), uri("p"), lit("y"))
        g2 = RDFGraph()
        g2.add(blank("a2"), uri("p"), lit("x"))
        g2.add(blank("b2"), uri("p"), lit("y"))
        interner = ColorInterner()
        previous = canonical_fixpoint(g1, g1.blanks(), interner)
        delta = diff(g1, g2, renames={blank("a"): blank("a2"),
                                      blank("b"): blank("b2")})
        stats = MaintenanceStats()
        maintained = maintain_fixpoint(
            g2, previous, delta, g2.blanks(), interner, stats
        )
        assert maintained.equivalent_to(deblank_fixpoint(g2))
        assert stats.refined == 0
        assert stats.kept == 2

    def test_insertion_splits_a_class(self):
        """A new distinguishing edge separates previously merged blanks."""
        g1 = RDFGraph()
        g1.add(blank("a"), uri("p"), lit("x"))
        g1.add(blank("b"), uri("p"), lit("x"))
        g2 = RDFGraph()
        g2.add(blank("a"), uri("p"), lit("x"))
        g2.add(blank("b"), uri("p"), lit("x"))
        g2.add(blank("b"), uri("q"), lit("z"))
        previous = deblank_fixpoint(g1)
        assert previous.same_class(blank("a"), blank("b"))
        maintained = maintain_fixpoint(g2, previous, diff(g1, g2), g2.blanks())
        assert maintained.equivalent_to(deblank_fixpoint(g2))
        assert not maintained.same_class(blank("a"), blank("b"))

    def test_deletion_merges_classes(self):
        """Coarsening: removing the distinguishing edge merges classes —
        the path splitting alone cannot reach."""
        g1 = RDFGraph()
        g1.add(blank("a"), uri("p"), lit("x"))
        g1.add(blank("b"), uri("p"), lit("x"))
        g1.add(blank("b"), uri("q"), lit("z"))
        g2 = RDFGraph()
        g2.add(blank("a"), uri("p"), lit("x"))
        g2.add(blank("b"), uri("p"), lit("x"))
        g2.term(lit("z"))
        previous = deblank_fixpoint(g1)
        assert not previous.same_class(blank("a"), blank("b"))
        maintained = maintain_fixpoint(g2, previous, diff(g1, g2), g2.blanks())
        assert maintained.equivalent_to(deblank_fixpoint(g2))
        assert maintained.same_class(blank("a"), blank("b"))

    def test_literal_edit_merges_upstream_classes(self):
        """An object-value edit propagates to the blanks pointing at it."""
        g1 = RDFGraph()
        g1.add(blank("a"), uri("p"), lit("x"))
        g1.add(blank("b"), uri("p"), lit("y"))
        g2 = RDFGraph()
        g2.add(blank("a"), uri("p"), lit("x"))
        g2.add(blank("b"), uri("p"), lit("x"))
        previous = deblank_fixpoint(g1)
        assert not previous.same_class(blank("a"), blank("b"))
        maintained = maintain_fixpoint(g2, previous, diff(g1, g2), g2.blanks())
        assert maintained.equivalent_to(deblank_fixpoint(g2))
        assert maintained.same_class(blank("a"), blank("b"))

    def test_empty_delta_is_a_no_op(self):
        rng = random.Random(7)
        graph = random_rdf_graph(rng)
        previous = deblank_fixpoint(graph)
        maintained = maintain_fixpoint(
            graph, previous, VersionChanges(), graph.blanks()
        )
        assert maintained.equivalent_to(previous)


class TestPrecondition:
    def test_disconnected_delta_is_rejected(self):
        """A delta that does not connect previous to graph must raise."""
        g1 = RDFGraph()
        g1.add(blank("a"), uri("p"), lit("x"))
        g2 = RDFGraph()
        g2.add(blank("a"), uri("p"), lit("x"))
        g2.add(uri("s"), uri("p"), lit("x"))  # appears in no delta
        with pytest.raises(PartitionError):
            maintain_fixpoint(g2, deblank_fixpoint(g1), VersionChanges(),
                              g2.blanks())

    @staticmethod
    def _hybrid_case():
        """A combined graph whose hybrid partition puts two *different*
        URI labels into one class (the paper's ``ed-uni`` → ``uoe``
        rename) — the label-grounded violation."""
        g1 = RDFGraph()
        g1.add(uri("ed-uni"), uri("p"), lit("x"))
        g1.add(blank("a"), uri("q"), uri("ed-uni"))
        g2 = RDFGraph()
        g2.add(uri("uoe"), uri("p"), lit("x"))
        g2.add(blank("a"), uri("q"), uri("uoe"))
        union = combine(g1, g2)
        previous = hybrid_partition(union, ColorInterner())
        # The case only has teeth if the hybrid really merged the two
        # renamed URIs into one non-blank class.
        blanks = union.blanks()
        labels = union.labels()
        by_color = {}
        for node, color in previous.items():
            if node not in blanks:
                by_color.setdefault(color, set()).add(labels[node])
        assert any(len(label_set) > 1 for label_set in by_color.values())
        return union, previous

    def test_hybrid_base_is_rejected(self):
        """Hybrid partitions refine non-blank classes beyond labels —
        maintenance must refuse them, not silently diverge."""
        union, previous = self._hybrid_case()
        with pytest.raises(PartitionError):
            maintain_fixpoint(union, previous, VersionChanges(), union.blanks())

    def test_maintain_or_batch_falls_back(self):
        union, previous = self._hybrid_case()
        stats = MaintenanceStats()
        result = maintain_or_batch(
            union, previous, VersionChanges(), union.blanks(), stats=stats
        )
        assert stats.fell_back
        assert result.equivalent_to(_batch(union, union.blanks()))


class TestPropertyRandom:
    @given(seed=_seeds)
    @settings(max_examples=40, deadline=None)
    def test_maintain_equals_batch_deblanking(self, seed):
        rng = random.Random(seed)
        before = random_rdf_graph(rng, num_edges=18)
        after, renames = _perturb(before, rng)
        delta = diff(before, after, renames=renames)
        maintained = maintain_fixpoint(
            after, deblank_fixpoint(before), delta, after.blanks()
        )
        assert maintained.equivalent_to(deblank_fixpoint(after))

    @given(seed=_seeds)
    @settings(max_examples=20, deadline=None)
    def test_maintain_equals_batch_full_bisimulation(self, seed):
        """subset=None: every node refined, every node maintained."""
        rng = random.Random(seed)
        before = random_rdf_graph(rng, num_edges=18)
        after, renames = _perturb(before, rng)
        delta = diff(before, after, renames=renames)
        maintained = maintain_fixpoint(
            after, _batch(before, None), delta, None
        )
        assert maintained.equivalent_to(_batch(after, None))

    @given(seed=_seeds)
    @settings(max_examples=15, deadline=None)
    def test_mutation_sequences_compose(self, seed):
        """Maintenance survives a chain of deltas — each step maintains
        the previous step's *maintained* partition, and every
        intermediate equals batch."""
        rng = random.Random(seed)
        graph = random_rdf_graph(rng, num_edges=18)
        partition = deblank_fixpoint(graph)
        for _ in range(3):
            mutated, renames = _perturb(graph, rng)
            delta = diff(graph, mutated, renames=renames)
            partition = maintain_fixpoint(
                mutated, partition, delta, mutated.blanks()
            )
            assert partition.equivalent_to(deblank_fixpoint(mutated))
            graph = mutated


class TestChainContract:
    """One interner shared across a whole chain, anchored by
    :func:`canonical_fixpoint`: colors outside each step's closure are
    carried as they are."""

    @given(seed=_seeds)
    @settings(max_examples=25, deadline=None)
    def test_verbatim_chain_with_canon_cache_equals_batch(self, seed):
        """Blank subset, three steps: every step equals batch."""
        rng = random.Random(seed)
        graph = random_rdf_graph(rng, num_edges=18)
        interner = ColorInterner()
        partition = canonical_fixpoint(graph, graph.blanks(), interner)
        for _ in range(3):
            mutated, renames = _perturb(graph, rng)
            delta = diff(graph, mutated, renames=renames)
            partition = maintain_fixpoint(
                mutated, partition, delta, mutated.blanks(), interner
            )
            assert partition.equivalent_to(deblank_fixpoint(mutated))
            graph = mutated

    @given(seed=_seeds)
    @settings(max_examples=15, deadline=None)
    def test_verbatim_chain_full_bisimulation(self, seed):
        rng = random.Random(seed)
        graph = random_rdf_graph(rng, num_edges=18)
        interner = ColorInterner()
        partition = canonical_fixpoint(graph, None, interner)
        for _ in range(2):
            mutated, renames = _perturb(graph, rng)
            delta = diff(graph, mutated, renames=renames)
            partition = maintain_fixpoint(
                mutated, partition, delta, None, interner
            )
            assert partition.equivalent_to(_batch(mutated, None))
            graph = mutated

    def test_chain_equals_batch_and_carries(self):
        """Three perturbation steps per draw, for the blank subset and
        for ``subset=None``: every step equals batch, and some step
        carries part of its subset instead of walking all of it."""
        carried = []

        @given(seed=_seeds, full=st.booleans())
        @settings(max_examples=40, deadline=None, derandomize=True)
        def chain(seed, full):
            rng = random.Random(seed)
            graph = random_rdf_graph(rng, num_edges=18)
            interner = ColorInterner()
            subset = None if full else graph.blanks()
            partition = canonical_fixpoint(graph, subset, interner)
            for _ in range(3):
                mutated, renames = _perturb(graph, rng)
                delta = diff(graph, mutated, renames=renames)
                subset = None if full else mutated.blanks()
                stats = MaintenanceStats()
                partition = maintain_fixpoint(
                    mutated, partition, delta, subset, interner, stats
                )
                assert partition.equivalent_to(_batch(mutated, subset))
                size = len(mutated.labels()) if full else len(subset)
                carried.append(0 < stats.refined < size)
                graph = mutated

        chain()
        assert any(carried)

    def test_cyclic_cones_fall_back_to_quotient_merge(self):
        """A blank cycle has no canonical form: the step whose closure
        holds one falls back to batch refinement, with the same result."""
        g1 = RDFGraph()
        g1.add(blank("a"), uri("p"), blank("b"))
        g1.add(blank("b"), uri("p"), blank("a"))
        g1.add(blank("c"), uri("p"), blank("c"))
        g1.add(blank("a"), uri("q"), lit("x"))
        g2 = RDFGraph()
        g2.add(blank("a"), uri("p"), blank("b"))
        g2.add(blank("b"), uri("p"), blank("a"))
        g2.add(blank("c"), uri("p"), blank("c"))
        g2.term(lit("x"))  # deletion: a/b lose their distinguisher
        interner = ColorInterner()
        previous = canonical_fixpoint(g1, g1.blanks(), interner)
        stats = MaintenanceStats()
        maintained = maintain_fixpoint(
            g2, previous, diff(g1, g2), g2.blanks(), interner, stats
        )
        assert stats.fell_back
        assert maintained.equivalent_to(deblank_fixpoint(g2))
        # The coarsening actually happened: a, b and c all look alike now.
        assert maintained.same_class(blank("a"), blank("c"))

    def test_fallback_walks_then_carries(self):
        """A step whose closure holds a blank cycle falls back to batch;
        the next step cannot carry a batch result and walks its whole
        subset; the step after that carries again."""
        steps = [RDFGraph() for _ in range(4)]
        for graph in steps:
            graph.add(blank("a"), uri("p"), lit("x"))
            graph.add(blank("b"), uri("p"), lit("y"))
            graph.add(blank("c"), uri("p"), blank("a"))
        steps[1].add(blank("d"), uri("q"), blank("d"))  # a blank cycle
        steps[2].add(blank("d"), uri("q"), lit("z"))  # cycle broken
        steps[3].add(blank("d"), uri("q"), lit("z"))
        steps[3].add(blank("b"), uri("q"), lit("z"))  # b's cone changes
        interner = ColorInterner()
        partition = canonical_fixpoint(steps[0], steps[0].blanks(), interner)
        outcomes = []
        for before, after in zip(steps, steps[1:]):
            stats = MaintenanceStats()
            partition = maintain_fixpoint(
                after, partition, diff(before, after), after.blanks(),
                interner, stats,
            )
            assert partition.equivalent_to(deblank_fixpoint(after))
            outcomes.append((stats.fell_back, stats.refined, stats.kept))
        assert outcomes == [(True, 1, 3), (False, 4, 0), (False, 1, 3)]


class TestScenarioChain:
    def test_mutation_chain_maintains_every_step(self):
        """The pinned scenario's generator deltas drive maintenance end
        to end, with the identity-preserving rename maps."""
        generator = SyntheticGenerator(config=SCENARIOS["mutation_chain"])
        graphs = generator.graphs()
        partition = deblank_fixpoint(graphs[0])
        for index in range(len(graphs) - 1):
            delta = generator.version_changes(index)
            partition = maintain_fixpoint(
                graphs[index + 1], partition, delta,
                graphs[index + 1].blanks(),
            )
            assert partition.equivalent_to(deblank_fixpoint(graphs[index + 1]))

    @pytest.mark.parametrize("method", ["deblank", "hybrid", "overlap"])
    def test_incremental_chain_reports_match_batch(self, method):
        """``align_chain(incremental=True)`` renders the batch chain's
        report bytes, whether it maintains under the generator's deltas
        or canonizes each version without them."""
        generator = SyntheticGenerator(config=SCENARIOS["mutation_chain"])
        graphs = generator.graphs()
        deltas = [
            generator.version_changes(index) for index in range(len(graphs) - 1)
        ]
        config = AlignConfig(method=method)
        expected = [
            result.report(config).to_json()
            for result in Aligner(config).align_chain(graphs)
        ]
        incremental = config.evolve(incremental=True)
        for changes in (deltas, None):
            chain = Aligner(incremental).align_chain(graphs, changes=changes)
            assert [
                result.report(incremental).to_json() for result in chain
            ] == expected
