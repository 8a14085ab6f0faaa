"""The one ``BisimRefine*`` loop (repro.core.refinement.refine_to_fixpoint).

Full bisimulation, the round-by-round trace, the keyed and bidirectional
variants and the store's joint quotient refinement each used to run their
own copy of the fixpoint loop.  They now hand a recolor key to one loop.
The copies below are those loops as they were, kept as references the way
``tests/test_enrichment.py`` keeps its brute-force Enrich: on drawn graphs
every variant must return the reference's colors (``==``, not merely an
equivalent partition) and leave its interner the same size.
"""

from __future__ import annotations

import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.context import bidirectional_refine_fixpoint, inbound_index
from repro.core.deblank import deblank_partition
from repro.core.hybrid import blanked_partition
from repro.core.keyed import keyed_refine_fixpoint, predicate_key
from repro.core.ksignature import SignatureStats, ksignature_partition
from repro.core.refinement import (
    bisim_refine_fixpoint,
    bisim_refine_step,
    check_interner_covers,
    refinement_trace,
    reseed_partition,
)
from repro.experiments.store import BlankSummary, blank_summary, joint_quotient_colors
from repro.model import combine, uri
from repro.partition.alignment import unaligned_non_literals
from repro.partition.coloring import Partition, label_partition
from repro.partition.interner import ColorInterner

from .test_properties import evolving_pairs, rdf_graphs


# ---------------------------------------------------------------------------
# The loops as they were, one per variant
# ---------------------------------------------------------------------------
def reference_bisim_fixpoint(graph, partition, subset=None, interner=None, max_rounds=None):
    if interner is None:
        partition, interner = reseed_partition(partition)
    else:
        check_interner_covers(partition, interner)
    nodes = list(subset) if subset is not None else list(graph.nodes())
    current = partition
    current_classes = current.num_classes
    rounds = 0
    while True:
        if max_rounds is not None and rounds >= max_rounds:
            return current
        refined = bisim_refine_step(graph, current, nodes, interner)
        refined_classes = refined.num_classes
        rounds += 1
        if refined_classes == current_classes:
            return current
        current = refined
        current_classes = refined_classes


def reference_trace(graph, partition, subset=None, interner=None, max_rounds=1000):
    if interner is None:
        partition, interner = reseed_partition(partition)
    else:
        check_interner_covers(partition, interner)
    nodes = list(subset) if subset is not None else list(graph.nodes())
    trace = [partition]
    for _ in range(max_rounds):
        refined = bisim_refine_step(graph, trace[-1], nodes, interner)
        if refined.num_classes == trace[-1].num_classes:
            return trace
        trace.append(refined)
    return trace


def reference_keyed_fixpoint(graph, partition, subset, interner, key, max_rounds=None):
    check_interner_covers(partition, interner)
    nodes = list(subset)
    current = partition
    current_classes = current.num_classes
    rounds = 0
    while True:
        if max_rounds is not None and rounds >= max_rounds:
            return current
        updates = {}
        for node in nodes:
            pair_colors = tuple(
                sorted(
                    {
                        (current[predicate], current[obj])
                        for predicate, obj in graph.out(node)
                        if key(graph, predicate, obj)
                    }
                )
            )
            updates[node] = interner.intern(("keyed", current[node], pair_colors))
        refined = current.with_colors(updates)
        refined_classes = refined.num_classes
        rounds += 1
        if refined_classes == current_classes:
            return current
        current = refined
        current_classes = refined_classes


def reference_bidirectional_fixpoint(
    graph, partition, subset=None, interner=None, max_rounds=None
):
    if interner is None:
        interner = ColorInterner()
        partition = Partition(
            {node: interner.intern(("seed", color)) for node, color in partition.items()}
        )
    else:
        check_interner_covers(partition, interner)
    nodes = list(subset) if subset is not None else list(graph.nodes())
    inbound = inbound_index(graph)
    current = partition
    current_classes = current.num_classes
    rounds = 0
    while True:
        if max_rounds is not None and rounds >= max_rounds:
            return current
        updates = {}
        for node in nodes:
            out_colors = tuple(
                sorted({(current[p], current[o]) for p, o in graph.out(node)})
            )
            in_colors = tuple(
                sorted({(current[p], current[s]) for p, s in inbound[node]})
            )
            updates[node] = interner.intern(
                ("bicolor", current[node], out_colors, in_colors)
            )
        refined = current.with_colors(updates)
        refined_classes = refined.num_classes
        rounds += 1
        if refined_classes == current_classes:
            return current
        current = refined
        current_classes = refined_classes


def reference_joint_quotient(first: BlankSummary, second: BlankSummary):
    interner = ColorInterner()
    bottom = interner.blank_color()
    sides = (first, second)
    colors = [[bottom] * side.num_classes for side in sides]
    if not (first.class_pairs or second.class_pairs):
        return [], []

    def resolve(tok, current):
        if tok[0] == "b":
            return current[tok[1]]
        return interner.label_color(tok[1])

    def distinct(state):
        return len({color for side in state for color in side})

    count = distinct(colors)
    while True:
        refined = []
        for slot, side in enumerate(sides):
            current = colors[slot]
            refined.append(
                [
                    interner.intern(
                        (
                            "recolor",
                            current[cid],
                            tuple(
                                sorted(
                                    {
                                        (resolve(p, current), resolve(o, current))
                                        for p, o in side.class_pairs[cid]
                                    }
                                )
                            ),
                        )
                    )
                    for cid in range(side.num_classes)
                ]
            )
        refined_count = distinct(refined)
        if refined_count == count:
            return colors[0], colors[1]
        colors = refined
        count = refined_count


# ---------------------------------------------------------------------------
# Drawn inputs
# ---------------------------------------------------------------------------
_MAX_ROUNDS = st.sampled_from([0, 1, 2, None])


@st.composite
def refinement_inputs(draw):
    """A graph, a start kind and a subset choice for one comparison.

    The ``blanked`` start is the hybrid construction: the deblank partition
    of a drawn version pair with its unaligned non-literals reset to ``⊥``
    and refined against the shared interner.
    """
    start = draw(st.sampled_from(["label", "blanked"]))
    if start == "blanked":
        graph = combine(*draw(evolving_pairs()))
    else:
        graph = draw(st.one_of(rdf_graphs(), evolving_pairs().map(lambda p: combine(*p))))
    nodes = list(graph.nodes())
    choice = draw(st.sampled_from(["all", "blanks", "drawn"]))
    if choice == "drawn":
        subset = draw(st.lists(st.sampled_from(nodes), unique=True)) if nodes else []
    elif choice == "blanks":
        subset = sorted(graph.blanks(), key=nodes.index)
    else:
        subset = None
    return graph, start, subset


def _start(graph, start, subset, with_interner):
    """``(partition, subset, interner)`` for one run, on a fresh interner.

    Without an interner the partition's colors come from another one, so
    both the variant and its reference must reseed them.
    """
    interner = ColorInterner()
    if start == "blanked":
        base = deblank_partition(graph, interner)
        unaligned = unaligned_non_literals(graph, base)
        partition = blanked_partition(base, unaligned, interner)
        subset = sorted(unaligned, key=list(graph.nodes()).index)
    else:
        partition = label_partition(graph, interner)
    return partition, subset, interner if with_interner else None


def _assert_same(variant, reference, graph, start, subset, with_interner):
    """Run *variant* and *reference* on identical fresh inputs."""
    mine_partition, mine_subset, mine_interner = _start(graph, start, subset, with_interner)
    theirs_partition, theirs_subset, theirs_interner = _start(
        graph, start, subset, with_interner
    )
    mine = variant(mine_partition, mine_subset, mine_interner)
    theirs = reference(theirs_partition, theirs_subset, theirs_interner)
    assert mine == theirs
    if with_interner:
        assert len(mine_interner) == len(theirs_interner)


SETTINGS = dict(max_examples=60, deadline=None)


class TestVariantsMatchTheirLoops:
    @settings(**SETTINGS)
    @given(drawn=refinement_inputs(), with_interner=st.booleans(), max_rounds=_MAX_ROUNDS)
    def test_bisim_fixpoint(self, drawn, with_interner, max_rounds):
        graph = drawn[0]
        _assert_same(
            lambda *args: bisim_refine_fixpoint(graph, *args, max_rounds=max_rounds),
            lambda *args: reference_bisim_fixpoint(graph, *args, max_rounds=max_rounds),
            *drawn, with_interner,
        )

    @settings(**SETTINGS)
    @given(drawn=refinement_inputs(), with_interner=st.booleans(), max_rounds=_MAX_ROUNDS)
    def test_trace(self, drawn, with_interner, max_rounds):
        graph = drawn[0]
        bound = {} if max_rounds is None else {"max_rounds": max_rounds}
        _assert_same(
            lambda *args: refinement_trace(graph, *args, **bound),
            lambda *args: reference_trace(graph, *args, **bound),
            *drawn, with_interner,
        )

    @settings(**SETTINGS)
    @given(drawn=refinement_inputs(), with_interner=st.booleans(), max_rounds=_MAX_ROUNDS)
    def test_bidirectional_fixpoint(self, drawn, with_interner, max_rounds):
        graph = drawn[0]
        _assert_same(
            lambda *args: bidirectional_refine_fixpoint(graph, *args, max_rounds=max_rounds),
            lambda *args: reference_bidirectional_fixpoint(
                graph, *args, max_rounds=max_rounds
            ),
            *drawn, with_interner,
        )

    @settings(**SETTINGS)
    @given(
        drawn=refinement_inputs(),
        with_interner=st.booleans(),
        max_rounds=_MAX_ROUNDS,
        predicates=st.sets(st.sampled_from(["p", "q", "r"])),
    )
    def test_keyed_fixpoint(self, drawn, with_interner, max_rounds, predicates):
        graph, start, subset = drawn
        if subset is None:  # the keyed fixpoint takes its subset explicitly
            subset = list(graph.nodes())
        key = predicate_key(uri(name) for name in predicates)

        def reference(partition, nodes, interner):
            # The old loop demanded an interner; reseeding is what the one
            # loop does without one.
            if interner is None:
                partition, interner = reseed_partition(partition)
            return reference_keyed_fixpoint(
                graph, partition, nodes, interner, key, max_rounds=max_rounds
            )

        _assert_same(
            lambda *args: keyed_refine_fixpoint(graph, *args, key, max_rounds=max_rounds),
            reference,
            graph, start, subset, with_interner,
        )

    @settings(**SETTINGS)
    @given(pair=evolving_pairs())
    def test_joint_quotient(self, pair):
        first, second = (blank_summary(version) for version in pair)
        for left, right in ((first, second), (second, first), (first, first)):
            assert joint_quotient_colors(left, right) == reference_joint_quotient(
                left, right
            )


# ---------------------------------------------------------------------------
# Truncation is never silent
# ---------------------------------------------------------------------------
_VARIANTS = {
    "bisim": lambda g, part, interner, bound: bisim_refine_fixpoint(
        g, part, None, interner, **bound
    ),
    "trace": lambda g, part, interner, bound: refinement_trace(
        g, part, None, interner, **bound
    ),
    "keyed": lambda g, part, interner, bound: keyed_refine_fixpoint(
        g, part, list(g.nodes()), interner, predicate_key([uri("q"), uri("r")]), **bound
    ),
    "bidirectional": lambda g, part, interner, bound: bidirectional_refine_fixpoint(
        g, part, None, interner, **bound
    ),
}


class TestTruncationWarning:
    @pytest.mark.parametrize("variant", sorted(_VARIANTS))
    def test_cut_short_warns(self, variant, caplog, figure2_graph):
        graph = figure2_graph
        interner = ColorInterner()
        with caplog.at_level(logging.WARNING, logger="repro.core.refinement"):
            _VARIANTS[variant](
                graph, label_partition(graph, interner), interner, {"max_rounds": 1}
            )
        messages = [record.getMessage() for record in caplog.records]
        assert len(messages) == 1
        assert "max_rounds=1 before reaching a fixpoint" in messages[0]

    @pytest.mark.parametrize("variant", sorted(_VARIANTS))
    def test_convergence_is_quiet(self, variant, caplog, figure2_graph):
        graph = figure2_graph
        interner = ColorInterner()
        with caplog.at_level(logging.DEBUG, logger="repro.core.refinement"):
            _VARIANTS[variant](graph, label_partition(graph, interner), interner, {})
        assert caplog.records == []

    @pytest.mark.parametrize("engine", ["reference", "dense"])
    def test_kbisim_reaching_k_is_quiet(self, engine, caplog, figure2_graph):
        """``k`` is k-bisimulation's parameter, not a safety bound: a run
        cut at ``k`` rounds logs nothing on either engine."""
        stats = SignatureStats()
        with caplog.at_level(logging.DEBUG):
            ksignature_partition(figure2_graph, k=1, engine=engine, stats=stats)
        assert (stats.rounds, stats.converged) == (1, False)
        assert caplog.records == []
