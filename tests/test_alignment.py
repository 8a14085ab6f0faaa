"""Unit tests for partition alignments (repro.partition.alignment)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation.metrics import aligned_edge_counts
from repro.exceptions import AlignmentError
from repro.model import RDFGraph, TripleGraph, blank, combine, lit, uri
from repro.partition import alignment as alignment_module
from repro.partition.alignment import (
    ClassSides,
    PartitionAlignment,
    align,
    has_crossover_property,
    unaligned_nodes,
    unaligned_non_literals,
)
from repro.partition.coloring import Partition
from repro.partition.interner import ColorInterner
from repro.core.trivial import trivial_partition


@pytest.fixture
def simple_union():
    g1 = RDFGraph()
    g1.add(uri("a"), uri("p"), lit("x"))
    g1.add(uri("only1"), uri("p"), lit("x"))
    g2 = RDFGraph()
    g2.add(uri("a"), uri("p"), lit("x"))
    g2.add(uri("only2"), uri("p"), lit("y"))
    return combine(g1, g2)


class TestTrivialAlignment:
    def test_label_equality_pairs(self, simple_union):
        part = trivial_partition(simple_union, ColorInterner())
        alignment = align(simple_union, part)
        a1 = simple_union.from_source(uri("a"))
        a2 = simple_union.from_target(uri("a"))
        assert alignment.aligned(a1, a2)
        assert alignment.partners(a1) == {a2}

    def test_unaligned_sets(self, simple_union):
        part = trivial_partition(simple_union, ColorInterner())
        alignment = align(simple_union, part)
        assert simple_union.from_source(uri("only1")) in alignment.unaligned_source()
        assert simple_union.from_target(uri("only2")) in alignment.unaligned_target()
        assert simple_union.from_target(lit("y")) in alignment.unaligned_target()
        assert alignment.unaligned() == alignment.unaligned_source() | alignment.unaligned_target()

    def test_counts(self, simple_union):
        part = trivial_partition(simple_union, ColorInterner())
        alignment = align(simple_union, part)
        # shared labels: a, p, "x"
        assert alignment.matched_class_count() == 3
        assert alignment.pair_count() == 3
        assert set(alignment.pairs()) == {
            (simple_union.from_source(t), simple_union.from_target(t))
            for t in (uri("a"), uri("p"), lit("x"))
        }

    def test_crossover_property_holds(self, simple_union):
        part = trivial_partition(simple_union, ColorInterner())
        assert align(simple_union, part).has_crossover_property()


class TestFatClasses:
    def test_many_to_many_class(self, simple_union):
        # Force only1 and only2 into the same class as a.
        interner = ColorInterner()
        part = trivial_partition(simple_union, interner)
        fat = part.with_colors(
            {
                simple_union.from_source(uri("only1")): part[
                    simple_union.from_source(uri("a"))
                ],
                simple_union.from_target(uri("only2")): part[
                    simple_union.from_source(uri("a"))
                ],
            }
        )
        alignment = align(simple_union, fat)
        source_a = simple_union.from_source(uri("a"))
        assert alignment.partners(source_a) == {
            simple_union.from_target(uri("a")),
            simple_union.from_target(uri("only2")),
        }
        # 2x2 pairs from the fat class plus the p-p and "x"-"x" classes.
        assert alignment.pair_count() == 6
        assert alignment.has_crossover_property()


class TestModuleFunctions:
    def test_unaligned_nodes_function(self, simple_union):
        part = trivial_partition(simple_union, ColorInterner())
        assert unaligned_nodes(simple_union, part) == align(
            simple_union, part
        ).unaligned()

    def test_unaligned_non_literals_excludes_literals(self, simple_union):
        part = trivial_partition(simple_union, ColorInterner())
        un = unaligned_non_literals(simple_union, part)
        assert simple_union.from_target(lit("y")) not in un
        assert simple_union.from_source(uri("only1")) in un


class TestCrossoverFunction:
    def test_crossover_positive(self):
        pairs = {("n", "m"), ("n", "m2"), ("n2", "m"), ("n2", "m2")}
        assert has_crossover_property(pairs)

    def test_crossover_negative(self):
        pairs = {("n", "m"), ("n", "m2"), ("n2", "m")}
        assert not has_crossover_property(pairs)

    def test_crossover_trivial_cases(self):
        assert has_crossover_property(set())
        assert has_crossover_property({("n", "m")})
        assert has_crossover_property({("n", "m"), ("n2", "m2")})


# ---------------------------------------------------------------------------
# Exactness against the per-class-frozenset construction
# ---------------------------------------------------------------------------


class FrozensetAlignment:
    """Brute-force oracle: every class frozen into two side frozensets.

    Each member is probed against ``graph.source_nodes`` and
    ``graph.target_nodes``; every answer is derived from those sets.
    """

    def __init__(self, graph, partition):
        self.graph = graph
        self.partition = partition
        self.sides = {
            color: ClassSides(
                source=frozenset(n for n in members if n in graph.source_nodes),
                target=frozenset(n for n in members if n in graph.target_nodes),
            )
            for color, members in partition.classes().items()
        }

    def unaligned_source(self):
        return frozenset(
            n for s in self.sides.values() if not s.target for n in s.source
        )

    def unaligned_target(self):
        return frozenset(
            n for s in self.sides.values() if not s.source for n in s.target
        )

    def pairs(self):
        return {(n, m) for s in self.sides.values() for n in s.source for m in s.target}

    def pair_count(self):
        return sum(len(s.source) * len(s.target) for s in self.sides.values())

    def matched_class_count(self):
        return sum(1 for s in self.sides.values() if s.is_matched)

    def partners(self, node):
        sides = self.sides[self.partition[node]]
        return sides.target if node in self.graph.source_nodes else sides.source


def two_pass_edge_counts(graph, partition):
    """The per-side edge scans, each probing the subject's side set."""

    def triples(side_nodes):
        return {
            (partition[s], partition[p], partition[o])
            for s, p, o in graph.edges()
            if s in side_nodes
        }

    first = triples(graph.source_nodes)
    second = triples(graph.target_nodes)
    return len(first & second), len(first | second)


NAMES = [f"n{i}" for i in range(16)]


@st.composite
def colored_unions(draw):
    """A small union (0-12 nodes a side, shared URIs) plus a coloring.

    Few colors give fat classes, many give singletons; one-sided classes
    appear whenever a color lands on one version only.
    """
    sides = []
    for _ in range(2):
        names = draw(st.lists(st.sampled_from(NAMES), max_size=12, unique=True))
        graph = TripleGraph()
        for name in names:
            label = lit(name) if draw(st.booleans()) and name < "n4" else uri(name)
            graph.add_node(name, label)
        if names:
            index = st.sampled_from(names)
            for s, p, o in draw(st.lists(st.tuples(index, index, index), max_size=20)):
                graph.add_edge(s, p, o)
        sides.append(graph)
    union = combine(*sides)
    nodes = list(union.nodes())
    palette = draw(st.integers(min_value=1, max_value=len(nodes) + 1))
    colors = draw(
        st.lists(
            st.integers(min_value=0, max_value=palette - 1),
            min_size=len(nodes),
            max_size=len(nodes),
        )
    )
    return union, Partition(dict(zip(nodes, colors)))


class TestOnePassExactness:
    @settings(max_examples=300, deadline=None)
    @given(colored_unions())
    def test_equals_the_frozenset_oracle(self, case):
        union, partition = case
        alignment = PartitionAlignment(union, partition)
        oracle = FrozensetAlignment(union, partition)
        # Same classes, same side split, same first-occurrence color order.
        assert list(alignment.class_sides().items()) == list(oracle.sides.items())
        assert alignment.unaligned_source() == oracle.unaligned_source()
        assert alignment.unaligned_target() == oracle.unaligned_target()
        assert alignment.unaligned() == (
            oracle.unaligned_source() | oracle.unaligned_target()
        )
        assert alignment.pair_count() == oracle.pair_count()
        assert alignment.matched_class_count() == oracle.matched_class_count()
        pairs = list(alignment.pairs())
        assert len(pairs) == len(set(pairs))
        assert set(pairs) == oracle.pairs()
        for node in union.nodes():
            assert alignment.partners(node) == oracle.partners(node)
        assert alignment.has_crossover_property() == has_crossover_property(
            oracle.pairs()
        )

    @settings(max_examples=300, deadline=None)
    @given(colored_unions())
    def test_edge_counts_equal_the_two_pass_oracle(self, case):
        union, partition = case
        assert aligned_edge_counts(union, partition) == two_pass_edge_counts(
            union, partition
        )


# ---------------------------------------------------------------------------
# What the one-pass construction no longer does
# ---------------------------------------------------------------------------


class CountingId:
    """A node identifier that counts how often it is hashed."""

    hashes = 0

    def __init__(self, name):
        self.name = name

    def __hash__(self):
        CountingId.hashes += 1
        return hash(self.name)

    def __eq__(self, other):
        return isinstance(other, CountingId) and other.name == self.name


def counting_union(size):
    """A union of two *size*-node versions keyed by :class:`CountingId`."""
    sides = []
    for offset in (0, size // 2):
        graph = TripleGraph()
        for i in range(offset, offset + size):
            graph.add_node(CountingId(f"n{i}"), uri(f"n{i}"))
        sides.append(graph)
    return combine(*sides)


def banded_union(size):
    """A *size*-node union whose coloring mixes matched and one-sided classes."""
    half = size // 2
    sides = []
    for _ in range(2):
        graph = TripleGraph()
        for i in range(half):
            graph.add_node(i, uri(f"n{i}"))
        sides.append(graph)
    union = combine(*sides)
    colors = {}
    for node in union.nodes():
        side, i = union.side(node), union.original(node)
        # Colors below half // 3 are shared; the rest are one-sided.
        colors[node] = i % (half // 3) if i % 2 else half + side * half + i
    return union, Partition(colors)


class TestOnePassRegressions:
    def test_counting_hashes_no_node_id(self):
        union = counting_union(40)
        interner = ColorInterner()
        partition = Partition(
            {node: interner.label_color(union.label(node)) for node in union.nodes()}
        )
        CountingId.hashes = 0
        alignment = PartitionAlignment(union, partition)
        assert alignment.matched_class_count() == 20
        assert alignment.pair_count() == 20
        assert CountingId.hashes == 0

    def test_partners_builds_each_class_sides_once(self, monkeypatch):
        union, partition = banded_union(2_000)
        assert union.num_nodes == 2_000
        built = []

        class CountingSides(ClassSides):
            __slots__ = ()

            def __init__(self, **fields):
                built.append(None)
                super().__init__(**fields)

        monkeypatch.setattr(alignment_module, "ClassSides", CountingSides)
        alignment = PartitionAlignment(union, partition)
        assert built == []

        original = PartitionAlignment.class_sides
        calls = []

        def counting_class_sides(self):
            calls.append(None)
            return original(self)

        monkeypatch.setattr(PartitionAlignment, "class_sides", counting_class_sides)
        oracle = FrozensetAlignment(union, partition)
        for node in union.nodes():
            assert alignment.partners(node) == oracle.partners(node)
        assert len(built) == len(oracle.sides)
        assert len(calls) <= 1

    def test_off_graph_node_is_refused(self, simple_union):
        part = trivial_partition(simple_union, ColorInterner())
        colors = part.as_dict()
        ghost = simple_union.num_nodes  # one past the last union id
        with pytest.raises(AlignmentError):
            simple_union.side(ghost)
        colors[ghost] = next(iter(colors.values()))
        with pytest.raises(AlignmentError, match="partition colors"):
            PartitionAlignment(simple_union, Partition(colors))
