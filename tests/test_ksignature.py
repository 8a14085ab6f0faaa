"""Property and unit tests of k-bisimulation.

The contract under test (:mod:`repro.core.ksignature`):

1.  at large ``k`` the k-round partition equals the ``BisimRefine``
    fixpoint — on random graphs including blank-heavy cycles, for both
    engines, over all nodes and over the blank subset;
2.  the reference and dense round loops intern *identical* colors, not
    merely equivalent partitions;
3.  the iterates are monotone in ``k`` and ``k=0`` is the label
    partition;
4.  relabeling URIs through a bijection leaves the k-class size
    multiset invariant at every ``k`` (refinement sees structure, not
    names);
5.  ``k`` rounds are the refinement trace cut at ``k``: the partition
    is the trace's iterate after ``min(k, productive rounds)`` rounds,
    and the round count, ``converged`` and the per-round class counts
    are the ones the trace implies;
6.  the ``AlignConfig.k`` knob validates and the method family
    (``bisim``/``kbisim``/``kbisim_deblank``) plugs into the session
    API and the report schema.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import AlignConfig, Aligner
from repro.core.bisimulation import bisimulation_partition
from repro.core.deblank import deblank_partition
from repro.core.dense import REFINEMENT_ENGINES
from repro.core.ksignature import SignatureStats, graph_diameter, ksignature_partition
from repro.core.refinement import refinement_trace
from repro.exceptions import ConfigError, ExperimentError, UnknownEngineError
from repro.model import RDFGraph, blank, lit, uri
from repro.partition.coloring import label_partition
from repro.partition.interner import ColorInterner

COMMON = dict(max_examples=30, deadline=None)

#: Both engines, in registry order ("reference", "dense").
ENGINES = tuple(REFINEMENT_ENGINES)

_URIS = [f"n{i}" for i in range(6)]
_PREDICATES = ["p", "q", "r"]
_VALUES = ["alpha", "beta", "gamma"]
_BLANKS = [f"b{i}" for i in range(5)]


@st.composite
def rdf_graphs(draw) -> RDFGraph:
    """A small random RDF graph with URIs, literals and blanks."""
    graph = RDFGraph()
    edge_count = draw(st.integers(3, 14))
    for _ in range(edge_count):
        subject_kind = draw(st.sampled_from(["uri", "blank"]))
        subject = (
            uri(draw(st.sampled_from(_URIS)))
            if subject_kind == "uri"
            else blank(draw(st.sampled_from(_BLANKS)))
        )
        predicate = uri(draw(st.sampled_from(_PREDICATES)))
        object_kind = draw(st.sampled_from(["uri", "blank", "literal"]))
        if object_kind == "uri":
            obj = uri(draw(st.sampled_from(_URIS)))
        elif object_kind == "blank":
            obj = blank(draw(st.sampled_from(_BLANKS)))
        else:
            obj = lit(draw(st.sampled_from(_VALUES)))
        graph.add(subject, predicate, obj)
    return graph


@st.composite
def blank_cycle_graphs(draw) -> RDFGraph:
    """Blank-heavy graphs built around an explicit blank cycle.

    Cyclic blank structure is the regime where bounded refinement and
    the fixpoint can genuinely disagree at small ``k`` — exactly what
    the large-``k`` equivalence property must survive.
    """
    graph = RDFGraph()
    length = draw(st.integers(2, 5))
    ring = [blank(f"c{i}") for i in range(length)]
    for index, node in enumerate(ring):
        graph.add(node, uri("p"), ring[(index + 1) % length])
    extras = draw(st.integers(0, 6))
    for _ in range(extras):
        subject = draw(st.sampled_from(ring))
        predicate = uri(draw(st.sampled_from(_PREDICATES)))
        object_kind = draw(st.sampled_from(["uri", "blank", "literal"]))
        if object_kind == "uri":
            obj = uri(draw(st.sampled_from(_URIS)))
        elif object_kind == "blank":
            obj = draw(st.sampled_from(ring))
        else:
            obj = lit(draw(st.sampled_from(_VALUES)))
        graph.add(subject, predicate, obj)
    return graph


def _large_k(graph: RDFGraph) -> int:
    """A bound no productive refinement chain can exhaust."""
    return graph.num_nodes + 1


# ---------------------------------------------------------------------------
# 1. Large-k equivalence with the fixpoint engines
# ---------------------------------------------------------------------------
class TestFixpointEquivalence:
    @settings(**COMMON)
    @given(graph=rdf_graphs(), engine=st.sampled_from(ENGINES))
    def test_large_k_equals_full_bisimulation(self, graph, engine):
        stats = SignatureStats()
        partition = ksignature_partition(
            graph, k=_large_k(graph), engine=engine, stats=stats
        )
        assert stats.converged
        assert partition.equivalent_to(bisimulation_partition(graph))

    @settings(**COMMON)
    @given(graph=blank_cycle_graphs(), engine=st.sampled_from(ENGINES))
    def test_large_k_equals_fixpoint_on_blank_cycles(self, graph, engine):
        partition = ksignature_partition(
            graph, k=_large_k(graph), engine=engine
        )
        assert partition.equivalent_to(bisimulation_partition(graph))

    @settings(**COMMON)
    @given(graph=rdf_graphs())
    def test_large_k_blank_subset_equals_deblank(self, graph):
        partition = ksignature_partition(
            graph, k=_large_k(graph), subset=graph.blanks()
        )
        assert partition.equivalent_to(deblank_partition(graph))


# ---------------------------------------------------------------------------
# 2. Engine color parity
# ---------------------------------------------------------------------------
class TestEngineParity:
    @settings(**COMMON)
    @given(graph=rdf_graphs(), k=st.integers(0, 5))
    def test_engines_intern_identical_colors(self, graph, k):
        reference = ksignature_partition(
            graph, ColorInterner(), k=k, engine="reference"
        )
        dense = ksignature_partition(graph, ColorInterner(), k=k, engine="dense")
        assert reference.as_dict() == dense.as_dict()


# ---------------------------------------------------------------------------
# 3. Monotonicity in k and the k=0 floor
# ---------------------------------------------------------------------------
class TestMonotonicity:
    @settings(**COMMON)
    @given(graph=rdf_graphs())
    def test_iterates_refine_monotonically(self, graph):
        previous = None
        for k in range(5):
            current = ksignature_partition(graph, k=k)
            if previous is not None:
                assert current.finer_than(previous)
            previous = current

    @settings(**COMMON)
    @given(graph=rdf_graphs())
    def test_k_zero_is_the_label_partition(self, graph):
        interner = ColorInterner()
        expected = label_partition(graph, ColorInterner())
        assert ksignature_partition(graph, interner, k=0).equivalent_to(expected)

    @settings(**COMMON)
    @given(graph=rdf_graphs())
    def test_rounds_never_exceed_node_count(self, graph):
        """Every productive round strictly grows the class count, so at
        most ``num_nodes`` rounds can run before the confirming one."""
        stats = SignatureStats()
        ksignature_partition(graph, k=_large_k(graph), stats=stats)
        assert stats.rounds <= graph.num_nodes + 1


# ---------------------------------------------------------------------------
# 4. URI-bijection invariance
# ---------------------------------------------------------------------------
class TestRelabelInvariance:
    @settings(**COMMON)
    @given(
        graph=rdf_graphs(),
        permutation=st.permutations(_URIS + _PREDICATES),
        k=st.integers(0, 4),
    )
    def test_bijective_uri_relabeling_keeps_class_sizes(
        self, graph, permutation, k
    ):
        mapping = dict(zip(_URIS + _PREDICATES, permutation))

        def rename(term):
            if term in graph.blanks():
                return term
            label = graph.label(term)
            renamed = mapping.get(label)
            return uri(renamed) if renamed is not None else term

        relabeled = RDFGraph()
        for s, p, o in graph.triples():
            relabeled.add(rename(s), rename(p), rename(o))

        def class_sizes(partition) -> list[int]:
            return sorted(len(members) for members in partition.classes().values())

        original = ksignature_partition(graph, k=k)
        mirrored = ksignature_partition(relabeled, k=k)
        assert class_sizes(original) == class_sizes(mirrored)


# ---------------------------------------------------------------------------
# 5. k rounds are the refinement trace cut at k
# ---------------------------------------------------------------------------
class TestTraceCut:
    @settings(**COMMON)
    @given(
        graph=st.one_of(rdf_graphs(), blank_cycle_graphs()),
        k=st.integers(0, 6),
        engine=st.sampled_from(ENGINES),
        blanks_only=st.booleans(),
    )
    def test_partition_and_stats_follow_the_trace(
        self, graph, k, engine, blanks_only
    ):
        subset = graph.blanks() if blanks_only else None
        interner = ColorInterner()
        trace = refinement_trace(
            graph, label_partition(graph, interner), subset, interner
        )
        productive = len(trace) - 1
        stats = SignatureStats()
        partition = ksignature_partition(
            graph, k=k, engine=engine, subset=subset, stats=stats
        )
        assert partition.equivalent_to(trace[min(k, productive)])
        # Each productive round adds an iterate; one more round confirms
        # the fixpoint, and only a run that reaches it converges.
        rounds = min(k, productive + 1)
        counts = [iterate.num_classes for iterate in trace[1:]]
        counts.append(trace[-1].num_classes)
        assert stats.rounds == rounds
        assert stats.converged == (k > productive)
        assert stats.class_counts == counts[:rounds]
        assert stats.k == k


# ---------------------------------------------------------------------------
# 6. Validation, diameter and the session surface
# ---------------------------------------------------------------------------
class TestSurface:
    def test_unknown_engine_refused(self):
        with pytest.raises(UnknownEngineError):
            ksignature_partition(RDFGraph(), engine="turbo")

    @pytest.mark.parametrize("bad", [-1, 1.5, True, "3"])
    def test_bad_k_refused(self, bad):
        with pytest.raises(ExperimentError):
            ksignature_partition(RDFGraph(), k=bad)

    @pytest.mark.parametrize("bad", [-1, 2.5, True])
    def test_config_k_validation(self, bad):
        with pytest.raises(ConfigError):
            AlignConfig(k=bad)

    def test_config_k_round_trips(self):
        config = AlignConfig(method="kbisim", k=7)
        assert config.to_dict()["k"] == 7
        assert config.evolve(k=2).k == 2

    def test_graph_diameter(self):
        assert graph_diameter(RDFGraph()) == 0
        chain = RDFGraph()
        chain.add(uri("a"), uri("p"), uri("b"))
        chain.add(uri("b"), uri("p"), uri("c"))
        chain.add(uri("c"), uri("p"), lit("x"))
        assert graph_diameter(chain) == 3

    def test_kbisim_method_matches_bisim_at_large_k(self):
        source = RDFGraph()
        source.add(uri("a"), uri("p"), blank("b1"))
        source.add(blank("b1"), uri("p"), blank("b2"))
        source.add(blank("b2"), uri("q"), lit("x"))
        target = RDFGraph()
        target.add(uri("a"), uri("p"), blank("z1"))
        target.add(blank("z1"), uri("p"), blank("z2"))
        target.add(blank("z2"), uri("q"), lit("x"))
        k = source.num_nodes + target.num_nodes
        bounded = Aligner(AlignConfig(method="kbisim", k=k)).align(source, target)
        anchor = Aligner(AlignConfig(method="bisim")).align(source, target)
        assert set(bounded.alignment.pairs()) == set(anchor.alignment.pairs())
        assert bounded.details["signature_converged"]
        report = bounded.report(AlignConfig(method="kbisim", k=k))
        assert report.parameters["k"] == k
        assert report.diagnostics["signature_rounds"] >= 1

    def test_kbisim_deblank_method_matches_deblank_at_large_k(self):
        source = RDFGraph()
        source.add(uri("a"), uri("p"), blank("b1"))
        source.add(blank("b1"), uri("q"), lit("x"))
        target = RDFGraph()
        target.add(uri("a"), uri("p"), blank("c1"))
        target.add(blank("c1"), uri("q"), lit("x"))
        bounded = Aligner(
            AlignConfig(method="kbisim_deblank", k=8)
        ).align(source, target)
        anchor = Aligner(AlignConfig(method="deblank")).align(source, target)
        assert set(bounded.alignment.pairs()) == set(anchor.alignment.pairs())

    def test_method_registry_flags(self):
        from repro.align import get_method

        assert get_method("kbisim").uses_k
        assert get_method("kbisim_deblank").uses_k
        assert not get_method("bisim").uses_k
        assert not get_method("bisim").label_floor
        assert not get_method("kbisim").label_floor
        assert get_method("kbisim_deblank").label_floor
        assert get_method("kbisim").finer_than == "bisim"
        assert get_method("kbisim_deblank").finer_than == "deblank"
