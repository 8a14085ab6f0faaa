"""Property-based tests of the core invariants on random evolving graphs.

Hypothesis generates random RDF graphs and random curation-style evolutions
of them; the properties below must hold for *every* such input:

1.  ``Align(λTrivial) ⊆ Align(λDeblank) ⊆ Align(λHybrid) ⊆ Align(λOverlap)``,
2.  partition alignments always have the crossover property,
3.  refinement is monotone and its fixpoint is stable,
4.  deblank self-alignment is complete,
5.  ``Propagate((λTrivial, 0)) ≡ (λHybrid, 0)``,
6.  Theorem 1 (⊕ reading): same overlap cluster ⇒ ``σEdit ≤ ω ⊕ ω``,
7.  bidirectional refinement is finer than outbound refinement,
8.  archives reconstruct every version exactly,
9.  σEdit is bounded, 0 on hybrid-aligned pairs and symmetric in the
    label-swap sense on literals.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.archive import VersionArchive
from repro.core.bisimulation import bisimulation_partition
from repro.core.context import bidirectional_bisimulation_partition
from repro.core.deblank import deblank_partition
from repro.core.hybrid import hybrid_partition
from repro.core.refinement import bisim_refine_fixpoint, bisim_refine_step
from repro.core.trivial import trivial_partition
from repro.model import RDFGraph, blank, combine, lit, uri
from repro.model.graph import isomorphic_by_labels
from repro.oplus import oplus
from repro.partition.alignment import align
from repro.partition.coloring import label_partition
from repro.partition.interner import ColorInterner
from repro.partition.weighted import zero_weighted
from repro.similarity.edit_distance import EditDistance
from repro.similarity.overlap_alignment import overlap_partition
from repro.similarity.string_distance import character_set
from repro.similarity.weighted_refine import propagate

# ---------------------------------------------------------------------------
# Strategies: random RDF graphs and random evolutions
# ---------------------------------------------------------------------------

_URIS = [f"n{i}" for i in range(6)]
_PREDICATES = ["p", "q", "r"]
_VALUES = ["alpha", "beta", "gamma", "delta"]
_BLANKS = [f"b{i}" for i in range(4)]


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
        object_kind = draw(st.sampled_from(["uri", "blank", "literal", "literal"]))
        if object_kind == "uri":
            obj = uri(draw(st.sampled_from(_URIS)))
        elif object_kind == "blank":
            obj = blank(draw(st.sampled_from(_BLANKS)))
        else:
            obj = lit(draw(st.sampled_from(_VALUES)))
        graph.add(subject, predicate, obj)
    return graph


@st.composite
def evolving_pairs(draw) -> tuple[RDFGraph, RDFGraph]:
    """A graph and a curation-style evolution of it.

    The second version drops some triples, renames blank identifiers (they
    are not persistent!) and may rename one URI — the paper's change model.
    """
    source = draw(rdf_graphs())
    triples = sorted(source.triples(), key=repr)
    keep_mask = draw(
        st.lists(st.booleans(), min_size=len(triples), max_size=len(triples))
    )
    renamed = draw(st.sampled_from([None] + _URIS))

    def rename(term):
        if isinstance(term, type(blank("x"))):
            return blank("v2-" + term.name)
        if renamed is not None and term == uri(renamed):
            return uri(renamed + "-renamed")
        return term

    target = RDFGraph()
    kept = 0
    for keep, (s, p, o) in zip(keep_mask, triples):
        if keep:
            renamed_p = rename(p)
            if not isinstance(renamed_p, type(uri("x"))):
                renamed_p = p
            target.add(rename(s), renamed_p, rename(o))
            kept += 1
    if kept == 0 and triples:
        s, p, o = triples[0]
        target.add(rename(s), p, rename(o))
    return source, target


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

COMMON = dict(max_examples=30, deadline=None)


@settings(**COMMON)
@given(pair=evolving_pairs())
def test_alignment_hierarchy(pair):
    union = combine(*pair)
    interner = ColorInterner()
    trivial = set(align(union, trivial_partition(union, interner)).pairs())
    deblank_part = deblank_partition(union, interner)
    deblank = set(align(union, deblank_part).pairs())
    hybrid_part = hybrid_partition(union, interner, base=deblank_part)
    hybrid = set(align(union, hybrid_part).pairs())
    overlap = set(
        align(
            union,
            overlap_partition(
                union, interner=interner, base=hybrid_part, splitter=character_set
            ).partition,
        ).pairs()
    )
    assert trivial <= deblank <= hybrid <= overlap


@settings(**COMMON)
@given(pair=evolving_pairs())
def test_crossover_property_everywhere(pair):
    union = combine(*pair)
    interner = ColorInterner()
    for partition in (
        trivial_partition(union, interner),
        deblank_partition(union, interner),
        hybrid_partition(union, interner),
    ):
        assert align(union, partition).has_crossover_property()


@settings(**COMMON)
@given(graph=rdf_graphs())
def test_refinement_monotone_and_stable(graph):
    interner = ColorInterner()
    initial = label_partition(graph, interner)
    fixpoint = bisim_refine_fixpoint(graph, initial, None, interner)
    assert fixpoint.finer_than(initial)
    again = bisim_refine_step(graph, fixpoint, list(graph.nodes()), interner)
    assert again.equivalent_to(fixpoint)


@settings(**COMMON)
@given(graph=rdf_graphs())
def test_deblank_self_alignment_complete(graph):
    union = combine(graph, graph.copy())
    partition = deblank_partition(union, ColorInterner())
    assert not align(union, partition).unaligned()


@settings(**COMMON)
@given(pair=evolving_pairs())
def test_propagate_deblank_equals_hybrid(pair):
    """``Propagate((λDeblank, 0)) = (λHybrid, 0)`` — exact by construction.

    The paper also claims the identity for the λTrivial base, but that
    version has a counterexample: an unaligned URI whose unfolding
    coincides with a deblank-aligned blank's color joins that cluster only
    transiently under the hybrid refinement, while the trivial base keeps
    all such co-blanked nodes together (see DESIGN.md §5.10).
    """
    from repro.core.deblank import deblank_partition

    union = combine(*pair)
    interner = ColorInterner()
    deblank = deblank_partition(union, interner)
    propagated = propagate(union, zero_weighted(deblank), interner)
    hybrid_interner = ColorInterner()
    hybrid = hybrid_partition(union, hybrid_interner)
    assert set(align(union, propagated.partition).pairs()) == set(
        align(union, hybrid).pairs()
    )
    assert all(weight == 0.0 for weight in propagated.weights().values())


@settings(max_examples=15, deadline=None)
@given(pair=evolving_pairs(), theta=st.sampled_from([0.45, 0.65, 0.85]))
def test_theorem_1(pair, theta):
    """Same overlap cluster ⇒ σEdit(n, m) ≤ ω(n) ⊕ ω(m)."""
    union = combine(*pair)
    interner = ColorInterner()
    base = hybrid_partition(union, interner)
    weighted = overlap_partition(
        union, theta=theta, interner=interner, base=base, splitter=character_set
    )
    edit = EditDistance(union, base=base, interner=interner)
    for source, target in align(union, weighted.partition).pairs():
        bound = oplus(weighted.weight(source), weighted.weight(target))
        assert edit.distance(source, target) <= bound + 1e-9


@settings(**COMMON)
@given(graph=rdf_graphs())
def test_bidirectional_finer_than_outbound(graph):
    outbound = bisimulation_partition(graph)
    bidirectional = bidirectional_bisimulation_partition(graph)
    assert bidirectional.finer_than(outbound)


@settings(max_examples=15, deadline=None)
@given(versions=st.lists(rdf_graphs(), min_size=1, max_size=4))
def test_archive_round_trip(versions):
    archive = VersionArchive.build(versions)
    for index, original in enumerate(versions):
        assert isomorphic_by_labels(original, archive.reconstruct(index + 1))


@settings(max_examples=15, deadline=None)
@given(pair=evolving_pairs())
def test_sigma_edit_bounds(pair):
    union = combine(*pair)
    interner = ColorInterner()
    base = hybrid_partition(union, interner)
    edit = EditDistance(union, base=base, interner=interner, max_rounds=30)
    alignment = align(union, base)
    for source in sorted(union.source_nodes, key=repr)[:6]:
        for target in sorted(union.target_nodes, key=repr)[:6]:
            value = edit.distance(source, target)
            assert 0.0 <= value <= 1.0
            if alignment.aligned(source, target):
                assert value == 0.0
