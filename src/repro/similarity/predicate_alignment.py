"""Predicate-aware alignment — the paper's Section 5.1 proposal.

The outbound methods misalign URIs used *only* as predicates: such nodes
have no contents, so the hybrid blanking lumps them into one cluster.  The
paper: "A better solution would identify URIs that are predominantly used
as predicates and use a different refinement process, for instance, one
that incorporates the colors of the subject and the object in any triple
that uses the given predicate."

This module implements that process on top of the overlap machinery:

* :func:`predicate_profile` characterizes a predicate by the set of
  (subject color, object color) pairs of the triples it mediates;
* :func:`refine_predicates` matches unaligned predicates across versions
  with the overlap heuristic (set-difference distance on profiles) and
  enriches the weighted partition with the matched components.

Because profiles are *sets of colors of already-aligned rows*, persistent
rows anchor the match even when every predicate URI was renamed (the
direct-mapping scenario of the GtoPdb experiments).
"""

from __future__ import annotations

from typing import Hashable

from ..model.graph import NodeId
from ..model.union import CombinedGraph
from ..partition.alignment import PartitionAlignment
from ..partition.interner import Color, ColorInterner
from ..partition.weighted import WeightedPartition
from .enrichment import enrich
from .overlap import ProbeRule, overlap_match, set_difference_distance


def mediation_index(graph: CombinedGraph) -> dict[NodeId, set[tuple[NodeId, NodeId]]]:
    """For every node, the (subject, object) pairs it mediates as predicate."""
    index: dict[NodeId, set[tuple[NodeId, NodeId]]] = {}
    for subject, predicate, obj in graph.edges():
        index.setdefault(predicate, set()).add((subject, obj))
    return index


def predicate_usage_counts(graph: CombinedGraph) -> dict[NodeId, tuple[int, int]]:
    """``(as_predicate, as_subject_or_object)`` occurrence counts per node."""
    counts: dict[NodeId, tuple[int, int]] = {}
    for subject, predicate, obj in graph.edges():
        for node, is_predicate in ((subject, False), (predicate, True), (obj, False)):
            as_predicate, as_other = counts.get(node, (0, 0))
            if is_predicate:
                counts[node] = (as_predicate + 1, as_other)
            else:
                counts[node] = (as_predicate, as_other + 1)
    return counts


def predominantly_predicates(graph: CombinedGraph) -> set[NodeId]:
    """URIs used more often as predicate than as subject/object."""
    return {
        node
        for node, (as_predicate, as_other) in predicate_usage_counts(graph).items()
        if as_predicate > as_other and graph.is_uri_node(node)
    }


def predicate_profile(
    graph: CombinedGraph,
    weighted: WeightedPartition,
    index: dict[NodeId, set[tuple[NodeId, NodeId]]],
):
    """Characterizer: the (subject color, object color) pairs a node mediates."""
    partition = weighted.partition

    def characterize(node: NodeId) -> frozenset[Hashable]:
        return frozenset(
            (partition[subject], partition[obj])
            for subject, obj in index.get(node, ())
        )

    return characterize


def refine_predicates(
    graph: CombinedGraph,
    weighted: WeightedPartition,
    interner: ColorInterner,
    theta: float = 0.65,
    probe: ProbeRule = "safe",
    generation: int = 1_000,
) -> WeightedPartition:
    """Match unaligned predominantly-predicate URIs by their profiles.

    Returns the weighted partition enriched with the matched components;
    nodes that found no counterpart keep their previous cluster.  Use
    *generation* to keep component colors distinct from Algorithm 2's own
    enrichment rounds when composing both.
    """
    alignment = PartitionAlignment(graph, weighted.partition)
    predicates = predominantly_predicates(graph)
    # Candidates are predicates whose current alignment is *ambiguous*: the
    # hybrid blanking lumps content-free predicate URIs into one fat sink
    # cluster, so they are typically (badly) aligned to many nodes rather
    # than unaligned.  A predicate aligned 1-to-1 is left untouched.
    source_candidates = {
        node
        for node in predicates & graph.source_nodes
        if len(alignment.partners(node)) != 1
    }
    target_candidates = {
        node
        for node in predicates & graph.target_nodes
        if len(alignment.partners(node)) != 1
    }
    if not source_candidates or not target_candidates:
        return weighted
    index = mediation_index(graph)
    characterize = predicate_profile(graph, weighted, index)

    def distance(source: NodeId, target: NodeId) -> float:
        return set_difference_distance(characterize(source), characterize(target))

    matches = overlap_match(
        source_candidates,
        target_candidates,
        theta,
        characterize,
        distance,
        probe=probe,
    )
    return enrich(weighted, matches, interner, generation, key=graph.sort_key)


def predicate_aware_overlap(
    graph: CombinedGraph,
    theta: float = 0.65,
    interner: ColorInterner | None = None,
    probe: ProbeRule = "safe",
    **overlap_kwargs,
) -> WeightedPartition:
    """The overlap alignment followed by the predicate refinement pass."""
    from .overlap_alignment import overlap_partition

    if interner is None:
        interner = ColorInterner()
    weighted = overlap_partition(
        graph, theta=theta, interner=interner, **overlap_kwargs
    )
    return refine_predicates(graph, weighted, interner, theta=theta, probe=probe)
