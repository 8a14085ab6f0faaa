"""Alignment quality metrics (paper Section 5).

Two counting conventions are used by the paper's figures:

* **aligned edges** (EFO, Figures 10–11): an edge is identified by the
  color triple of its endpoints under the alignment partition; "edges
  using precisely the same identifiers are counted precisely once", so the
  ratio is ``|T1 ∩ T2| / |T1 ∪ T2|`` over the per-side sets of distinct
  color triples — a complete alignment (e.g. a self-alignment) scores 1;
* **aligned nodes, deduplicated** (GtoPdb, Figure 13): each partition
  class containing nodes of both versions stands for one aligned entity;
  ``Total`` adds the unaligned nodes of either side, so that under a
  perfect 1-to-1 alignment ``Total = |N1| + |N2| − aligned``.
"""

from __future__ import annotations

from itertools import islice

from ..datasets.ground_truth import GroundTruth
from ..exceptions import PartitionError
from ..model.union import CombinedGraph
from ..partition.alignment import PartitionAlignment
from ..partition.coloring import Partition
from ..partition.interner import Color


def aligned_edge_counts(
    graph: CombinedGraph, partition: Partition
) -> tuple[int, int]:
    """``(|T1 ∩ T2|, |T1 ∪ T2|)`` over distinct edge color triples.

    One pass over the union's edge columns: the source edges come first
    (see :mod:`repro.model.union`), so the first ``|E1|`` color triples
    form ``T1`` and the rest ``T2``.
    """
    color = partition.as_dict().__getitem__  # plain dict lookups, in C
    subjects, predicates, objects = graph.edge_columns()
    triples = zip(map(color, subjects), map(color, predicates), map(color, objects))
    try:
        source_triples: set[tuple[Color, Color, Color]] = set(
            islice(triples, graph.num_source_edges)
        )
        target_triples: set[tuple[Color, Color, Color]] = set(triples)
    except KeyError as missing:
        raise PartitionError(
            f"partition does not cover node {missing.args[0]!r}"
        ) from None
    return (
        len(source_triples & target_triples),
        len(source_triples | target_triples),
    )


def aligned_edge_ratio(graph: CombinedGraph, partition: Partition) -> float:
    """Figure 10's measure: aligned edges over total distinct edges."""
    aligned, total = aligned_edge_counts(graph, partition)
    if total == 0:
        return 1.0
    return aligned / total


def aligned_edge_count(graph: CombinedGraph, partition: Partition) -> int:
    """Figure 11's measure: the absolute number of aligned edges."""
    return aligned_edge_counts(graph, partition)[0]


def matched_entity_count(graph: CombinedGraph, partition: Partition) -> int:
    """Figure 13's per-method count: classes matching both versions."""
    return PartitionAlignment(graph, partition).matched_class_count()


def ground_truth_entity_count(graph: CombinedGraph, truth: GroundTruth) -> int:
    """Figure 13's ``GtoPdb`` series: persistent entities present in both."""
    return len(truth.combined_pairs(graph))


def total_entity_count(graph: CombinedGraph, truth: GroundTruth) -> int:
    """Figure 13's ``Total``: deduplicated node count of the version pair."""
    shared = ground_truth_entity_count(graph, truth)
    return graph.num_nodes - shared


def recall_against_truth(
    graph: CombinedGraph, partition: Partition, truth: GroundTruth
) -> float:
    """Fraction of ground-truth pairs the alignment reproduces."""
    pairs = truth.combined_pairs(graph)
    if not pairs:
        return 1.0
    found = sum(
        1 for source, target in pairs if partition[source] == partition[target]
    )
    return found / len(pairs)
