"""Context-aware (bidirectional) refinement — paper Section 6 future work.

The published methods define a node's identity by its *contents* (outbound
neighborhood).  The paper suggests that "better alignment could
potentially be obtained by using not only the contents of a node but also
its *context*, the nodes from which the given node can be reached".  This
module implements that variant:

* ``in_G(n) = {(p, s) | (s, p, n) ∈ E_G}`` — the inbound neighborhood,
* a recolor function combining the current color with the colors of the
  outbound *and* inbound pairs,
* the corresponding fixpoint and a context-aware hybrid alignment.

Bidirectional bisimilarity is finer than outbound bisimilarity: two
out-bisimilar nodes reachable through different contexts are separated.
That cuts both ways for alignment — it distinguishes sink URIs that the
outbound methods conflate (e.g. predicates exported by a direct mapping),
at the price of refusing to align nodes whose context legitimately changed
between versions.  The trade-off is measured in the ablation benchmarks.
"""

from __future__ import annotations

from typing import Collection, Hashable

from ..model.graph import NodeId, OutPair, TripleGraph
from ..model.union import CombinedGraph
from ..partition.alignment import unaligned_non_literals
from ..partition.coloring import Partition, label_partition
from ..partition.interner import ColorInterner
from .deblank import deblank_partition
from .hybrid import blanked_partition
from .refinement import refine_to_fixpoint


def in_neighborhood(graph: TripleGraph, node: NodeId) -> set[OutPair]:
    """``in_G(node)``: the (predicate, subject) pairs reaching *node*.

    Derived from the occurrence index lazily; for repeated bulk use prefer
    :func:`inbound_index`.
    """
    pairs: set[OutPair] = set()
    for subject in graph.occurrences(node):
        for predicate, obj in graph.out(subject):
            if obj == node:
                pairs.add((predicate, subject))
    return pairs


def inbound_index(graph: TripleGraph) -> dict[NodeId, set[OutPair]]:
    """``in_G`` for every node, in one pass over the edges."""
    index: dict[NodeId, set[OutPair]] = {node: set() for node in graph.nodes()}
    for subject, predicate, obj in graph.edges():
        index[obj].add((predicate, subject))
    return index


def bidirectional_refine_fixpoint(
    graph: TripleGraph,
    partition: Partition,
    subset: Collection[NodeId] | None = None,
    interner: ColorInterner | None = None,
    max_rounds: int | None = None,
) -> Partition:
    """Refine until stable under *both* outbound and inbound signatures.

    :func:`~repro.core.refinement.refine_to_fixpoint` under the recolor
    key ``(λ(n), out-pairs, in-pairs)``.
    """
    inbound = inbound_index(graph)

    def bicolor_key(graph: TripleGraph, current: Partition, node: NodeId) -> Hashable:
        out_colors = tuple(sorted({(current[p], current[o]) for p, o in graph.out(node)}))
        in_colors = tuple(sorted({(current[p], current[s]) for p, s in inbound[node]}))
        return ("bicolor", current[node], out_colors, in_colors)

    return refine_to_fixpoint(graph, partition, subset, interner, bicolor_key, max_rounds)


def bidirectional_bisimulation_partition(
    graph: TripleGraph, interner: ColorInterner | None = None
) -> Partition:
    """Full bidirectional bisimulation from the label partition."""
    if interner is None:
        interner = ColorInterner()
    return bidirectional_refine_fixpoint(
        graph, label_partition(graph, interner), None, interner
    )


def context_hybrid_partition(
    graph: CombinedGraph,
    interner: ColorInterner | None = None,
    base: Partition | None = None,
) -> Partition:
    """The hybrid alignment with context-aware refinement of unaligned nodes.

    Same construction as :func:`repro.core.hybrid.hybrid_partition`, but
    the re-identification of blanked nodes also sees their inbound pairs —
    the Section 6 "context" variant.
    """
    if interner is None:
        interner = ColorInterner()
    if base is None:
        base = deblank_partition(graph, interner)
    unaligned = unaligned_non_literals(graph, base)
    blanked = blanked_partition(base, unaligned, interner)
    return bidirectional_refine_fixpoint(graph, blanked, unaligned, interner)
