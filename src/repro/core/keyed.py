"""Keyed refinement — paper Section 6 future work.

"In the future, we would like to explore variants of our approach where
only selected parts of the outbound neighborhood are used, for instance
specified by a notion of a key for graph databases, possibly allowing to
align nodes of graphs following different structure."

A *key specification* selects, per node, which outbound pairs define its
identity: here, a predicate filter (by URI label).  Nodes then align when
their *key attributes* match, ignoring non-key differences — e.g. aligning
entities on ``name`` while tolerating edited ``comment`` fields.
"""

from __future__ import annotations

from typing import Callable, Collection, Hashable, Iterable

from ..model.graph import NodeId, TripleGraph
from ..model.labels import URI
from ..model.union import CombinedGraph
from ..partition.alignment import unaligned_non_literals
from ..partition.coloring import Partition
from ..partition.interner import ColorInterner
from .deblank import deblank_partition
from .hybrid import blanked_partition
from .refinement import refine_to_fixpoint

#: Decides whether an outbound pair participates in a node's key.
PairFilter = Callable[[TripleGraph, NodeId, NodeId], bool]


def predicate_key(predicates: Iterable[URI]) -> PairFilter:
    """A key selecting outbound pairs whose predicate label is listed.

    Predicate URIs are compared by label, so the key survives the
    combined-graph node-identifier indirection.
    """
    allowed = set(predicates)

    def accepts(graph: TripleGraph, predicate: NodeId, obj: NodeId) -> bool:
        label = graph.label(predicate)
        return isinstance(label, URI) and label in allowed

    return accepts


def keyed_refine_fixpoint(
    graph: TripleGraph,
    partition: Partition,
    subset: Collection[NodeId],
    interner: ColorInterner,
    key: PairFilter,
    max_rounds: int | None = None,
) -> Partition:
    """Refinement whose recolor keys see only key-selected outbound pairs.

    :func:`~repro.core.refinement.refine_to_fixpoint` under the key
    ``("keyed", λ(n), {(λ(p), λ(o)) | (p, o) ∈ out_G(n), key(p, o)})``.
    """

    def keyed_key(graph: TripleGraph, current: Partition, node: NodeId) -> Hashable:
        pair_colors = {
            (current[predicate], current[obj])
            for predicate, obj in graph.out(node)
            if key(graph, predicate, obj)
        }
        return ("keyed", current[node], tuple(sorted(pair_colors)))

    return refine_to_fixpoint(graph, partition, subset, interner, keyed_key, max_rounds)


def keyed_hybrid_partition(
    graph: CombinedGraph,
    key: PairFilter,
    interner: ColorInterner | None = None,
    base: Partition | None = None,
) -> Partition:
    """Hybrid alignment where blanked nodes are identified by key attributes.

    Coarser than the full hybrid alignment on the same input: ignoring
    non-key pairs can only merge classes.  Useful when non-key content is
    known to churn between versions (the GtoPdb comment fields, say).
    """
    if interner is None:
        interner = ColorInterner()
    if base is None:
        base = deblank_partition(graph, interner)
    unaligned = unaligned_non_literals(graph, base)
    blanked = blanked_partition(base, unaligned, interner)
    return keyed_refine_fixpoint(graph, blanked, unaligned, interner, key)
