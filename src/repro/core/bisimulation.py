"""Maximal bisimulation on triple graphs (paper Sections 2.3 and 3.2).

Bisimulation on a triple graph treats the triple ``(s, p, o)`` as an
unlabeled edge from ``s`` to the *pair* ``(p, o)`` — the predicate is a
node and participates in the bisimulation itself (Definition 2).

Two implementations are provided:

* :func:`bisimulation_partition` — the production path: partition
  refinement from the label partition over all nodes (Proposition 1 states
  this captures the maximal bisimulation);
* :func:`naive_maximal_bisimulation` — an independent O(n²·e) reference
  that computes the greatest fixpoint directly on the pair relation; it is
  used by the test suite to cross-check the refinement implementation on
  small random graphs.
"""

from __future__ import annotations

from itertools import product

from ..model.graph import NodeId, TripleGraph
from ..partition.coloring import Partition, label_partition
from ..partition.interner import ColorInterner
from .refinement import bisim_refine_fixpoint


def bisimulation_partition(
    graph: TripleGraph, interner: ColorInterner | None = None
) -> Partition:
    """``λ_Bisim = BisimRefine*_{N_G}(ℓ_G)`` (Proposition 1).

    The returned partition's classes are exactly the maximal-bisimulation
    equivalence classes of *graph*.
    """
    if interner is None:
        interner = ColorInterner()
    initial = label_partition(graph, interner)
    return bisim_refine_fixpoint(graph, initial, None, interner)


def naive_maximal_bisimulation(graph: TripleGraph) -> set[tuple[NodeId, NodeId]]:
    """The maximal bisimulation as an explicit pair relation.

    Greatest-fixpoint computation: start from all label-equal pairs and
    repeatedly delete pairs whose outbound neighborhoods cannot simulate
    each other under the current relation, until stable.  Quadratic in the
    node count per sweep — strictly a reference implementation for tests.
    """
    nodes = list(graph.nodes())
    relation: set[tuple[NodeId, NodeId]] = {
        (n, m)
        for n in nodes
        for m in nodes
        if graph.label(n) == graph.label(m)
    }

    def simulates(n: NodeId, m: NodeId) -> bool:
        """Can every out-pair of n be matched by one of m (under relation)?"""
        for predicate, obj in graph.out(n):
            matched = any(
                (predicate, other_predicate) in relation
                and (obj, other_obj) in relation
                for other_predicate, other_obj in graph.out(m)
            )
            if not matched:
                return False
        return True

    changed = True
    while changed:
        changed = False
        for pair in list(relation):
            n, m = pair
            if not (simulates(n, m) and simulates(m, n)):
                relation.discard(pair)
                changed = True
    return relation


def are_bisimilar(graph: TripleGraph, first: NodeId, second: NodeId) -> bool:
    """Are two nodes of *graph* bisimilar (via the refinement partition)?"""
    partition = bisimulation_partition(graph)
    return partition[first] == partition[second]


def partition_to_relation_agrees(
    partition: Partition, relation: set[tuple[NodeId, NodeId]]
) -> bool:
    """Does a partition induce exactly the given (symmetric) pair relation?

    Test helper for Proposition 1: the refinement partition must induce the
    same pair set as :func:`naive_maximal_bisimulation`.
    """
    nodes = list(partition)
    for n, m in product(nodes, repeat=2):
        in_partition = partition[n] == partition[m]
        in_relation = (n, m) in relation
        if in_partition != in_relation:
            return False
    return True
