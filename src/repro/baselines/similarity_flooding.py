"""Similarity flooding (Melnik, Garcia-Molina & Rahm, ICDE 2002) [12].

The paper's closest related work.  Similarity flooding iterates pairwise
similarities over the Cartesian product of the two node sets: whenever
``(a, p, b)`` and ``(a', p', b')`` are edges with equal predicate labels,
similarity flows between the pairs ``(a, a')`` and ``(b, b')`` (in both
directions), scaled by propagation coefficients inversely proportional to
the number of such neighbors.  After each round the similarities are
normalized by the global maximum.

The key contrast the paper draws (Related Work): flooding takes a
*weighted average over the Cartesian product* of the outgoing edges of two
nodes, while `σEdit` finds the *optimal matching* among them.  Both are
inherently quadratic — this implementation is a faithful small-graph
baseline, guarded the same way as :class:`~repro.similarity.edit_distance.
EditDistance`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import ExperimentError
from ..model.graph import NodeId
from ..model.labels import is_blank
from ..model.union import SOURCE, TARGET, CombinedGraph

#: A pairwise similarity table.
SimilarityTable = dict[tuple[NodeId, NodeId], float]


@dataclass(frozen=True)
class FloodingResult:
    """Similarities plus the number of rounds the fixpoint took."""

    similarities: SimilarityTable
    rounds: int

    def best_matches(self, threshold: float = 0.0) -> dict[NodeId, NodeId]:
        """Each source node's highest-similarity target above *threshold*."""
        best: dict[NodeId, tuple[float, NodeId]] = {}
        for (source, target), value in self.similarities.items():
            if value > threshold and (
                source not in best or value > best[source][0]
            ):
                best[source] = (value, target)
        return {source: target for source, (__, target) in best.items()}

    def mutual_best_matches(self, threshold: float = 0.0) -> set[tuple[NodeId, NodeId]]:
        """Pairs that are each other's best match (the usual SF filter)."""
        forward = self.best_matches(threshold)
        backward: dict[NodeId, tuple[float, NodeId]] = {}
        for (source, target), value in self.similarities.items():
            if value > threshold and (
                target not in backward or value > backward[target][0]
            ):
                backward[target] = (value, source)
        return {
            (source, target)
            for source, target in forward.items()
            if backward.get(target, (0.0, None))[1] == source
        }


def _canonical_nodes(graph: CombinedGraph, nodes) -> list[NodeId]:
    """*nodes* sorted by their own-version identifier's repr.

    Flooding is order-sensitive where bisimulation is not: the similarity
    table's iteration order decides tie-breaking in :meth:`FloodingResult.
    best_matches` and the float summation order of the propagation step.
    Node sets are hash-ordered (and insertion order differs between a
    generated graph and the same graph reloaded from canonical N-Triples),
    so every iteration below is pinned to this canonical order to make the
    result a function of the graph's *content* only.
    """
    return sorted(nodes, key=lambda node: repr(graph.original(node)))


def _canonical_edges(graph: CombinedGraph) -> list[tuple[NodeId, NodeId, NodeId]]:
    """The union's edges in a content-determined order (see above)."""
    def key(edge):
        subject, predicate, obj = edge
        return (
            graph.side(subject),
            repr(graph.original(subject)),
            repr(graph.original(predicate)),
            repr(graph.original(obj)),
        )

    return sorted(graph.edges(), key=key)


def _initial_similarities(graph: CombinedGraph) -> SimilarityTable:
    """Seed: 1.0 for equal non-blank labels, a small ε for same-kind pairs."""
    table: SimilarityTable = {}
    targets = _canonical_nodes(graph, graph.target_nodes)
    for source in _canonical_nodes(graph, graph.source_nodes):
        source_label = graph.label(source)
        for target in targets:
            target_label = graph.label(target)
            if source_label == target_label and not is_blank(source_label):
                table[(source, target)] = 1.0
            elif source_label.kind == target_label.kind:
                table[(source, target)] = 0.001
    return table


def similarity_flooding(
    graph: CombinedGraph,
    initial: SimilarityTable | None = None,
    max_rounds: int = 50,
    epsilon: float = 1e-4,
    max_pairs: int = 250_000,
) -> FloodingResult:
    """Run similarity flooding on a combined graph.

    Predicates are compared by *label* (the classical formulation; unlike
    the paper's bisimulation methods, flooding cannot align renamed
    predicates).  Raises :class:`ExperimentError` when the pair table would
    exceed *max_pairs*.
    """
    pair_budget = len(graph.source_nodes) * len(graph.target_nodes)
    if pair_budget > max_pairs:
        raise ExperimentError(
            f"similarity flooding would materialize {pair_budget} pairs "
            f"(> {max_pairs}); it is a small-graph baseline"
        )
    table = dict(initial) if initial is not None else _initial_similarities(graph)
    seed = dict(table)

    # Propagation edges: ((a,a'), (b,b'), coefficient), built once, in
    # canonical edge order so the summation below is bit-reproducible.
    by_predicate_source: dict = {}
    for subject, predicate, obj in _canonical_edges(graph):
        by_predicate_source.setdefault(
            (graph.side(subject), graph.label(predicate)), []
        ).append((subject, obj))
    propagation: dict[tuple[NodeId, NodeId], list[tuple[tuple[NodeId, NodeId], float]]] = {}
    for (side, predicate_label), edges in by_predicate_source.items():
        if side != SOURCE:
            continue
        other_edges = by_predicate_source.get((TARGET, predicate_label), [])
        if not other_edges:
            continue
        for subject, obj in edges:
            for other_subject, other_obj in other_edges:
                subject_pair = (subject, other_subject)
                object_pair = (obj, other_obj)
                propagation.setdefault(subject_pair, []).append((object_pair, 1.0))
                propagation.setdefault(object_pair, []).append((subject_pair, 1.0))
    # Normalize coefficients per pair (inverse-degree weighting).
    for pair, neighbors in propagation.items():
        coefficient = 1.0 / len(neighbors)
        propagation[pair] = [(neighbor, coefficient) for neighbor, __ in neighbors]

    rounds = 0
    for rounds in range(1, max_rounds + 1):
        updated: SimilarityTable = {}
        peak = 0.0
        for pair, value in table.items():
            incoming = 0.0
            for neighbor, coefficient in propagation.get(pair, ()):
                incoming += coefficient * table.get(neighbor, 0.0)
            new_value = seed.get(pair, 0.0) + value + incoming
            updated[pair] = new_value
            if new_value > peak:
                peak = new_value
        if peak > 0:
            for pair in updated:
                updated[pair] /= peak
        delta = max(
            abs(updated[pair] - table.get(pair, 0.0)) for pair in updated
        )
        table = updated
        if delta < epsilon:
            break
    return FloodingResult(similarities=table, rounds=rounds)
