"""Weighted bisimulation refinement and propagation (paper Section 4.5).

After enrichment folds newly discovered close pairs into the weighted
partition, ``Propagate`` spreads that information to the remaining
unaligned nodes: their colors are blanked and refined exactly as in the
hybrid alignment, and their weights are recomputed as the normalized
``⊕``-average of the weights of their outbound pairs:

    reweight_ω(n) = ⊕ { (ω(p) ⊕ ω(o)) / |out_G(n)| | (p, o) ∈ out_G(n) }

(sinks keep their weight).  The refinement iterates until the partition is
a fixpoint and no weight moves by more than ``ε``.

Implementation note: the weight recurrence reads only the graph structure
and neighbor weights — never the colors — so the fixpoint factors into two
phases: (1) refine the colors with the standard batch fixpoint, (2) iterate
the weights from 0.  Weights of blanked nodes start at 0 and the recurrence
is monotone in every argument, so phase 2 converges from below to the least
fixpoint; this matches the paper's observation that weights "will all be 0,
and will only increase during the refinement process".

Diagnostics: pass a :class:`~repro.core.refinement.WeightFixpointStats`
to receive sweep counts and the final delta; a ``max_rounds`` truncation
before stabilization is logged as a warning instead of silently returning
a non-fixpoint iterate (same contract as the color fixpoint's
``FixpointStats``).  Algorithm 2 surfaces these per-generation stats via
``OverlapTrace.weight_stats``.
"""

from __future__ import annotations

from typing import Collection

from ..core.refinement import WeightFixpointStats, _warn_weight_truncated
from ..model.graph import NodeId, TripleGraph
from ..model.union import CombinedGraph
from ..oplus import OplusOperator, oplus, oplus_sum
from ..partition.alignment import unaligned_non_literals
from ..partition.interner import ColorInterner
from ..partition.weighted import WeightedPartition

#: Weight-stabilization tolerance (paper: "some fixed small value ε > 0").
DEFAULT_EPSILON = 1e-9


def reweight(
    graph: TripleGraph,
    weights: dict[NodeId, float],
    node: NodeId,
    operator: OplusOperator = oplus,
) -> float:
    """``reweight_ω(node)``: the normalized ⊕-average over outbound pairs."""
    out_pairs = graph.out(node)
    if not out_pairs:
        return weights[node]
    size = len(out_pairs)
    return oplus_sum(
        (operator(weights[predicate], weights[obj]) / size
         for predicate, obj in out_pairs),
        operator,
    )


def weighted_refine_fixpoint(
    graph: TripleGraph,
    weighted: WeightedPartition,
    subset: Collection[NodeId],
    interner: ColorInterner,
    epsilon: float = DEFAULT_EPSILON,
    max_rounds: int = 10_000,
    operator: OplusOperator = oplus,
    stats: WeightFixpointStats | None = None,
) -> WeightedPartition:
    """``BisimRefine*_X(ξ)`` for weighted partitions.

    Colors follow the standard batch refinement; weights of subset nodes
    are Jacobi-iterated to stabilization.  An empty *subset* skips the
    iteration entirely.  When *max_rounds* cuts the sweeps off while some
    weight still moves by ``ε`` or more, a warning is logged and
    ``stats.converged`` (pass a :class:`WeightFixpointStats`) is
    ``False``.
    """
    from ..core.refinement import bisim_refine_fixpoint

    if stats is None:
        stats = WeightFixpointStats()
    stats.engine = "reference"
    subset_nodes = list(subset)
    stats.subset_size = len(subset_nodes)
    partition = bisim_refine_fixpoint(graph, weighted.partition, subset_nodes, interner)
    weights = dict(weighted.weights())
    if not subset_nodes:
        stats.rounds = 0
        stats.converged = True
        stats.final_delta = 0.0
        return WeightedPartition(partition, weights)
    rounds = 0
    delta = 0.0
    converged = False
    while rounds < max_rounds:
        delta = 0.0
        updates: dict[NodeId, float] = {}
        for node in subset_nodes:
            new_weight = reweight(graph, weights, node, operator)
            updates[node] = new_weight
            change = abs(new_weight - weights[node])
            if change > delta:
                delta = change
        weights.update(updates)
        rounds += 1
        if delta < epsilon:
            converged = True
            break
    stats.rounds = rounds
    stats.final_delta = delta
    stats.converged = converged
    if not converged:
        _warn_weight_truncated(stats, max_rounds)
    return WeightedPartition(partition, weights)


def propagate(
    graph: CombinedGraph,
    weighted: WeightedPartition,
    interner: ColorInterner,
    epsilon: float = DEFAULT_EPSILON,
    max_rounds: int = 10_000,
    operator: OplusOperator = oplus,
    stats: WeightFixpointStats | None = None,
) -> WeightedPartition:
    """``Propagate(ξ) = BisimRefine*_{UN(ξ)}(Blank(ξ, UN(ξ)))``.

    Blanks every unaligned non-literal node (color ⊥, weight 0) and refines
    them, letting previously aligned neighbors define both the identity and
    the confidence of the blanked nodes.
    """
    unaligned = unaligned_non_literals(graph, weighted.partition)
    blanked = weighted.blank_out(unaligned, interner)
    return weighted_refine_fixpoint(
        graph,
        blanked,
        unaligned,
        interner,
        epsilon=epsilon,
        max_rounds=max_rounds,
        operator=operator,
        stats=stats,
    )
