"""Bisimulation partition refinement (paper Section 3.2).

One refinement step recolors a node with the combination of its current
color and the colors of its outbound (predicate, object) pairs — paper
equation (1):

    recolor_λ(n) = (λ(n), {(λ(p), λ(o)) | (p, o) ∈ out_G(n)})

``BisimRefine_X`` applies ``recolor`` to the nodes of a chosen subset ``X``
only (equation (2)); iterating it to a fixpoint yields ``BisimRefine*_X``
(Definition 4).  Because the new color embeds the old one, every step is
*finer* than the last, so classes only ever split and the fixpoint test
reduces to "did the number of classes stop growing?".

Colors are hash-consed through :class:`~repro.partition.interner.ColorInterner`,
which is the paper's "simple hashing technique": the derivation tree of a
color is stored once as a DAG and color comparison is integer equality.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Collection

from ..exceptions import PartitionError
from ..model.graph import NodeId, TripleGraph
from ..partition.coloring import Partition
from ..partition.interner import Color, ColorInterner

logger = logging.getLogger(__name__)


@dataclass
class FixpointStats:
    """Diagnostics of one ``BisimRefine*`` run.

    Pass an instance as the ``stats`` argument of a fixpoint function to
    receive it filled in; the engines (reference and dense) populate the
    same fields so runs are comparable.

    ``converged`` is ``False`` exactly when the iteration was cut off by
    ``max_rounds`` before the partition stabilized — the returned partition
    is then a sound *intermediate* refinement (finer than the input,
    coarser than the fixpoint) but not ``BisimRefine*`` itself.
    """

    #: Refinement rounds actually executed (the final, unproductive round
    #: that merely confirms the fixpoint counts).
    rounds: int = 0
    #: True iff the returned partition is the fixpoint.
    converged: bool = False
    #: Class count of the initial partition.
    initial_classes: int = 0
    #: Class count of the returned partition.
    final_classes: int = 0
    #: Engine that produced the result ("reference" or "dense").
    engine: str = "reference"


def _warn_truncated(stats: FixpointStats, max_rounds: int | None) -> None:
    """Log the silent-truncation case so callers get a signal by default."""
    logger.warning(
        "%s engine stopped after max_rounds=%s before reaching a fixpoint; "
        "the returned partition is an intermediate refinement "
        "(%d classes after %d rounds), not BisimRefine*",
        stats.engine,
        max_rounds,
        stats.final_classes,
        stats.rounds,
    )


@dataclass
class WeightFixpointStats:
    """Diagnostics of one weighted Jacobi iteration (paper Section 4.5).

    The weight recurrence of ``BisimRefine*`` for weighted partitions is
    iterated until no weight moves by more than ``ε``; both engines
    (reference and dense) fill the same fields, mirroring
    :class:`FixpointStats` for the color fixpoint.  ``converged`` is
    ``False`` exactly when ``max_rounds`` cut the iteration off while some
    weight still moved by ``ε`` or more — the returned weights are then an
    intermediate iterate, not the weight fixpoint.
    """

    #: Jacobi sweeps actually executed (including the final one whose
    #: maximum change fell below ε).
    rounds: int = 0
    #: True iff the weights stabilized within ``max_rounds``.
    converged: bool = False
    #: Maximum absolute weight change of the last executed sweep.
    final_delta: float = 0.0
    #: Number of nodes whose weights were iterated.
    subset_size: int = 0
    #: Engine that produced the result ("reference" or "dense").
    engine: str = "reference"


def _warn_weight_truncated(stats: WeightFixpointStats, max_rounds: int) -> None:
    """Signal a weight iteration cut off before stabilization."""
    logger.warning(
        "%s engine stopped the weight iteration after max_rounds=%s with the "
        "largest change still at %.3g (>= epsilon); the returned weights are "
        "an intermediate iterate, not the weight fixpoint",
        stats.engine,
        max_rounds,
        stats.final_delta,
    )


def check_interner_covers(partition: Partition, interner: ColorInterner) -> None:
    """Guard against mixing partitions and interners.

    Refinement keys embed the current colors; if those colors were interned
    elsewhere, freshly interned keys can collide with them and silently
    merge unrelated classes.  Every color of *partition* must therefore be
    a valid index into *interner*.
    """
    limit = len(interner)
    for node, color in partition.items():
        if not 0 <= color < limit:
            raise PartitionError(
                f"color {color} of node {node!r} was not produced by the "
                "supplied interner; pass the interner used to build the "
                "initial partition"
            )


def reseed_partition(partition: Partition) -> tuple[Partition, ColorInterner]:
    """Re-intern a foreign partition's colors into a fresh interner.

    Used by every fixpoint entry point when no interner is supplied: the
    incoming colors are preserved as classes (``("seed", color)`` keys)
    but become valid indices of the new interner, so the recolor keys
    minted during refinement cannot collide with them.
    """
    interner = ColorInterner()
    reseeded = Partition(
        {node: interner.intern(("seed", color)) for node, color in partition.items()}
    )
    return reseeded, interner


def recolor_key(
    graph: TripleGraph, partition: Partition, node: NodeId
) -> tuple[str, Color, tuple[tuple[Color, Color], ...]]:
    """The structural key of ``recolor_λ(node)``.

    The out-pair color *set* is canonicalized as a sorted duplicate-free
    tuple so that equal sets produce equal keys.
    """
    pair_colors = {
        (partition[predicate], partition[obj])
        for predicate, obj in graph.out(node)
    }
    return ("recolor", partition[node], tuple(sorted(pair_colors)))


def bisim_refine_step(
    graph: TripleGraph,
    partition: Partition,
    subset: Collection[NodeId],
    interner: ColorInterner,
) -> Partition:
    """One-step ``BisimRefine_X(λ)`` (paper equation (2)).

    Nodes in *subset* are recolored simultaneously (all keys are computed
    against the incoming partition); all other nodes keep their color.
    """
    updates: dict[NodeId, Color] = {}
    for node in subset:
        updates[node] = interner.intern(recolor_key(graph, partition, node))
    return partition.with_colors(updates)


def bisim_refine_fixpoint(
    graph: TripleGraph,
    partition: Partition,
    subset: Collection[NodeId] | None = None,
    interner: ColorInterner | None = None,
    max_rounds: int | None = None,
    stats: FixpointStats | None = None,
) -> Partition:
    """``BisimRefine*_X(λ)``: iterate until the partition stabilizes.

    *subset* defaults to all nodes (full bisimulation).  The fixpoint test
    exploits monotonicity: each step is finer than the last, hence the
    partitions are equivalent iff their class counts agree.

    *max_rounds* bounds the iteration for diagnostics; the natural bound is
    the number of nodes (each productive round adds at least one class).
    **Truncation is not silent**: when the bound cuts the iteration before
    stabilization the returned partition is only an intermediate refinement
    (finer than the input, coarser than the fixpoint), a warning is logged,
    and ``stats.converged`` (pass a :class:`FixpointStats`) is ``False``.
    """
    if interner is None:
        partition, interner = reseed_partition(partition)
    else:
        check_interner_covers(partition, interner)
    if stats is None:
        stats = FixpointStats()
    stats.engine = "reference"
    stats.initial_classes = partition.num_classes
    nodes = list(subset) if subset is not None else list(graph.nodes())
    current = partition
    current_classes = current.num_classes
    rounds = 0
    while True:
        if max_rounds is not None and rounds >= max_rounds:
            stats.rounds = rounds
            stats.converged = False
            stats.final_classes = current_classes
            _warn_truncated(stats, max_rounds)
            return current
        refined = bisim_refine_step(graph, current, nodes, interner)
        refined_classes = refined.num_classes
        rounds += 1
        if refined_classes == current_classes:
            # Equivalent partition: the step was a pure recoloring, so the
            # previous iterate already was the fixpoint (Definition 4 returns
            # Λ^n(λ) for the minimal n with Λ^n(λ) ≡ Λ^{n+1}(λ)).
            stats.rounds = rounds
            stats.converged = True
            stats.final_classes = current_classes
            return current
        current = refined
        current_classes = refined_classes


def refinement_trace(
    graph: TripleGraph,
    partition: Partition,
    subset: Collection[NodeId] | None = None,
    interner: ColorInterner | None = None,
    max_rounds: int = 1000,
) -> list[Partition]:
    """All iterates ``λ0, λ1, …`` up to and including the fixpoint.

    Used by the paper-walkthrough example to reproduce Figure 4's
    round-by-round derivation trees.
    """
    if interner is None:
        partition, interner = reseed_partition(partition)
    else:
        check_interner_covers(partition, interner)
    nodes = list(subset) if subset is not None else list(graph.nodes())
    trace = [partition]
    for _ in range(max_rounds):
        refined = bisim_refine_step(graph, trace[-1], nodes, interner)
        if refined.num_classes == trace[-1].num_classes:
            return trace
        trace.append(refined)
    return trace
