"""Bisimulation partition refinement (paper Section 3.2).

One refinement step recolors a node with the combination of its current
color and the colors of its outbound (predicate, object) pairs — paper
equation (1):

    recolor_λ(n) = (λ(n), {(λ(p), λ(o)) | (p, o) ∈ out_G(n)})

``BisimRefine_X`` applies ``recolor`` to the nodes of a chosen subset ``X``
only (equation (2)); iterating it to a fixpoint yields ``BisimRefine*_X``
(Definition 4).  :func:`refine_rounds` is the one reference loop of
that iteration and :func:`refine_to_fixpoint` runs it to the fixpoint;
full bisimulation, the trace, the Section 6 keyed and context-aware
variants and the store's joint quotient refinement differ only in the
recolor key they hand it, and k-bisimulation
(:mod:`repro.core.ksignature`) is the same loop cut at ``k`` rounds.

Its stop test assumes that classes only ever split (the new color embeds
the old one), so that "the class count stopped growing" means "stable".
That is false for a subset refined against a shared interner: a recolored
node can take a color used outside the subset, a split and a merge cancel,
and an unrefined iterate is returned (a known wrong answer, see
ROADMAP.md).  Two functions hold that test: :func:`refine_rounds` and
:func:`repro.core.dense.refine_colors`.

Colors are hash-consed through :class:`~repro.partition.interner.ColorInterner`,
which is the paper's "simple hashing technique": the derivation tree of a
color is stored once as a DAG and color comparison is integer equality.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Callable, Collection, Hashable

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
    #: Class count after each executed round (``class_counts[r]`` after
    #: round ``r + 1``, the confirming round included).
    class_counts: list[int] = field(default_factory=list)


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


#: ``key(graph, current, node)``: the color key of *node* after *current*.
RecolorKey = Callable[[Any, Partition, NodeId], Hashable]


def refine_rounds(
    graph: Any,
    partition: Partition,
    subset: Collection[NodeId] | None,
    interner: ColorInterner | None,
    key: RecolorKey,
    max_rounds: int | None = None,
    stats: FixpointStats | None = None,
    iterates: list[Partition] | None = None,
) -> Partition:
    """At most *max_rounds* ``BisimRefine`` rounds under the recolor key *key*.

    The reference loop.  Each round recolors every node of *subset*
    (default: ``graph.nodes()``) at once to
    ``interner.intern(key(graph, current, node))``, and the loop returns
    the last iterate before a round that leaves the class count unchanged
    (``stats.converged``), or the iterate after *max_rounds* rounds.
    *graph* is whatever *key* reads.  Without an *interner* the partition
    is reseeded (:func:`reseed_partition`); a supplied one must cover it
    (:func:`check_interner_covers`).  *iterates*, when given, receives
    every iterate, the initial partition first.  A cut is not reported
    here: k-bisimulation asks for exactly *max_rounds* rounds, and
    :func:`refine_to_fixpoint` warns on it.
    """
    if interner is None:
        partition, interner = reseed_partition(partition)
    else:
        check_interner_covers(partition, interner)
    if stats is None:
        stats = FixpointStats()
    stats.engine = "reference"
    stats.initial_classes = current_classes = partition.num_classes
    stats.class_counts = class_counts = []
    nodes = list(subset) if subset is not None else list(graph.nodes())
    intern = interner.intern
    current = partition
    if iterates is not None:
        iterates.append(current)
    converged = False
    while max_rounds is None or len(class_counts) < max_rounds:
        refined = current.with_colors(
            {node: intern(key(graph, current, node)) for node in nodes}
        )
        refined_classes = refined.num_classes
        class_counts.append(refined_classes)
        if refined_classes == current_classes:
            # Equivalent partition: the step was a pure recoloring, so the
            # previous iterate already was the fixpoint.
            converged = True
            break
        current = refined
        current_classes = refined_classes
        if iterates is not None:
            iterates.append(current)
    stats.rounds = len(class_counts)
    stats.converged = converged
    stats.final_classes = current_classes
    return current


def refine_to_fixpoint(
    graph: Any,
    partition: Partition,
    subset: Collection[NodeId] | None,
    interner: ColorInterner | None,
    key: RecolorKey,
    max_rounds: int | None = None,
    stats: FixpointStats | None = None,
    iterates: list[Partition] | None = None,
) -> Partition:
    """``BisimRefine*`` under the recolor key *key*: :func:`refine_rounds`
    until the partition is stable.

    Same arguments; here *max_rounds* is a safety bound, so a cut logs a
    warning and leaves ``stats.converged`` ``False``.
    """
    if stats is None:
        stats = FixpointStats()
    fixpoint = refine_rounds(
        graph, partition, subset, interner, key, max_rounds, stats, iterates
    )
    if not stats.converged:
        _warn_truncated(stats, max_rounds)
    return fixpoint


def bisim_refine_fixpoint(
    graph: TripleGraph,
    partition: Partition,
    subset: Collection[NodeId] | None = None,
    interner: ColorInterner | None = None,
    max_rounds: int | None = None,
    stats: FixpointStats | None = None,
) -> Partition:
    """``BisimRefine*_X(λ)``: :func:`refine_to_fixpoint` under :func:`recolor_key`.

    *subset* defaults to all nodes (full bisimulation).  *max_rounds*
    bounds the iteration for diagnostics; the natural bound is the number
    of nodes.  **Truncation is not silent**: the returned partition is then
    only an intermediate refinement (finer than the input, coarser than
    the fixpoint), a warning is logged, and ``stats.converged`` (pass a
    :class:`FixpointStats`) is ``False``.
    """
    return refine_to_fixpoint(
        graph, partition, subset, interner, recolor_key, max_rounds, stats
    )


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
    trace: list[Partition] = []
    refine_to_fixpoint(graph, partition, subset, interner, recolor_key, max_rounds, iterates=trace)
    return trace
