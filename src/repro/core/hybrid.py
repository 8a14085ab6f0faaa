"""The hybrid alignment (paper Section 3.4).

Deblanking cannot align two URI nodes carrying *different* URI labels
(e.g. ``ed-uni`` renamed to ``uoe``): the label is baked into the color at
every refinement step.  The hybrid alignment therefore

1. takes the deblanking partition,
2. resets the color of every unaligned non-literal node (URIs *and*
   blanks) to the neutral blank color ``⊥`` — paper equation (3) — putting
   all of them into one cluster, and
3. re-runs bisimulation refinement on exactly those nodes, letting their
   *contents* define their identity.

The paper notes that starting from ``λ_Trivial`` instead of ``λ_Deblank``
yields the same result (our tests check this), and that the alignments
form a hierarchy ``Align(λ_Trivial) ⊆ Align(λ_Deblank) ⊆ Align(λ_Hybrid)``.
"""

from __future__ import annotations

from typing import Iterable

from ..model.graph import NodeId
from ..model.union import CombinedGraph
from ..partition.alignment import unaligned_non_literals
from ..partition.coloring import Partition
from ..partition.interner import ColorInterner
from .deblank import deblank_partition
from .dense import resolve_refine_engine


def blanked_partition(
    partition: Partition, nodes: Iterable[NodeId], interner: ColorInterner
) -> Partition:
    """``Blank(λ, X)``: reset the color of every node in X to ``⊥``."""
    blank = interner.blank_color()
    return partition.with_colors({node: blank for node in nodes})


def hybrid_partition(
    graph: CombinedGraph,
    interner: ColorInterner | None = None,
    base: Partition | None = None,
    engine: str = "reference",
) -> Partition:
    """``λ_Hybrid = BisimRefine*_{UN(λ)}(Blank(λ, UN(λ)))`` for ``λ = λ_Deblank``.

    *base* may be supplied to start from a different partition (the paper
    points out ``λ_Trivial`` gives the same result); it must share
    *interner*.  *engine* selects the refinement implementation (see
    :mod:`repro.core.dense`) and is used for both the deblanking base and
    the hybrid re-refinement, so hash-consed colors stay in one key space;
    on the dense engine both phases read the graph's one cached snapshot.
    """
    refine = resolve_refine_engine(engine)
    if interner is None:
        interner = ColorInterner()
    if base is None:
        base = deblank_partition(graph, interner, engine=engine)
    unaligned = unaligned_non_literals(graph, base)
    blanked = blanked_partition(base, unaligned, interner)
    return refine(graph, blanked, unaligned, interner)
