"""The deblanking alignment (paper Section 3.3).

``λ_Deblank = BisimRefine*_{Blanks(G)}(ℓ_G)``: starting from the label
partition (which lumps all blank nodes together), bisimulation refinement
is applied to the *blank nodes only*.  Each blank node thus receives a
color characterizing its contents — the URIs and literals reachable from
it — and two blank nodes are aligned iff those contents coincide.  URIs
and literals keep their label colors, so the deblanking alignment extends
the trivial alignment.
"""

from __future__ import annotations

from ..model.graph import TripleGraph
from ..partition.coloring import Partition, label_partition
from ..partition.interner import ColorInterner
from .dense import resolve_refine_engine


def deblank_partition(
    graph: TripleGraph,
    interner: ColorInterner | None = None,
    engine: str = "reference",
) -> Partition:
    """``λ_Deblank``: bisimulation refinement restricted to blank nodes.

    *engine* selects the refinement implementation — ``"reference"`` (the
    dict-based oracle) or ``"dense"`` (flat arrays, see
    :mod:`repro.core.dense`); both produce equivalent partitions.
    """
    if interner is None:
        interner = ColorInterner()
    refine = resolve_refine_engine(engine)
    initial = label_partition(graph, interner)
    return refine(graph, initial, graph.blanks(), interner)
