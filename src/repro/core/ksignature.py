"""k-bisimulation: ``BisimRefine`` cut at ``k`` rounds.

The paper's methods iterate ``BisimRefine`` to its *fixpoint*; the
bounded variant of the large-graph literature (Rau, Richerby & Scherp,
*Computing k-Bisimulations for Large Graphs*, 2022) stops after ``k``
rounds.  Both are the same refinement: each round recolors a node with
its current color and the colors of its out-pairs, and the colors are
exact, hash-consed keys of the shared
:class:`~repro.partition.interner.ColorInterner` (§3.2's "simple hashing
technique").  So :func:`ksignature_partition` stages a run and hands it
to each engine's own round loop with ``max_rounds=k``:
:func:`~repro.core.refinement.refine_rounds` under
:func:`~repro.core.refinement.recolor_key` for ``engine="reference"``,
:func:`~repro.core.dense.dense_refine_rounds` for ``engine="dense"``.
Both loops intern one key per node in node order, so the two engines
produce identical colors, not merely equivalent partitions.  ``k`` is
the run's parameter rather than a safety bound, so reaching it logs
nothing.

Because each round's color embeds the previous one, the iterates are
monotonically finer in ``k``, coarser than the full fixpoint, and equal
to it (as a partition) once ``k`` reaches the number of productive
refinement rounds — at most the combined graph's diameter on the pinned
oracle scenarios (the ``kbisim`` differential axis enforces this).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Collection

from ..exceptions import ExperimentError
from ..model.graph import NodeId, TripleGraph
from ..partition.coloring import Partition, label_partition
from ..partition.interner import ColorInterner
from .dense import dense_refine_rounds, resolve_refine_engine
from .refinement import FixpointStats, recolor_key, refine_rounds


@dataclass
class SignatureStats(FixpointStats):
    """Per-run diagnostics of one k-bisimulation refinement.

    :class:`~repro.core.refinement.FixpointStats` plus the bound ``k``.
    ``converged`` is ``True`` iff the partition stabilized before
    exhausting ``k`` rounds — the result then *is* the full
    ``BisimRefine*`` fixpoint restricted to the subset.
    """

    #: The round bound the run was configured with.
    k: int = 0


def ksignature_partition(
    graph: TripleGraph,
    interner: ColorInterner | None = None,
    k: int = 3,
    engine: str = "reference",
    subset: Collection[NodeId] | None = None,
    partition: Partition | None = None,
    stats: SignatureStats | None = None,
) -> Partition:
    """``k`` rounds of bisimulation refinement of *graph*.

    Starts from *partition* (default: the label partition, like the
    paper's methods), refines *subset* (default: all nodes) for at most
    *k* rounds and returns the resulting :class:`Partition`.  With
    ``k >= `` the number of productive refinement rounds the result
    equals ``BisimRefine*`` restricted to the subset; smaller ``k``
    yields a sound intermediate refinement (coarser than the fixpoint,
    monotonically finer in ``k``).  *engine* selects the round loop;
    both produce identical colors, and both check that *interner* covers
    *partition*.
    """
    resolve_refine_engine(engine)  # UnknownEngineError; ConfigError without NumPy
    if isinstance(k, bool) or not isinstance(k, int) or k < 0:
        raise ExperimentError(f"k must be a non-negative integer, got {k!r}")
    if interner is None:
        interner = ColorInterner()
    if partition is None:
        partition = label_partition(graph, interner)
    if stats is None:
        stats = SignatureStats()
    stats.k = k
    if engine == "dense":
        return dense_refine_rounds(graph, partition, subset, interner, k, stats)
    return refine_rounds(graph, partition, subset, interner, recolor_key, k, stats)


def graph_diameter(graph: TripleGraph) -> int:
    """The longest finite directed distance over the out-pair relation.

    Edges are ``subject -> predicate`` and ``subject -> object`` — the
    relation a recolor key reads — so this is the natural bound on how
    far a label distinction can propagate per refinement round.
    Unreachable pairs do not count (the maximum is over *finite*
    distances); an edgeless graph has diameter 0.
    """
    adjacency: dict[NodeId, list[NodeId]] = {}
    for node in graph.nodes():
        targets: list[NodeId] = []
        for predicate, obj in graph.out(node):
            targets.append(predicate)
            targets.append(obj)
        adjacency[node] = targets
    diameter = 0
    for start in adjacency:
        depths: dict[NodeId, int] = {start: 0}
        queue: deque[NodeId] = deque([start])
        while queue:
            node = queue.popleft()
            depth = depths[node] + 1
            for successor in adjacency[node]:
                if successor not in depths:
                    depths[successor] = depth
                    queue.append(successor)
                    if depth > diameter:
                        diameter = depth
    return diameter
