"""Fixpoint maintenance under version deltas (incremental alignment).

Batch alignment recomputes the coarsest stable refinement from scratch
for every version; a long-running archive receives version ``k+1`` as a
*delta*.  Following the localized partition maintenance of Luo et al.
(maintaining bisimulation partitions under graph updates), this module
updates a previous stable partition under a
:class:`~repro.delta.changes.VersionChanges` instead of starting over.

Maintained partitions use **canonical colors**.  A subset node's color
is the interned canonical form of its forward cone,
``("canon", label, frozenset{(color(p), color(o))})``, computed in one
bottom-up walk (:func:`canonical_fixpoint`); every other node keeps its
initial (label) color.  On acyclic cones, two nodes are bisimilar iff
their hash-consed cone encodings are equal (the paper's §3.2 colors as
derivation DAGs; Piazza & Policriti), so equal cones intern to equal
colors in one shared interner, and the result is the coarsest stable
refinement with no merge pass.  A color is valid until its node's cone
changes, which gives the maintenance step:

1. **Rename pass** — identifier renames never change refinement
   structure, so the previous partition's keys are substituted through
   the rename map.  Blank identifiers reshuffle wholesale between
   versions on real archives; with an identity-preserving delta the
   reshuffle costs one dict rebuild.
2. **Checks** — the delta must connect the previous partition to the
   graph (node sets agree), and the previous non-subset classes must be
   grouped by label.  A hybrid base fails the latter and is rejected.
3. **Closure** — the *directly changed* nodes (inserted nodes, subjects
   of inserted/deleted edges, relabeled nodes) are closed under
   predecessors (:meth:`~repro.model.graph.TripleGraph.occurrence_index`).
   Exactly the closure's cones can have changed.
4. **Carry and walk** — when *previous* is canonical in the given
   interner, every color outside the closure is carried as is and the
   walk recolors only the closure's subset nodes.  Otherwise (no
   interner, or a batch result) the walk covers the whole subset.

The canonical form exists only for acyclic cones.  When the nodes to
walk hold a cycle, the step falls back to batch
:func:`~repro.core.refinement.bisim_refine_fixpoint` and sets
``stats.fell_back``; the next step then walks its whole subset, since a
batch result is not canonical.

The result is always the same partition (up to recoloring) as batch
refinement on the new graph: ``tests/test_maintain.py`` and the
differential oracle's incremental axis pin this.  Use
:func:`maintain_or_batch` to fall back to :func:`canonical_fixpoint` when
a precondition fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection

from ..delta.changes import VersionChanges
from ..exceptions import PartitionError
from ..model.graph import NodeId, TripleGraph
from ..model.labels import is_blank
from ..partition.coloring import Partition, label_partition
from ..partition.interner import Color, ColorInterner
from .refinement import bisim_refine_fixpoint


@dataclass
class MaintenanceStats:
    """Diagnostics of one maintenance run."""

    #: Directly changed nodes (inserted, relabeled, edge-set changed).
    touched: int = 0
    #: Size of the predecessor closure of the touched set.
    affected: int = 0
    #: Subset nodes recolored by the canonical walk.
    refined: int = 0
    #: Subset nodes whose previous color was carried over untouched.
    kept: int = 0
    #: ``True`` when the step fell back to batch refinement.
    fell_back: bool = False


def deblank_fixpoint(graph: TripleGraph, interner: ColorInterner | None = None) -> Partition:
    """The deblanking fixpoint of one version, by batch refinement.

    The reference every maintained partition is checked against.
    """
    if interner is None:
        interner = ColorInterner()
    return bisim_refine_fixpoint(
        graph, label_partition(graph, interner), graph.blanks(), interner
    )


def canonical_fixpoint(
    graph: TripleGraph,
    subset: Collection[NodeId] | None = None,
    interner: ColorInterner | None = None,
) -> Partition:
    """The coarsest stable refinement of *graph*'s label partition on
    *subset*, in canonical colors.

    *subset* defaults to all nodes (full bisimulation);
    ``graph.blanks()`` gives the deblanking fixpoint.  This anchors a
    maintained chain: pass the chain's interner here and to every
    :func:`maintain_fixpoint` step.  A cycle among the subset's nodes has
    no canonical form, and the partition then comes from batch
    refinement instead (equivalent, not canonical).
    """
    if interner is None:
        interner = ColorInterner()
    colors = label_partition(graph, interner).as_dict()
    walk = set(subset) if subset is not None else set(colors)
    return _walk_or_batch(graph, colors, walk, subset, interner)


def maintain_fixpoint(
    graph: TripleGraph,
    previous: Partition,
    changes: VersionChanges,
    subset: Collection[NodeId] | None = None,
    interner: ColorInterner | None = None,
    stats: MaintenanceStats | None = None,
) -> Partition:
    """Update a stable partition under *changes* instead of recomputing.

    *previous* must be a stable refinement over the before-graph's nodes
    (e.g. the previous version's deblanking fixpoint), *changes* the
    delta connecting the before-graph to *graph*, and *subset* the
    refined subset **in after-graph identifiers** (``None`` = all nodes,
    i.e. full bisimulation; ``graph.blanks()`` = deblanking).  Returns
    the coarsest stable refinement of *graph*'s label partition on
    *subset*, equivalent (as a partition) to batch refinement.

    Raises :class:`PartitionError` when the delta does not connect
    *previous* to *graph* or when *previous*'s non-subset classes are
    not grouped by label; it never silently diverges.

    The chain contract: when *previous* came from
    :func:`canonical_fixpoint` or this function with the same *interner*,
    only the predecessor closure of the touched nodes is walked, and
    every other color is carried.  Otherwise the whole subset is walked.
    """
    renames = changes.rename_map()
    labels = graph.labels()

    # 1. Rename pass: carry previous colors to after-graph identifiers.
    # One C-level dict copy plus O(delta) surgical updates.  Two survivors
    # may collapse onto one identifier (a rename target that already
    # existed): the collapsed node inherits the union of both nodes'
    # edges, so it (and transitively its predecessors) must be
    # recolored rather than carried.
    carried: dict[NodeId, Color] = previous.as_dict()
    collapsed: set[NodeId] = set()
    for node in changes.removed_nodes:
        carried.pop(node, None)
    if renames:
        moves: list[tuple[NodeId, Color]] = []
        for old, new in renames.items():
            color = carried.pop(old, None)
            if color is not None:
                moves.append((new, color))
        for new, color in moves:
            if new in carried:
                collapsed.add(new)
            carried[new] = color
    added = {node for node, _ in changes.added_nodes}
    if carried.keys() | added != labels.keys() or not added.isdisjoint(carried):
        raise PartitionError(
            "delta does not connect the previous partition to the graph: "
            "node sets disagree after applying renames/removals/insertions"
        )
    subset_nodes = set(subset) if subset is not None else set(labels.keys())

    # 2. Precondition: previous non-subset colors must be label-grounded
    # (color <-> label bijection).  A hybrid base violates this.
    label_of_color: dict[Color, object] = {}
    color_of_label: dict[object, Color] = {}
    for node, label in labels.items():
        if node in subset_nodes:
            continue
        color = carried.get(node)
        if color is None:
            continue  # an inserted non-subset node has no previous color
        if (
            label_of_color.setdefault(color, label) != label
            or color_of_label.setdefault(label, color) != color
        ):
            raise PartitionError(
                "previous partition's non-subset classes are not grouped by "
                "label (a hybrid base, for example); maintenance cannot "
                "carry them — fall back to batch refinement"
            )

    # 3. Directly changed nodes and their predecessor closure.
    touched: set[NodeId] = set(added) | collapsed
    for edge in changes.added_edges:
        touched.add(edge[0])
    for edge in changes.removed_edges:
        image = renames.get(edge[0], edge[0])
        if image in carried:
            touched.add(image)
    for _, new, label in changes.renamed:
        # A renamed blank keeps the blank label: pure key substitution.
        # Everything else may have changed label, so its initial color
        # (and hence every predecessor's cone) may differ.
        if not is_blank(label):
            touched.add(new)
    touched &= labels.keys()
    occurrences = graph.occurrence_index()
    affected: set[NodeId] = set()
    frontier = list(touched)
    while frontier:
        node = frontier.pop()
        if node in affected:
            continue
        affected.add(node)
        for predecessor in occurrences.get(node, ()):
            if predecessor not in affected:
                frontier.append(predecessor)

    # 4. Carry every color outside the closure when previous is canonical
    # in this interner, and walk the closure's subset nodes only.  The
    # touched non-subset nodes take their (possibly new) label's color.
    if interner is not None and _all_canonical(
        set(map(carried.__getitem__, subset_nodes - affected)), interner
    ):
        colors = carried
        blank_color = interner.blank_color()
        for node in sorted(touched - subset_nodes, key=graph.dense_id):
            label = labels[node]
            colors[node] = (
                blank_color if is_blank(label) else interner.label_color(label)
            )
        walk = affected & subset_nodes
    else:
        if interner is None:
            interner = ColorInterner()
        colors = label_partition(graph, interner).as_dict()
        walk = subset_nodes
    if stats is not None:
        stats.touched = len(touched)
        stats.affected = len(affected)
        stats.refined = len(walk)
        stats.kept = len(subset_nodes) - len(walk)
    return _walk_or_batch(graph, colors, walk, subset, interner, stats)


def _all_canonical(colors: set[Color], interner: ColorInterner) -> bool:
    """Is every color of *colors* a canonical form in *interner*?"""
    limit = len(interner)
    key = interner.key
    for color in colors:
        if not 0 <= color < limit:
            return False
        form = key(color)
        if not (isinstance(form, tuple) and form[:1] == ("canon",)):
            return False
    return True


def _walk_or_batch(
    graph: TripleGraph,
    colors: dict[NodeId, Color],
    walk: set[NodeId],
    subset: Collection[NodeId] | None,
    interner: ColorInterner,
    stats: MaintenanceStats | None = None,
) -> Partition:
    """*colors* with canonical forms for *walk*, or batch refinement of
    *subset* when *walk* holds a cycle."""
    if _canonize(graph, colors, walk, interner):
        return Partition(colors)
    if stats is not None:
        stats.fell_back = True
    return bisim_refine_fixpoint(
        graph, label_partition(graph, interner), subset, interner
    )


def _canonize(
    graph: TripleGraph,
    colors: dict[NodeId, Color],
    walk: set[NodeId],
    interner: ColorInterner,
) -> bool:
    """Give every node of *walk* the canonical form of its cone.

    One iterative post-order walk, with roots in graph node order: a
    node is interned as ``("canon", label, frozenset{(colors[p],
    colors[o])})`` once every successor in *walk* has its form.
    *colors* must already hold the final color of every endpoint outside
    *walk*.  Returns ``False`` on a cycle among *walk*'s nodes, which has
    no canonical form; *colors* is then partly rewritten.
    """
    labels = graph.labels()
    out = graph.out_index()
    intern = interner.intern
    pending = set(walk)
    expanded: set[NodeId] = set()
    for root in sorted(walk, key=graph.dense_id):
        if root not in pending:
            continue
        stack = [root]
        while stack:
            node = stack[-1]
            if node not in pending:
                stack.pop()  # finished by an earlier path
                continue
            pairs = out.get(node, ())
            if node in expanded:
                # Second visit: every successor has its form now.
                colors[node] = intern(
                    (
                        "canon",
                        labels[node],
                        frozenset([(colors[p], colors[o]) for p, o in pairs]),
                    )
                )
                pending.discard(node)
                stack.pop()
                continue
            expanded.add(node)
            for pair in pairs:
                for endpoint in pair:
                    if endpoint in pending:
                        # Every node above an expanded, unfinished node
                        # on the stack is reachable from it: a cycle.
                        if endpoint in expanded:
                            return False
                        stack.append(endpoint)
    return True


def maintain_or_batch(
    graph: TripleGraph,
    previous: Partition,
    changes: VersionChanges,
    subset: Collection[NodeId] | None = None,
    interner: ColorInterner | None = None,
    stats: MaintenanceStats | None = None,
) -> Partition:
    """Maintain when the preconditions hold, else compute from scratch.

    Partitions that maintenance cannot connect to the graph (or whose
    non-subset classes are not label-grounded, like a hybrid base) are
    recomputed with :func:`canonical_fixpoint`, never silently diverged
    from.  Falling back into the caller's interner re-anchors a chain:
    the next step carries again.
    """
    try:
        return maintain_fixpoint(graph, previous, changes, subset, interner, stats)
    except PartitionError:
        if stats is not None:
            stats.fell_back = True
        return canonical_fixpoint(graph, subset, interner)
