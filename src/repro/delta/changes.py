"""Deltas between graph versions, derived from an alignment.

The paper's related-work section notes that "constructing an alignment
between two graphs is virtually equivalent to constructing their delta
[20], a description of changes occurring between the two graphs", and that
its own methods "identify low-level changes occurring on the atomic level
of nodes and their labels".  This module makes that equivalence concrete:
given a combined graph and an alignment partition, it derives

* **node changes** — entities inserted, deleted, renamed (aligned nodes
  with different labels) and kept;
* **triple changes** — added/removed triples *modulo the alignment*
  (a triple whose endpoints all align is not a change, even if every
  identifier in it was renamed).

Ambiguously aligned nodes (fat classes) are reported separately rather
than guessed at.

A second, *operational* delta lives here too: :class:`VersionChanges`, an
exact edit script (node renames/insertions/deletions plus edge
insertions/deletions) connecting two concrete graphs.  Where
:class:`Delta` describes changes *modulo an alignment* for human
consumption, a :class:`VersionChanges` is machine-applicable: ``diff(a,
b).apply(a)`` rebuilds ``b`` exactly, and deltas compose.  Fixpoint
maintenance (:mod:`repro.core.maintain`) consumes them: only the
predecessor closure of a delta's changed nodes gets new canonical
colors.  It pays only for deltas the caller already has (an archive's
write log, a generator's entity keys); computing one with :func:`diff`
costs more than canonizing the new version from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..io.ntriples import format_term
from ..model.graph import Edge, NodeId, TripleGraph
from ..model.labels import Label, Literal, URI
from ..model.rdf import BlankNode
from ..model.union import CombinedGraph
from ..partition.alignment import PartitionAlignment
from ..partition.coloring import Partition


@dataclass(frozen=True)
class NodeChange:
    """One node-level change."""

    kind: str  # "inserted" | "deleted" | "renamed" | "ambiguous"
    source: NodeId | None
    target: NodeId | None
    source_label: Label | None = None
    target_label: Label | None = None


@dataclass
class Delta:
    """A low-level change description between two versions."""

    inserted_nodes: list[NodeChange] = field(default_factory=list)
    deleted_nodes: list[NodeChange] = field(default_factory=list)
    renamed_nodes: list[NodeChange] = field(default_factory=list)
    ambiguous_nodes: list[NodeChange] = field(default_factory=list)
    kept_node_count: int = 0
    added_triples: list[Edge] = field(default_factory=list)
    removed_triples: list[Edge] = field(default_factory=list)
    kept_triple_count: int = 0

    @property
    def is_empty(self) -> bool:
        return not (
            self.inserted_nodes
            or self.deleted_nodes
            or self.renamed_nodes
            or self.added_triples
            or self.removed_triples
        )

    def summary(self) -> dict[str, int]:
        return {
            "kept_nodes": self.kept_node_count,
            "inserted_nodes": len(self.inserted_nodes),
            "deleted_nodes": len(self.deleted_nodes),
            "renamed_nodes": len(self.renamed_nodes),
            "ambiguous_nodes": len(self.ambiguous_nodes),
            "kept_triples": self.kept_triple_count,
            "added_triples": len(self.added_triples),
            "removed_triples": len(self.removed_triples),
        }


def compute_delta(graph: CombinedGraph, partition: Partition) -> Delta:
    """Derive the delta of ``graph.source → graph.target`` under *partition*."""
    alignment = PartitionAlignment(graph, partition)
    delta = Delta()

    # ---- node-level changes -------------------------------------------
    for node in sorted(graph.source_nodes, key=graph.sort_key):
        partners = alignment.partners(node)
        if not partners:
            delta.deleted_nodes.append(
                NodeChange(
                    kind="deleted",
                    source=node,
                    target=None,
                    source_label=graph.label(node),
                )
            )
        elif len(partners) == 1:
            (partner,) = partners
            if graph.label(node) != graph.label(partner):
                delta.renamed_nodes.append(
                    NodeChange(
                        kind="renamed",
                        source=node,
                        target=partner,
                        source_label=graph.label(node),
                        target_label=graph.label(partner),
                    )
                )
            else:
                delta.kept_node_count += 1
        else:
            delta.ambiguous_nodes.append(
                NodeChange(
                    kind="ambiguous",
                    source=node,
                    target=None,
                    source_label=graph.label(node),
                )
            )
    for node in sorted(graph.target_nodes, key=graph.sort_key):
        if not alignment.partners(node):
            delta.inserted_nodes.append(
                NodeChange(
                    kind="inserted",
                    source=None,
                    target=node,
                    target_label=graph.label(node),
                )
            )

    # ---- triple-level changes (modulo the alignment) -------------------
    # Each color key keeps the edge whose rendered terms sort first, and
    # both lists are sorted by rendered terms: neither the edge set's
    # iteration order, the color ids nor the node ids (which follow input
    # order) may reach the output.
    rendered = {node: _render(graph.original(node)) for node in graph.nodes()}
    source_triples: dict[tuple, tuple[tuple[str, str, str], Edge]] = {}
    target_triples: dict[tuple, tuple[tuple[str, str, str], Edge]] = {}
    split = graph.num_source_nodes
    for edge in graph.edges():
        subject, predicate, obj = edge
        key = (partition[subject], partition[predicate], partition[obj])
        text = (rendered[subject], rendered[predicate], rendered[obj])
        side = source_triples if subject < split else target_triples  # type: ignore[operator]
        kept = side.get(key)
        if kept is None or text < kept[0]:
            side[key] = (text, edge)
    delta.kept_triple_count = len(source_triples.keys() & target_triples.keys())
    delta.removed_triples = _sorted_edges(
        entry for key, entry in source_triples.items() if key not in target_triples
    )
    delta.added_triples = _sorted_edges(
        entry for key, entry in target_triples.items() if key not in source_triples
    )
    return delta


def _render(original: NodeId) -> str:
    """A version node id as N-Triples text (``repr`` if it is no term)."""
    if isinstance(original, (URI, Literal, BlankNode)):
        return format_term(original)
    return repr(original)


def _sorted_edges(entries: Iterable[tuple[tuple[str, str, str], Edge]]) -> list[Edge]:
    return [edge for _, edge in sorted(entries, key=lambda entry: entry[0])]


def render_delta(graph: CombinedGraph, delta: Delta, limit: int = 20) -> str:
    """A human-readable changelog."""

    def term(node: NodeId) -> str:
        return repr(graph.original(node))

    lines = ["delta summary:"]
    for key, value in delta.summary().items():
        lines.append(f"  {key}: {value}")

    def section(title: str, entries: Iterable[str]) -> None:
        entries = list(entries)
        if not entries:
            return
        lines.append(f"{title}:")
        for entry in entries[:limit]:
            lines.append(f"  {entry}")
        if len(entries) > limit:
            lines.append(f"  ... and {len(entries) - limit} more")

    section(
        "renamed",
        (
            f"{change.source_label} -> {change.target_label}"
            for change in delta.renamed_nodes
        ),
    )
    section(
        "deleted nodes",
        (str(change.source_label) for change in delta.deleted_nodes),
    )
    section(
        "inserted nodes",
        (str(change.target_label) for change in delta.inserted_nodes),
    )
    section(
        "removed triples",
        (
            f"({term(s)} {term(p)} {term(o)})"
            for s, p, o in delta.removed_triples
        ),
    )
    section(
        "added triples",
        (
            f"({term(s)} {term(p)} {term(o)})"
            for s, p, o in delta.added_triples
        ),
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Operational deltas between two concrete graph versions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class VersionChanges:
    """An exact edit script turning one graph version into the next.

    The script is applied in this order: drop ``removed_edges`` and
    ``removed_nodes`` (before-identifiers), substitute node identifiers
    through ``renamed`` (``(old_id, new_id, new_label)``; surviving edges
    are mapped endpoint-wise), then add ``added_nodes`` and
    ``added_edges`` (after-identifiers).  A rename with ``old_id ==
    new_id`` is a relabel in place.

    Invariants expected by :meth:`apply` and the maintenance machinery:
    the rename map is injective, removed edges use before-identifiers,
    added edges use after-identifiers, and every endpoint of a surviving
    or added edge survives.  :func:`diff` produces scripts satisfying all
    of them by construction.
    """

    renamed: tuple[tuple[NodeId, NodeId, Label], ...] = ()
    removed_nodes: frozenset = frozenset()
    added_nodes: tuple[tuple[NodeId, Label], ...] = ()
    removed_edges: frozenset = frozenset()
    added_edges: frozenset = frozenset()

    @property
    def is_empty(self) -> bool:
        return not (
            self.renamed
            or self.removed_nodes
            or self.added_nodes
            or self.removed_edges
            or self.added_edges
        )

    def rename_map(self) -> dict[NodeId, NodeId]:
        """``old_id -> new_id`` for every renamed node."""
        return {old: new for old, new, _ in self.renamed}

    def summary(self) -> dict[str, int]:
        return {
            "renamed_nodes": len(self.renamed),
            "removed_nodes": len(self.removed_nodes),
            "added_nodes": len(self.added_nodes),
            "removed_edges": len(self.removed_edges),
            "added_edges": len(self.added_edges),
        }

    # ------------------------------------------------------------------
    def apply(self, graph: TripleGraph) -> TripleGraph:
        """The after-graph: a fresh graph of *graph*'s type, edited."""
        result = type(graph)()
        renames = self.rename_map()
        new_labels = {new: label for _, new, label in self.renamed}
        for node, label in graph.labels().items():
            if node in self.removed_nodes:
                continue
            image = renames.get(node, node)
            result.add_node(image, new_labels.get(image, label))
        for node, label in self.added_nodes:
            result.add_node(node, label)
        for edge in graph.edges():
            if edge in self.removed_edges:
                continue
            subject, predicate, obj = (renames.get(x, x) for x in edge)
            result.add_edge(subject, predicate, obj)
        for subject, predicate, obj in self.added_edges:
            result.add_edge(subject, predicate, obj)
        return result

    # ------------------------------------------------------------------
    def compose(self, other: "VersionChanges") -> "VersionChanges":
        """The single script equivalent to applying *self* then *other*.

        ``a.compose(b).apply(g) == b.apply(a.apply(g))`` for any graph
        the scripts consistently connect (the property test pins this).
        """
        r2 = other.rename_map()
        lbl2 = {new: label for _, new, label in other.renamed}
        inv1 = {new: old for old, new, _ in self.renamed}
        added_mid = {node for node, _ in self.added_nodes}

        removed_nodes = set(self.removed_nodes)
        renamed: list[tuple[NodeId, NodeId, Label]] = []
        for old, new, label in self.renamed:
            if new in other.removed_nodes:
                removed_nodes.add(old)
                continue
            final = r2.get(new, new)
            renamed.append((old, final, lbl2.get(final, label)))
        for old, new, label in other.renamed:
            if old in added_mid or old in inv1:
                continue  # handled through the add / first-rename passes
            renamed.append((old, new, label))
        for node in other.removed_nodes:
            if node not in added_mid and node not in inv1:
                removed_nodes.add(node)

        added: list[tuple[NodeId, Label]] = []
        for node, label in self.added_nodes:
            if node in other.removed_nodes:
                continue  # added then removed: cancels out
            final = r2.get(node, node)
            added.append((final, lbl2.get(final, label)))
        added.extend(other.added_nodes)

        removed_edges = set(self.removed_edges)
        cancelled: set[Edge] = set()
        for edge in other.removed_edges:
            if edge in self.added_edges:
                cancelled.add(edge)  # added then removed: cancels out
            else:
                removed_edges.add(tuple(inv1.get(x, x) for x in edge))
        added_edges = {
            tuple(r2.get(x, x) for x in edge)
            for edge in self.added_edges
            if edge not in cancelled
        }
        added_edges.update(other.added_edges)
        return VersionChanges(
            renamed=tuple(sorted(renamed, key=repr)),
            removed_nodes=frozenset(removed_nodes),
            added_nodes=tuple(sorted(set(added), key=repr)),
            removed_edges=frozenset(removed_edges),
            added_edges=frozenset(added_edges),
        )


def diff(
    before: TripleGraph,
    after: TripleGraph,
    renames: Mapping[NodeId, NodeId] | None = None,
) -> VersionChanges:
    """The :class:`VersionChanges` script connecting *before* to *after*.

    Nodes are matched by identifier; *renames* (``old_id -> new_id``)
    optionally declares identity-preserving identifier moves first — the
    crucial input for blank nodes, whose identifiers reshuffle between
    versions even when the entities persist (pass the generator's or
    archive's entity correspondence here).  Without it, every reshuffled
    blank degenerates into a removal plus an insertion, which is correct
    but defeats incremental maintenance.
    """
    before_labels = before.labels()
    after_labels = after.labels()
    rename_map: dict[NodeId, NodeId] = {}
    if renames:
        for old, new in renames.items():
            if old != new and old in before_labels and new in after_labels:
                rename_map[old] = new

    renamed: list[tuple[NodeId, NodeId, Label]] = []
    removed: set[NodeId] = set()
    image: dict[NodeId, NodeId] = {}
    for node, label in before_labels.items():
        target = rename_map.get(node, node)
        if target in after_labels:
            image[node] = target
            if target != node or after_labels[target] != label:
                renamed.append((node, target, after_labels[target]))
        else:
            removed.add(node)
    mapped = set(image.values())
    added_nodes = tuple(
        sorted(
            ((n, l) for n, l in after_labels.items() if n not in mapped),
            key=repr,
        )
    )

    removed_edges: set[Edge] = set()
    kept_images: set[Edge] = set()
    for edge in before.edges():
        if all(x in image for x in edge):
            mapped_edge = tuple(image[x] for x in edge)
            if after.has_edge(*mapped_edge):
                kept_images.add(mapped_edge)
                continue
        removed_edges.add(edge)
    added_edges = frozenset(
        edge for edge in after.edges() if edge not in kept_images
    )
    return VersionChanges(
        renamed=tuple(sorted(renamed, key=repr)),
        removed_nodes=frozenset(removed),
        added_nodes=added_nodes,
        removed_edges=frozenset(removed_edges),
        added_edges=added_edges,
    )
