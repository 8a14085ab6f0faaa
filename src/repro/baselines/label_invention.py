"""Blank-node label invention (Tzitzikas, Lantzaki & Zeginis, ISWC 2012) [17].

The prior art for blank-node matching: each blank node receives an
*invented label* computed bottom-up from its outbound neighborhood — a
canonical serialization of the (predicate, object) pairs, where blank
objects contribute their own invented labels.  Matching then reduces to
label equality.

The method **assumes the blank nodes form no cycles**; on cyclic blanks it
fails (we raise :class:`CyclicBlankError`).  The paper's deblanking
alignment generalizes it: on acyclic inputs both agree (property-tested),
and deblanking additionally handles cycles, edit-distance refinement and
ontology renames.
"""

from __future__ import annotations

from typing import Callable

from ..exceptions import ReproError
from ..model.graph import NodeId, TripleGraph
from ..model.labels import is_blank
from ..model.union import CombinedGraph


class CyclicBlankError(ReproError):
    """The blank nodes form a cycle; label invention is undefined."""


def invent_labels(graph: TripleGraph) -> dict[NodeId, str]:
    """Canonical invented labels for every blank node of *graph*.

    Non-blank nodes are rendered by their own labels; a blank node is
    rendered as the sorted list of its outbound (predicate, object)
    renderings.  Equal invented labels ⟺ equal unfoldings.
    """
    invented: dict[NodeId, str] = {}
    in_progress: set[NodeId] = set()
    # A union's int ids say nothing; name its nodes by side and term.
    name: Callable[[NodeId], str] = (
        graph.sort_key if isinstance(graph, CombinedGraph) else repr
    )

    def render(node: NodeId) -> str:
        label = graph.label(node)
        if not is_blank(label):
            return repr(label)
        if node in invented:
            return invented[node]
        if node in in_progress:
            raise CyclicBlankError(
                f"blank node {name(node)} participates in a blank cycle; "
                "label invention assumes acyclic blanks (use deblanking)"
            )
        in_progress.add(node)
        parts = sorted(
            f"({render(predicate)} {render(obj)})" for predicate, obj in graph.out(node)
        )
        in_progress.discard(node)
        invented[node] = "[" + " ".join(parts) + "]"
        return invented[node]

    for node in graph.nodes():
        if is_blank(graph.label(node)):
            render(node)
    return invented


def label_invention_alignment(graph: CombinedGraph) -> set[tuple[NodeId, NodeId]]:
    """Align two versions by (invented-)label equality.

    Non-blank nodes align on their labels (the trivial alignment); blank
    nodes align on their invented labels.  Raises on blank cycles.
    """
    invented = invent_labels(graph)

    def key(node: NodeId) -> str:
        if node in invented:
            return "blank:" + invented[node]
        return "label:" + repr(graph.label(node))

    by_key: dict[str, tuple[set[NodeId], set[NodeId]]] = {}
    for node in graph.source_nodes:
        by_key.setdefault(key(node), (set(), set()))[0].add(node)
    for node in graph.target_nodes:
        by_key.setdefault(key(node), (set(), set()))[1].add(node)
    pairs: set[tuple[NodeId, NodeId]] = set()
    for sources, targets in by_key.values():
        for source in sources:
            for target in targets:
                pairs.add((source, target))
    return pairs
