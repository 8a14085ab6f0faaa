"""Partitions of a graph, represented as colorings (paper Section 2.2).

A *partition* of a graph ``G`` is a function ``λ : N_G → C`` assigning a
color to every node; its equivalence classes are the sets of nodes sharing
a color.  Two partitions are *equivalent* (``λ1 ≡ λ2``) when they induce
the same equivalence relation — the color values themselves are mere
representation, which is why refinement functions must be invariant under
recoloring (paper Definition 3).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from ..exceptions import PartitionError
from ..model.graph import NodeId, TripleGraph
from ..model.labels import is_blank
from .interner import Color, ColorInterner


class Partition(Mapping[NodeId, Color]):
    """An immutable-by-convention node coloring.

    Behaves as a read-only mapping from node to color; mutation goes
    through :meth:`with_colors` which returns a new partition.
    """

    __slots__ = ("_colors", "_classes")

    def __init__(self, colors: Mapping[NodeId, Color]) -> None:
        self._colors: dict[NodeId, Color] = dict(colors)
        self._classes: dict[Color, frozenset[NodeId]] | None = None

    # -- mapping protocol ------------------------------------------------
    def __getitem__(self, node: NodeId) -> Color:
        try:
            return self._colors[node]
        except KeyError:
            raise PartitionError(f"partition does not cover node {node!r}") from None

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._colors)

    def __len__(self) -> int:
        return len(self._colors)

    # Concrete views instead of the Mapping-ABC defaults: the ABC versions
    # route every element through ``__getitem__`` (and its try/except),
    # which dominates profiles of the refinement hot paths.
    def keys(self):
        return self._colors.keys()

    def values(self):
        return self._colors.values()

    def items(self):
        return self._colors.items()

    # -- structure ---------------------------------------------------------
    def color(self, node: NodeId) -> Color:
        """``λ(node)``."""
        return self[node]

    def classes(self) -> dict[Color, frozenset[NodeId]]:
        """Equivalence classes keyed by color (computed once, cached)."""
        if self._classes is None:
            buckets: dict[Color, set[NodeId]] = {}
            for node, color in self._colors.items():
                buckets.setdefault(color, set()).add(node)
            self._classes = {c: frozenset(members) for c, members in buckets.items()}
        return self._classes

    @property
    def num_classes(self) -> int:
        """Number of distinct colors in use."""
        return len(set(self._colors.values()))

    def class_of(self, node: NodeId) -> frozenset[NodeId]:
        """All nodes sharing *node*'s color."""
        return self.classes()[self[node]]

    def same_class(self, first: NodeId, second: NodeId) -> bool:
        """``(first, second) ∈ R_λ``."""
        return self[first] == self[second]

    # -- relations between partitions ---------------------------------------
    def equivalent_to(self, other: "Partition") -> bool:
        """``λ1 ≡ λ2``: same equivalence classes, colors notwithstanding."""
        if set(self._colors) != set(other._colors):
            return False
        forward: dict[Color, Color] = {}
        backward: dict[Color, Color] = {}
        for node, color in self._colors.items():
            other_color = other._colors[node]
            if forward.setdefault(color, other_color) != other_color:
                return False
            if backward.setdefault(other_color, color) != color:
                return False
        return True

    def finer_than(self, other: "Partition") -> bool:
        """``R_self ⊆ R_other``: every class of *self* fits in one of *other*.

        Reflexive: a partition is finer than itself.
        """
        if set(self._colors) != set(other._colors):
            return False
        image: dict[Color, Color] = {}
        for node, color in self._colors.items():
            other_color = other._colors[node]
            if image.setdefault(color, other_color) != other_color:
                return False
        return True

    # -- derivation -----------------------------------------------------------
    def with_colors(self, updates: Mapping[NodeId, Color]) -> "Partition":
        """A new partition with some nodes recolored."""
        colors = dict(self._colors)
        colors.update(updates)
        return Partition._adopt(colors)

    @classmethod
    def _adopt(cls, colors: dict[NodeId, Color]) -> "Partition":
        """A partition over *colors* itself, not a copy: for a dict the
        caller has just built and never touches again."""
        partition = cls.__new__(cls)
        partition._colors = colors
        partition._classes = None
        return partition

    def as_dict(self) -> dict[NodeId, Color]:
        """A mutable copy of the underlying coloring."""
        return dict(self._colors)

    def __repr__(self) -> str:
        return f"<Partition nodes={len(self._colors)} classes={self.num_classes}>"


def label_partition(graph: TripleGraph, interner: ColorInterner) -> Partition:
    """The node labeling function ``ℓ_G`` viewed as a partition.

    Groups nodes by label; in particular all blank nodes land in one class
    (they share the blank label).  This is the initial partition of the
    deblanking and full-bisimulation refinements.
    """
    colors: dict[NodeId, Color] = {}
    blank_color = interner.blank_color()
    for node, label in graph.labels().items():
        if is_blank(label):
            colors[node] = blank_color
        else:
            colors[node] = interner.label_color(label)
    return Partition(colors)


def discrete_partition(nodes: Iterable[NodeId], interner: ColorInterner) -> Partition:
    """The finest partition: every node alone in its class."""
    return Partition({node: interner.node_color(node) for node in nodes})


def relation_from_partition(partition: Partition) -> set[tuple[NodeId, NodeId]]:
    """Materialize ``R_λ`` as a set of pairs.

    Quadratic in class sizes — intended for tests and small graphs only.
    """
    pairs: set[tuple[NodeId, NodeId]] = set()
    for members in partition.classes().values():
        for first in members:
            for second in members:
                pairs.add((first, second))
    return pairs
