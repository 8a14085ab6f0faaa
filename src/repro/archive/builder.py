"""Compact multi-version archives built from alignments (paper Section 6).

The paper closes with: *"One way of approaching this would be to decorate
triples with intervals that represent versions where the triple was
present.  Our preliminary observations suggest that triples tend to enter
and leave with their subject."*  This module realizes the idea:

1. consecutive versions are aligned (hybrid by default);
2. exactly-aligned nodes are chained into persistent *archive entities*
   via union-find over (version, node) occurrences;
3. every triple becomes an entity-level triple decorated with a
   :class:`~repro.archive.intervals.VersionInterval`;
4. per-version labels are stored once per change, also interval-decorated.

The archive reconstructs any version exactly (label-level isomorphism,
checked by tests), reports its compression against storing every version
separately, and measures the paper's *subject cohesion* observation — the
fraction of triples whose lifetime interval coincides with their
subject's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

from ..core.hybrid import hybrid_partition
from ..exceptions import ExperimentError
from ..model.graph import NodeId, TripleGraph
from ..model.labels import Label
from ..model.union import combine
from ..partition.alignment import PartitionAlignment
from ..partition.interner import ColorInterner
from .intervals import VersionInterval

#: An archive entity identifier.
EntityId = int


class _UnionFind:
    """Union-find over (version, node) occurrences."""

    __slots__ = ("_parent",)

    def __init__(self) -> None:
        self._parent: dict[Hashable, Hashable] = {}

    def find(self, item: Hashable) -> Hashable:
        parent = self._parent.setdefault(item, item)
        if parent == item:
            return item
        root = self.find(parent)
        self._parent[item] = root
        return root

    def union(self, first: Hashable, second: Hashable) -> None:
        root_first = self.find(first)
        root_second = self.find(second)
        if root_first != root_second:
            self._parent[root_second] = root_first


@dataclass
class ArchiveStats:
    """Size accounting for the archive vs. naive per-version storage."""

    versions: int
    naive_triples: int
    archived_triples: int
    entities: int
    contiguous_fraction: float
    subject_cohesion: float

    @property
    def compression_ratio(self) -> float:
        """Naive triple count over archived triple count (higher is better)."""
        if self.archived_triples == 0:
            return 1.0
        return self.naive_triples / self.archived_triples


@dataclass
class VersionArchive:
    """Entity-level triples with version intervals, plus label history."""

    versions: int
    #: (subject entity, predicate entity, object entity) → presence interval.
    triples: dict[tuple[EntityId, EntityId, EntityId], VersionInterval]
    #: entity → label → versions in which the entity carried that label.
    labels: dict[EntityId, dict[Label, VersionInterval]]
    #: entity → interval of versions in which the entity occurs at all.
    lifetimes: dict[EntityId, VersionInterval] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graphs: Sequence[TripleGraph],
        align_pair=None,
    ) -> "VersionArchive":
        """Archive *graphs* (version 1 is ``graphs[0]``).

        *align_pair* maps a combined graph to a partition; the default runs
        the hybrid alignment followed by the predicate-aware refinement
        pass — without it, renamed predicate URIs (e.g. per-version
        direct-mapping exports) stay conflated in the blank sink cluster,
        no triple chains across versions and the archive degenerates to
        per-version storage.  Only *exact* matches (nodes whose partner set
        is a single node, mutually) chain entities — ambiguous classes stay
        version-local so reconstruction is always faithful.
        """
        if not graphs:
            raise ExperimentError("cannot archive an empty version sequence")
        if align_pair is None:
            from ..partition.weighted import zero_weighted
            from ..similarity.predicate_alignment import refine_predicates

            def align_pair(union):
                interner = ColorInterner()
                hybrid = hybrid_partition(union, interner)
                refined = refine_predicates(
                    union, zero_weighted(hybrid), interner, theta=0.5
                )
                return refined.partition

        chains = _UnionFind()
        for index in range(len(graphs) - 1):
            union = combine(graphs[index], graphs[index + 1])
            partition = align_pair(union)
            alignment = PartitionAlignment(union, partition)
            for sides in alignment.class_sides().values():
                if len(sides.source) == 1 and len(sides.target) == 1:
                    (source_node,) = sides.source
                    (target_node,) = sides.target
                    chains.union(
                        (index, union.original(source_node)),
                        (index + 1, union.original(target_node)),
                    )

        entity_of: dict[Hashable, EntityId] = {}

        def entity(version: int, node: NodeId) -> EntityId:
            root = chains.find((version, node))
            if root not in entity_of:
                entity_of[root] = len(entity_of)
            return entity_of[root]

        triples: dict[tuple[EntityId, EntityId, EntityId], VersionInterval] = {}
        labels: dict[EntityId, dict[Label, VersionInterval]] = {}
        lifetimes: dict[EntityId, VersionInterval] = {}
        for index, graph in enumerate(graphs):
            version = index + 1
            for node in graph.nodes():
                node_entity = entity(index, node)
                label = graph.label(node)
                labels.setdefault(node_entity, {}).setdefault(
                    label, VersionInterval()
                ).add(version)
                lifetimes.setdefault(node_entity, VersionInterval()).add(version)
            for subject, predicate, obj in graph.edges():
                key = (
                    entity(index, subject),
                    entity(index, predicate),
                    entity(index, obj),
                )
                triples.setdefault(key, VersionInterval()).add(version)
        return cls(
            versions=len(graphs),
            triples=triples,
            labels=labels,
            lifetimes=lifetimes,
        )

    # ------------------------------------------------------------------
    # Reconstruction
    # ------------------------------------------------------------------
    def label_at(self, entity: EntityId, version: int) -> Label | None:
        """The label an entity carried in *version* (None if absent)."""
        for label, interval in self.labels.get(entity, {}).items():
            if version in interval:
                return label
        return None

    def reconstruct(self, version: int) -> TripleGraph:
        """Rebuild one version as a triple graph over entity identifiers.

        The result is label-isomorphic to the archived original: node
        identifiers are archive entities, labels and edges are exact.
        """
        if not 1 <= version <= self.versions:
            raise ExperimentError(
                f"version {version} outside the archive (1..{self.versions})"
            )
        graph = TripleGraph()
        for entity, interval in self.lifetimes.items():
            if version in interval:
                label = self.label_at(entity, version)
                assert label is not None, "entity alive without a label"
                graph.add_node(entity, label)
        for (subject, predicate, obj), interval in self.triples.items():
            if version in interval:
                graph.add_edge(subject, predicate, obj)
        return graph

    def entity_count(self) -> int:
        return len(self.lifetimes)

    # ------------------------------------------------------------------
    # Analysis (the paper's closing observations)
    # ------------------------------------------------------------------
    def stats(self, graphs: Sequence[TripleGraph] | None = None) -> ArchiveStats:
        """Compression and cohesion statistics.

        *graphs* recomputes the naive size from the originals; when omitted
        it is derived from the archive itself (identical by construction).
        """
        if graphs is not None:
            naive = sum(graph.num_edges for graph in graphs)
        else:
            naive = sum(len(interval) for interval in self.triples.values())
        contiguous = sum(
            1 for interval in self.triples.values() if interval.is_contiguous()
        )
        return ArchiveStats(
            versions=self.versions,
            naive_triples=naive,
            archived_triples=len(self.triples),
            entities=self.entity_count(),
            contiguous_fraction=contiguous / len(self.triples) if self.triples else 1.0,
            subject_cohesion=self.subject_cohesion(),
        )

    def subject_cohesion(self) -> float:
        """Fraction of triples living exactly as long as their subject.

        The paper: "triples tend to enter and leave with their subject",
        which is what makes moving interval decorations from triples to
        subject nodes worthwhile.
        """
        if not self.triples:
            return 1.0
        cohesive = sum(
            1
            for (subject, __, __o), interval in self.triples.items()
            if interval == self.lifetimes[subject]
        )
        return cohesive / len(self.triples)

    def subject_grouped_size(self) -> int:
        """Storage units if intervals move to subjects where possible.

        Triples sharing their subject's lifetime need no own decoration;
        each one costs 1 unit, while a divergent triple costs 1 plus its
        range count (the paper's proposed optimization).
        """
        total = 0
        for (subject, __, __o), interval in self.triples.items():
            if interval == self.lifetimes[subject]:
                total += 1
            else:
                total += 1 + interval.range_count
        return total

    def __repr__(self) -> str:
        return (
            f"<VersionArchive versions={self.versions} "
            f"entities={self.entity_count()} triples={len(self.triples)}>"
        )
