"""Ground-truth correspondences between graph versions.

The GtoPdb experiments can be scored exactly because primary keys persist
across versions: the row URI ``…/ver1/ligand/685`` and ``…/ver2/ligand/685``
denote the same entity (paper Section 5.2).  :class:`GroundTruth` captures
such a correspondence as a partial 1-to-1 mapping between the *terms* of a
source and a target version, with helpers to lift it onto a combined
graph's node identifiers.
"""

from __future__ import annotations

from typing import Hashable, Iterator, Mapping

from ..exceptions import AlignmentError
from ..model.graph import NodeId
from ..model.rdf import Term
from ..model.union import CombinedGraph


class GroundTruth:
    """A partial 1-to-1 entity correspondence between two versions."""

    __slots__ = ("_source_to_target", "_target_to_source")

    def __init__(self, pairs: Mapping[Term, Term]) -> None:
        self._source_to_target: dict[Term, Term] = dict(pairs)
        self._target_to_source: dict[Term, Term] = {}
        for source, target in self._source_to_target.items():
            if target in self._target_to_source:
                raise AlignmentError(
                    f"ground truth maps two source terms to {target!r}"
                )
            self._target_to_source[target] = source

    # ------------------------------------------------------------------
    @classmethod
    def from_entity_maps(
        cls,
        source_entities: Mapping[Hashable, Term],
        target_entities: Mapping[Hashable, Term],
    ) -> "GroundTruth":
        """Join two ``entity key → term`` maps on their shared keys.

        This is how relational exports build their ground truth: the entity
        key (table, primary key) is prefix-independent, the terms are the
        version-specific URIs.
        """
        pairs = {
            source_entities[key]: target_entities[key]
            for key in sorted(source_entities.keys() & target_entities.keys())
        }
        return cls(pairs)

    # ------------------------------------------------------------------
    def partner_of_source(self, term: Term) -> Term | None:
        """The target term for a source term (None if retired)."""
        return self._source_to_target.get(term)

    def partner_of_target(self, term: Term) -> Term | None:
        """The source term for a target term (None if newly inserted)."""
        return self._target_to_source.get(term)

    def pairs(self) -> Iterator[tuple[Term, Term]]:
        return iter(self._source_to_target.items())

    def __len__(self) -> int:
        return len(self._source_to_target)

    def __contains__(self, pair: tuple[Term, Term]) -> bool:
        source, target = pair
        return self._source_to_target.get(source) == target

    # ------------------------------------------------------------------
    def combined_pairs(self, graph: CombinedGraph) -> set[tuple[NodeId, NodeId]]:
        """The pair set lifted onto combined-graph node identifiers.

        Terms absent from either version (e.g. a row without triples) are
        skipped.
        """
        lifted: set[tuple[NodeId, NodeId]] = set()
        for source, target in self._source_to_target.items():
            try:
                lifted.add((graph.from_source(source), graph.from_target(target)))
            except AlignmentError:
                continue
        return lifted

    def __repr__(self) -> str:
        return f"<GroundTruth pairs={len(self._source_to_target)}>"
