"""Alignment precision against ground truth (paper Figure 14).

The ground truth aligns a node to at most one other node, while partition
alignments may align it to several; the paper therefore classifies every
node into exactly one of four categories:

* **exact** — aligned to the same set of nodes as the ground truth
  (including "both empty" for nodes correctly left unaligned);
* **inclusive** — aligned to a set that *properly includes* the node the
  ground truth indicates;
* **missing** — aligned to a set that does not include the indicated node;
* **false** — aligned to a nonempty set although the ground truth aligns
  the node to nothing (e.g. a freshly inserted entity).

The four categories are exhaustive and mutually exclusive; we classify the
nodes of both versions (each node's partner set looks across to the other
version).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datasets.ground_truth import GroundTruth
from ..exceptions import AlignmentError
from ..model.graph import NodeId
from ..model.union import SOURCE, CombinedGraph
from ..partition.alignment import PartitionAlignment
from ..partition.coloring import Partition


@dataclass(frozen=True)
class PrecisionCounts:
    """Node counts per category, plus helpers for reporting."""

    exact: int
    inclusive: int
    missing: int
    false: int

    @property
    def total(self) -> int:
        return self.exact + self.inclusive + self.missing + self.false

    def fraction(self, category: str) -> float:
        count = getattr(self, category)
        return count / self.total if self.total else 0.0

    def as_dict(self) -> dict[str, int]:
        return {
            "exact": self.exact,
            "inclusive": self.inclusive,
            "missing": self.missing,
            "false": self.false,
        }

    def __add__(self, other: "PrecisionCounts") -> "PrecisionCounts":
        return PrecisionCounts(
            exact=self.exact + other.exact,
            inclusive=self.inclusive + other.inclusive,
            missing=self.missing + other.missing,
            false=self.false + other.false,
        )


def classify_node(
    alignment: PartitionAlignment,
    node: NodeId,
    truth_partner: NodeId | None,
) -> str:
    """The category of one node given its ground-truth partner (or None)."""
    partners = alignment.partners(node)
    if truth_partner is None:
        return "false" if partners else "exact"
    if partners == {truth_partner}:
        return "exact"
    if truth_partner in partners:
        return "inclusive"
    return "missing"


def precision_counts(
    graph: CombinedGraph, partition: Partition, truth: GroundTruth
) -> PrecisionCounts:
    """Classify every node of both versions (Figure 14's measure)."""
    alignment = PartitionAlignment(graph, partition)
    counts = {"exact": 0, "inclusive": 0, "missing": 0, "false": 0}
    for node in graph.nodes():
        term = graph.original(node)
        if graph.side(node) == SOURCE:
            partner_term, lift = truth.partner_of_source(term), graph.from_target
        else:
            partner_term, lift = truth.partner_of_target(term), graph.from_source
        partner: NodeId | None = None
        if partner_term is not None:
            try:
                partner = lift(partner_term)
            except AlignmentError:  # the partner is not in its version
                pass
        counts[classify_node(alignment, node, partner)] += 1
    return PrecisionCounts(**counts)
