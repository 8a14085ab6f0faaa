"""All-pairs version matrices (paper Figures 10–11).

The EFO experiments evaluate an alignment measure between *every* pair of
versions, yielding a 10×10 matrix whose diagonal holds self-alignments.
:func:`pairwise_matrix` drives that computation; the renderer lives in
:mod:`repro.evaluation.reporting`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..model.rdf import RDFGraph
from ..model.union import CombinedGraph, combine

#: Computes one matrix cell from a combined version pair.
CellFunction = Callable[[CombinedGraph], float]


@dataclass
class VersionMatrix:
    """A dense matrix over version pairs (source column, target row)."""

    size: int
    values: dict[tuple[int, int], float] = field(default_factory=dict)

    def __getitem__(self, pair: tuple[int, int]) -> float:
        return self.values[pair]

    def __setitem__(self, pair: tuple[int, int], value: float) -> None:
        self.values[pair] = value

    def diagonal(self) -> list[float]:
        return [self.values[(i, i)] for i in range(self.size)]

    def row(self, target: int) -> list[float]:
        return [self.values[(source, target)] for source in range(self.size)]

    def max_value(self) -> float:
        return max(self.values.values()) if self.values else 0.0

    def min_value(self) -> float:
        return min(self.values.values()) if self.values else 0.0

    def off_diagonal_pairs(self) -> list[tuple[int, int]]:
        return [pair for pair in self.values if pair[0] != pair[1]]


def pairwise_matrix(
    graphs: Sequence[RDFGraph],
    cell: CellFunction,
    symmetric_fill: bool = False,
) -> VersionMatrix:
    """Evaluate *cell* on every version pair.

    ``symmetric_fill=True`` computes only ``source ≤ target`` and mirrors
    the value — a time saver for measures that are symmetric by definition.
    Self-alignments combine a version with an identical copy of itself
    (the side tagging keeps the two occurrences disjoint).  The figures
    run their grids over a shared store instead (see
    :mod:`repro.experiments.cells`).
    """
    size = len(graphs)
    matrix = VersionMatrix(size=size)
    for source in range(size):
        for target in range(size):
            if symmetric_fill and source > target:
                continue
            matrix[(source, target)] = cell(combine(graphs[source], graphs[target]))
    if symmetric_fill:
        for source in range(size):
            for target in range(source):
                matrix[(source, target)] = matrix[(target, source)]
    return matrix


def difference_matrix(first: VersionMatrix, second: VersionMatrix) -> VersionMatrix:
    """Cell-wise ``first − second`` (Figure 11 subtracts method baselines)."""
    if first.size != second.size:
        raise ValueError("matrices must have the same size")
    result = VersionMatrix(size=first.size)
    for pair, value in first.values.items():
        result[pair] = value - second.values[pair]
    return result


def gradient_violations(matrix: VersionMatrix, tolerance: float = 0.0) -> list[tuple]:
    """Pairs violating the expected away-from-diagonal descent.

    The paper observes "an expected descending gradient from the diagonal":
    aligning versions further apart aligns fewer edges.  Returns the pairs
    ``(source, target)`` where moving one step further from the diagonal
    *increases* the value by more than *tolerance* — the EFO experiment
    reports these (version 3's blank fluctuation produces a few).
    """
    violations: list[tuple] = []
    for (source, target), value in matrix.values.items():
        if source == target:
            continue
        step = 1 if source < target else -1
        closer = (source + step, target)
        if closer in matrix.values and matrix.values[closer] + tolerance < value:
            violations.append((source, target))
    return violations
