"""The edit-distance node metric `σEdit` (paper Section 4.2).

`σEdit` refines the hybrid alignment with robustness under edits:

* pairs aligned by Hybrid are at distance 0;
* pairs of *unaligned* literals are at normalized string edit distance;
* any other pair involving a Hybrid-aligned node, or mixing a literal with
  a non-literal, is at distance 1;
* a pair of unaligned non-literal nodes is at the cost of the optimal
  (Hungarian) matching between their outbound edge sets — matching edge
  ``(p1, o1)`` against ``(p2, o2)`` costs ``σ(p1, p2) ⊕ σ(o1, o2)``, every
  unmatched edge costs 1, and the total is normalized by
  ``f = max(|out(n)|, |out(m)|)`` — evaluated at the fixpoint of this very
  definition.

The fixpoint is computed by Jacobi iteration from 0 (distances increase
monotonically to the *least* fixpoint, mirroring bisimulation being the
greatest alignment).  The paper's formal definition lives in an appendix
that is not available; this reading reproduces every worked number of
Figure 7 (see DESIGN.md §5 for the full derivation).

The matrix is quadratic in the number of unaligned nodes — the very
scalability problem the overlap alignment solves — so the implementation
guards against accidentally huge inputs.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from ..exceptions import ExperimentError
from ..model.graph import NodeId
from ..model.labels import Literal
from ..model.union import CombinedGraph
from ..oplus import oplus
from ..partition.alignment import PartitionAlignment
from ..partition.coloring import Partition
from ..partition.interner import ColorInterner
from .hungarian import matching_with_deletion
from .string_distance import normalized_levenshtein


@lru_cache(maxsize=65536)
def literal_value_distance(first: str, second: str) -> float:
    """Normalized string edit distance, cached by literal *value* pair.

    Version chains repeat the same literal values across nodes, versions
    and σEdit instances (curation edits touch a few percent per release),
    so the cache is shared process-wide rather than per matrix.
    """
    return normalized_levenshtein(first, second)


class EditDistance:
    """Materialized `σEdit` for a combined graph.

    Parameters
    ----------
    graph:
        The combined graph ``G1 ⊎ G2``.
    base:
        The hybrid partition to refine (computed if omitted; must share
        *interner* when supplied).
    epsilon / max_rounds:
        Fixpoint controls for the Jacobi iteration.
    max_pairs:
        Safety valve on the ``|UN1| × |UN2|`` matrix size.
    """

    def __init__(
        self,
        graph: CombinedGraph,
        base: Partition | None = None,
        interner: ColorInterner | None = None,
        epsilon: float = 1e-6,
        max_rounds: int = 200,
        max_pairs: int = 1_000_000,
    ) -> None:
        from ..core.hybrid import hybrid_partition  # late import to avoid a cycle

        self._graph = graph
        if base is None:
            base = hybrid_partition(graph, interner or ColorInterner())
        self._base = base
        alignment = PartitionAlignment(graph, base)
        unaligned_source = alignment.unaligned_source()
        unaligned_target = alignment.unaligned_target()
        self._unaligned_literals_source = {
            n for n in unaligned_source if graph.is_literal_node(n)
        }
        self._unaligned_literals_target = {
            m for m in unaligned_target if graph.is_literal_node(m)
        }
        # Node ids follow input order; every order here is taken over the
        # rendered nodes instead.
        self._unaligned_source = sorted(
            (n for n in unaligned_source if not graph.is_literal_node(n)),
            key=graph.sort_key,
        )
        self._unaligned_target = sorted(
            (m for m in unaligned_target if not graph.is_literal_node(m)),
            key=graph.sort_key,
        )
        pair_count = len(self._unaligned_source) * len(self._unaligned_target)
        if pair_count > max_pairs:
            raise ExperimentError(
                f"σEdit would materialize {pair_count} node pairs (> {max_pairs}); "
                "use the overlap alignment for graphs of this size"
            )
        self._matrix: dict[tuple[NodeId, NodeId], float] = {
            (n, m): 0.0 for n in self._unaligned_source for m in self._unaligned_target
        }
        self._epsilon = epsilon
        self._max_rounds = max_rounds
        self._rounds_used = 0
        self._run_fixpoint()

    # ------------------------------------------------------------------
    @property
    def base_partition(self) -> Partition:
        """The hybrid partition that `σEdit` refines."""
        return self._base

    @property
    def rounds_used(self) -> int:
        """How many Jacobi rounds the fixpoint took."""
        return self._rounds_used

    # ------------------------------------------------------------------
    def _literal_distance(self, source: NodeId, target: NodeId) -> float:
        first = self._graph.label(source)
        second = self._graph.label(target)
        assert isinstance(first, Literal) and isinstance(second, Literal)
        return literal_value_distance(first.value, second.value)

    def _current(self, source: NodeId, target: NodeId) -> float:
        """`σEdit` under the current matrix estimate."""
        if self._base[source] == self._base[target]:
            return 0.0
        value = self._matrix.get((source, target))
        if value is not None:
            return value
        if (
            source in self._unaligned_literals_source
            and target in self._unaligned_literals_target
        ):
            return self._literal_distance(source, target)
        return 1.0

    def _pair_key(self, pair: tuple[NodeId, NodeId]) -> str:
        """An out-pair rendered as ``repr`` renders a pair of ``(side, term)``."""
        key = self._graph.sort_key
        return f"({key(pair[0])}, {key(pair[1])})"

    def _matching_value(self, source: NodeId, target: NodeId) -> float:
        out_source = sorted(self._graph.out(source), key=self._pair_key)
        out_target = sorted(self._graph.out(target), key=self._pair_key)
        normalizer = max(len(out_source), len(out_target))
        if normalizer == 0:
            # Two unaligned sinks: no distinguishing content.
            return 0.0
        cost = [
            [
                oplus(self._current(p1, p2), self._current(o1, o2))
                for (p2, o2) in out_target
            ]
            for (p1, o1) in out_source
        ]
        __, total = matching_with_deletion(cost, deletion_cost=1.0)
        value = total / normalizer
        return value if value < 1.0 else 1.0

    def _run_fixpoint(self) -> None:
        if not self._matrix:
            return
        for round_number in range(1, self._max_rounds + 1):
            updates: dict[tuple[NodeId, NodeId], float] = {}
            delta = 0.0
            for (source, target) in self._matrix:
                new_value = self._matching_value(source, target)
                updates[(source, target)] = new_value
                change = new_value - self._matrix[(source, target)]
                if change > delta:
                    delta = change
            self._matrix = updates
            self._rounds_used = round_number
            if delta < self._epsilon:
                return

    # ------------------------------------------------------------------
    def distance(self, source: NodeId, target: NodeId) -> float:
        """``σEdit(source, target)`` for a source-side and target-side node."""
        return self._current(source, target)

    def aligned_pairs(self, theta: float) -> Iterator[tuple[NodeId, NodeId, float]]:
        """``Align_θ(σEdit)`` restricted to pairs that can clear *theta*.

        Yields Hybrid-aligned pairs (distance 0), unaligned literal pairs
        and unaligned non-literal pairs with distance ≤ θ; pairs pinned at
        distance 1 by the definition are never yielded (assuming θ < 1).
        """
        alignment = PartitionAlignment(self._graph, self._base)
        for source, target in alignment.pairs():
            yield source, target, 0.0
        for source in self._unaligned_literals_source:
            for target in self._unaligned_literals_target:
                value = self._literal_distance(source, target)
                if value <= theta:
                    yield source, target, value
        for pair, value in self._matrix.items():
            if value <= theta:
                yield pair[0], pair[1], value
