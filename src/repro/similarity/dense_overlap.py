"""Dense (flat-array) driver for the overlap alignment — Algorithm 2.

The reference :func:`~repro.similarity.overlap_alignment.overlap_partition`
pays three per-generation costs that are invisible on the worked examples
but dominate real workloads:

1. ``PartitionAlignment`` is rebuilt from the full partition every
   generation (one O(N) counting pass, plus one pass per side's
   unaligned set) only to answer "which nodes are still unaligned?";
2. ``weighted_refine_fixpoint`` Jacobi-iterates the weight recurrence
   one node at a time over per-node Python sets;
3. ``overlap_match``'s characterizations and ``grouped_weights`` walk
   ``graph.out(n)`` dicts per node per round.

This module keeps the exact loop structure of Algorithm 2 — literal
round, then enrich → propagate → rediscover until nothing new — but runs
it against one :class:`~repro.model.csr.CSRGraph` snapshot shared by all
generations:

* colors and weights live in dense-id-indexed buffers; propagation calls
  :func:`repro.core.dense.refine_colors` and
  :func:`repro.core.dense_weights.dense_weight_fixpoint` directly on
  them;
* an :class:`AlignmentTracker` maintains per-color source/target members
  incrementally under recoloring, so the unaligned sets of a generation
  cost O(changed nodes) instead of a full O(N) rebuild;
* out-color characterizations are packed ``(p_color << 32) | o_color``
  integers gathered once per generation over the CSR edge arrays, and
  per-node weight groups are memoized for the round.

The result is equivalent (colors up to renaming, weights within ``ε``)
to the reference engine with identical :class:`OverlapTrace` round
counts; ``tests/test_overlap_dense.py`` asserts the parity and
``benchmarks/test_overlap_dense.py`` enforces the end-to-end speedup.
"""

from __future__ import annotations

from typing import Iterator

from ..core.dense import as_int64, refine_colors
from ..core.dense_weights import dense_weight_fixpoint
from ..core.refinement import WeightFixpointStats
from ..model.csr import CSRGraph
from ..model.union import CombinedGraph
from ..oplus import OplusOperator, oplus, oplus_sum
from ..partition.coloring import Partition
from ..partition.interner import ColorInterner
from ..partition.weighted import WeightedPartition
from .enrichment import component_weights
from .overlap import ProbeRule, overlap_match
from .string_distance import split_words
from .weighted_refine import DEFAULT_EPSILON

try:  # pragma: no cover - the package imports without NumPy
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None


class AlignmentTracker:
    """Per-color side membership maintained under recoloring.

    ``PartitionAlignment`` answers the Algorithm 2 loop's only question —
    the per-side unaligned node sets — with a counting pass over the
    whole partition plus one pass per side: cheap, but O(N) in every
    generation.  This tracker spares the dense loop that per-generation
    scan by keeping the same information incrementally, and the two
    unaligned sets are updated exactly when a recoloring changes them.
    A single :meth:`recolor` costs O(1) except when it flips a color's
    matched status, in which case the members of the opposite side move
    in or out of their unaligned set — work proportional to the real
    alignment change, not to the graph.

    A color's members on one side form a doubly linked list threaded
    through two flat arrays indexed by dense id, and each side maps a
    color to its list's first member.  Most colors have a single member,
    so the tracker keeps no container per color: a container per color
    is tens of thousands of objects that the cyclic GC would walk.

    Members are dense node ids; ``unaligned_source``/``unaligned_target``
    are live sets (treat as read-only).
    """

    __slots__ = (
        "_colors", "_is_source", "_source_heads", "_target_heads",
        "_next", "_prev", "unaligned_source", "unaligned_target",
    )

    def __init__(self, colors: list[int], is_source: list[bool]) -> None:
        self._colors = list(colors)
        self._is_source = is_source
        following = self._next = [-1] * len(self._colors)
        preceding = self._prev = [-1] * len(self._colors)
        self._source_heads: dict[int, int] = {}
        self._target_heads: dict[int, int] = {}
        for dense, color in enumerate(self._colors):
            heads = self._source_heads if is_source[dense] else self._target_heads
            first = heads.get(color, -1)
            if first >= 0:
                preceding[first] = dense
            following[dense] = first
            heads[color] = dense
        self.unaligned_source: set[int] = set()
        self.unaligned_target: set[int] = set()
        for heads, opposite, unaligned in (
            (self._source_heads, self._target_heads, self.unaligned_source),
            (self._target_heads, self._source_heads, self.unaligned_target),
        ):
            for color, first in heads.items():
                if color not in opposite:
                    unaligned.update(self._members(first))

    def _members(self, first: int) -> Iterator[int]:
        """The list that starts at *first*: one color's members on one side."""
        following = self._next
        while first >= 0:
            yield first
            first = following[first]

    def color(self, dense: int) -> int:
        return self._colors[dense]

    def recolor(self, dense: int, new_color: int) -> None:
        """Move *dense* to *new_color*, updating the unaligned sets."""
        old_color = self._colors[dense]
        if old_color == new_color:
            return
        self._colors[dense] = new_color
        if self._is_source[dense]:
            own, opposite = self._source_heads, self._target_heads
            own_unaligned, opposite_unaligned = (
                self.unaligned_source, self.unaligned_target
            )
        else:
            own, opposite = self._target_heads, self._source_heads
            own_unaligned, opposite_unaligned = (
                self.unaligned_target, self.unaligned_source
            )
        following, preceding = self._next, self._prev
        # Unlink *dense* from the old color's list.
        before, after = preceding[dense], following[dense]
        if after >= 0:
            preceding[after] = before
        if before >= 0:
            following[before] = after
        elif after >= 0:
            own[old_color] = after
        else:
            del own[old_color]
            orphaned = opposite.get(old_color, -1)
            if orphaned >= 0:
                # The old color lost its last node on this side: whatever
                # the other side still keeps there is now unaligned.
                opposite_unaligned.update(self._members(orphaned))
        # Link it in front of the new color's list.
        first = own.get(new_color, -1)
        adopted = opposite.get(new_color, -1)
        if first >= 0:
            preceding[first] = dense
        elif adopted >= 0:
            # First node of this side under the new color: the other
            # side's members there just became aligned.
            opposite_unaligned.difference_update(self._members(adopted))
        own[new_color] = dense
        following[dense] = first
        preceding[dense] = -1
        if adopted >= 0:
            own_unaligned.discard(dense)
        else:
            own_unaligned.add(dense)


class _NonLiteralRound:
    """One generation's characterizer and ``σNL`` over the CSR buffers.

    Out-color codes (and, for the default ``⊕``, the per-edge pair
    weights) are gathered once for the whole edge array; per-node
    characterizing sets and sorted weight groups are then materialized
    lazily and memoized — each unaligned node pays for its own slice
    exactly once per generation, no matter how many candidate pairs it
    appears in.
    """

    __slots__ = (
        "_csr", "_weights", "_operator",
        "_codes", "_pair_weights", "_chars", "_groups",
    )

    def __init__(
        self,
        csr: CSRGraph,
        colors: list[int],
        weights: list[float],
        operator: OplusOperator,
    ) -> None:
        self._csr = csr
        self._weights = weights
        self._operator = operator
        self._chars: dict[int, frozenset[int]] = {}
        self._groups: dict[int, dict[int, list[float]]] = {}
        colors_np = _np.array(colors, dtype=_np.int64)
        preds = as_int64(csr.out_predicates)
        objs = as_int64(csr.out_objects)
        self._codes = (colors_np[preds] << 32) | colors_np[objs]
        self._pair_weights = None
        if operator is oplus:
            weights_np = _np.array(weights, dtype=_np.float64)
            self._pair_weights = _np.minimum(
                weights_np[preds] + weights_np[objs], 1.0
            )

    # -- per-node views (lazy, memoized for the round) -------------------
    def _code_slice(self, dense: int) -> list[int]:
        start, end = self._csr.out_slice(dense)
        return self._codes[start:end].tolist()

    def characterize(self, dense: int) -> frozenset[int]:
        """``out-color_ξ(n)`` as packed integer codes."""
        chars = self._chars.get(dense)
        if chars is None:
            chars = self._chars[dense] = frozenset(self._code_slice(dense))
        return chars

    def _grouped_weights(self, dense: int) -> dict[int, list[float]]:
        groups = self._groups.get(dense)
        if groups is not None:
            return groups
        start, end = self._csr.out_slice(dense)
        if self._pair_weights is not None:
            pair_weights = self._pair_weights[start:end].tolist()
        else:
            weights = self._weights
            operator = self._operator
            csr = self._csr
            pair_weights = [
                operator(weights[csr.out_predicates[e]], weights[csr.out_objects[e]])
                for e in range(start, end)
            ]
        groups = {}
        for code, weight in zip(self._code_slice(dense), pair_weights):
            groups.setdefault(code, []).append(weight)
        for values in groups.values():
            values.sort()
        self._groups[dense] = groups
        return groups

    def distance(self, source_dense: int, target_dense: int) -> float:
        """``σ^NL_ξ`` — same coupling rule as the reference closure."""
        normalizer = max(
            self._csr.out_degree(source_dense), self._csr.out_degree(target_dense)
        )
        if normalizer == 0:
            return 0.0
        operator = self._operator
        source_groups = self._grouped_weights(source_dense)
        target_groups = self._grouped_weights(target_dense)
        contributions: list[float] = []
        uncoupled = 0
        # Sorted so the float-accumulation order (and thus the bits of
        # the oplus sum) is independent of the hash seed.
        for key in sorted(source_groups.keys() | target_groups.keys()):
            first = source_groups.get(key, ())
            second = target_groups.get(key, ())
            coupled = min(len(first), len(second))
            for position in range(coupled):
                contributions.append(
                    operator(first[position], second[position]) / normalizer
                )
            uncoupled += len(first) + len(second) - 2 * coupled
        total = oplus_sum(contributions, operator)
        return operator(total, uncoupled / normalizer)


def dense_overlap_partition(
    graph: CombinedGraph,
    theta: float = 0.65,
    interner: ColorInterner | None = None,
    base: Partition | None = None,
    probe: ProbeRule = "paper",
    epsilon: float = DEFAULT_EPSILON,
    max_rounds: int = 100,
    operator: OplusOperator = oplus,
    trace=None,
    splitter=split_words,
) -> WeightedPartition:
    """``Overlap(G, θ)`` — Algorithm 2 over the union's CSR snapshot.

    Drop-in for the reference
    :func:`~repro.similarity.overlap_alignment.overlap_partition`
    (reached via its ``engine="dense"`` parameter): same loop, same
    trace semantics, partitions equivalent up to color renaming and
    weights within ``ε``.  Every generation, and the hybrid base when it
    is built here, reads ``graph.csr()``.
    """
    from ..core.hybrid import hybrid_partition  # late import to avoid a cycle
    from .overlap_alignment import literal_characterizer, literal_distance

    if interner is None:
        interner = ColorInterner()
    if base is None:
        base = hybrid_partition(graph, interner, engine="dense")
    csr = graph.csr()

    # Union ids are the snapshot's dense ids, so they index the buffers.
    nodes = csr.nodes
    colors = csr.gather_colors(base.as_dict())
    weights = [0.0] * csr.num_nodes
    split = graph.num_source_nodes
    is_source = [dense < split for dense in nodes]
    is_literal = [graph.is_literal_node(node) for node in nodes]
    tracker = AlignmentTracker(colors, is_source)

    # Lines 2–4: the literal round (characterizer and distance read node
    # labels only, so they are shared with the reference engine).
    close_pairs = overlap_match(
        {i for i in tracker.unaligned_source if is_literal[i]},
        {i for i in tracker.unaligned_target if is_literal[i]},
        theta,
        literal_characterizer(graph, splitter),
        literal_distance(graph),
        probe=probe,
    )
    if trace is not None:
        trace.literal_matches = len(close_pairs)

    # Lines 5–12: enrich, propagate, rediscover on non-literals.
    blank = interner.blank_color()
    for generation in range(1, max_rounds + 1):
        # Enrich(ξ, H): fold the matched components into the buffers.
        if not close_pairs.is_empty:
            for component_index, component in enumerate(
                close_pairs.components(graph.sort_key)
            ):
                color = interner.component_color(generation, component_index)
                for node in component:
                    colors[node] = color
                    tracker.recolor(node, color)
                for node, weight in component_weights(
                    close_pairs, component
                ).items():
                    weights[node] = weight
        # Propagate: blank the unaligned non-literals, refine their
        # colors, Jacobi-iterate their weights.
        subset = sorted(
            dense
            for dense in tracker.unaligned_source | tracker.unaligned_target
            if not is_literal[dense]
        )
        for dense in subset:
            colors[dense] = blank
            weights[dense] = 0.0
        colors = refine_colors(csr, colors, subset, interner)
        for dense in subset:
            tracker.recolor(dense, colors[dense])
        weight_stats = WeightFixpointStats()
        weights = dense_weight_fixpoint(
            csr, weights, subset, epsilon,
            operator=operator, stats=weight_stats,
        )
        if trace is not None:
            trace.weight_stats.append(weight_stats)
        # Rediscover close pairs among the remaining unaligned nodes.
        round_view = _NonLiteralRound(csr, colors, weights, operator)
        close_pairs = overlap_match(
            {i for i in tracker.unaligned_source if not is_literal[i]},
            {i for i in tracker.unaligned_target if not is_literal[i]},
            theta,
            round_view.characterize,
            round_view.distance,
            probe=probe,
        )
        if trace is not None:
            trace.rounds.append(len(close_pairs))
        if close_pairs.is_empty:
            break
    else:
        if trace is not None:
            trace.stopped_by_round_limit = True

    # Materialize the user-facing types once, preserving any off-graph
    # extras of the base partition (reference semantics).
    coloring = base.as_dict()
    coloring.update(zip(nodes, colors))
    weight_map = {node: 0.0 for node in coloring}
    weight_map.update(zip(nodes, weights))
    return WeightedPartition(Partition(coloring), weight_map)
