"""The overlap alignment — Algorithm 2 of the paper (Section 4.7).

Starting from the hybrid partition with zero weights, the overlap
alignment repeatedly

1. finds close pairs with the overlap heuristic — first among unaligned
   *literals* (characterized by their word sets, verified with normalized
   string edit distance), then among unaligned *non-literals*
   (characterized by the colors of their outgoing edges, verified with
   `σNL`),
2. enriches the weighted partition with the matched components, and
3. propagates the new alignment information to the remaining unaligned
   nodes,

until the heuristic finds nothing new.  The resulting weighted partition
``ξ_Overlap`` approximates `σEdit` (Theorem 1): pairs it clusters together
satisfy ``σEdit(n, m) ≤ ω(n) ⊕ ω(m)``.

`σNL` avoids the Hungarian algorithm: outgoing edges can only be matched
when they carry identical color pairs, so the optimal coupling simply zips
the same-color edge groups of the two nodes in order of ascending weight;
every edge left uncoupled contributes the deletion cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable

from ..core.refinement import WeightFixpointStats
from ..exceptions import ExperimentError
from ..model.graph import NodeId
from ..model.labels import Literal
from ..model.union import CombinedGraph
from ..oplus import OplusOperator, oplus, oplus_sum
from ..partition.alignment import PartitionAlignment
from ..partition.coloring import Partition
from ..partition.interner import Color, ColorInterner
from ..partition.weighted import WeightedPartition, zero_weighted
from .enrichment import WeightedBipartiteGraph, enrich
from .overlap import ProbeRule, overlap_match
from .string_distance import normalized_levenshtein, split_words
from .weighted_refine import DEFAULT_EPSILON, propagate


#: Splits a literal value into its characterizing object set.
LiteralSplitter = Callable[[str], frozenset]


def literal_characterizer(
    graph: CombinedGraph, splitter: LiteralSplitter = split_words
):
    """Algorithm 2's ``split``: a literal node's characterizing set.

    *splitter* defaults to the paper's word split; data whose literals are
    single tokens should use
    :func:`repro.similarity.string_distance.character_set` or
    :func:`~repro.similarity.string_distance.qgrams` instead (word sets of
    edited single tokens are disjoint, so the overlap filter would reject
    every candidate).
    """

    def characterize(node: NodeId) -> frozenset[Hashable]:
        label = graph.label(node)
        assert isinstance(label, Literal), f"{node!r} is not a literal node"
        return splitter(label.value)

    return characterize


def literal_distance(graph: CombinedGraph):
    """``σ_Literals``: normalized string edit distance on literal labels."""

    def distance(source: NodeId, target: NodeId) -> float:
        first = graph.label(source)
        second = graph.label(target)
        assert isinstance(first, Literal) and isinstance(second, Literal)
        return normalized_levenshtein(first.value, second.value)

    return distance


def out_color_characterizer(graph: CombinedGraph, weighted: WeightedPartition):
    """``out-color_ξ(n) = {(λ(p), λ(o)) | (p, o) ∈ out_G(n)}``."""
    partition = weighted.partition

    def characterize(node: NodeId) -> frozenset[Hashable]:
        return frozenset(
            (partition[predicate], partition[obj])
            for predicate, obj in graph.out(node)
        )

    return characterize


def non_literal_distance(
    graph: CombinedGraph,
    weighted: WeightedPartition,
    operator: OplusOperator = oplus,
):
    """``σ^NL_ξ``: matching cost over same-color outgoing-edge groups.

    For each color pair shared by both nodes, the edges are coupled in
    order of ascending weight ``ω(p) ⊕ ω(o)``; a coupled pair contributes
    ``(σ_ξ(p1, p2) ⊕ σ_ξ(o1, o2)) / f`` — which, the colors being equal,
    is ``(w1 ⊕ w2) / f`` — and the ``R`` uncoupled edges contribute
    ``R / f``, with ``f`` the larger outbound size.

    The per-node weight groups are memoized on the returned closure: a
    node appearing in many candidate pairs of one ``OverlapMatch`` round
    walks its out-edges once (build a fresh closure per round — the cache
    is only valid for one weighted partition).
    """
    partition = weighted.partition
    cache: dict[NodeId, dict[tuple[Color, Color], list[float]]] = {}

    def grouped_weights(node: NodeId) -> dict[tuple[Color, Color], list[float]]:
        groups = cache.get(node)
        if groups is not None:
            return groups
        groups = {}
        for predicate, obj in graph.out(node):
            key = (partition[predicate], partition[obj])
            groups.setdefault(key, []).append(
                operator(weighted.weight(predicate), weighted.weight(obj))
            )
        for weights in groups.values():
            weights.sort()
        cache[node] = groups
        return groups

    def distance(source: NodeId, target: NodeId) -> float:
        source_groups = grouped_weights(source)
        target_groups = grouped_weights(target)
        normalizer = max(graph.out_degree(source), graph.out_degree(target))
        if normalizer == 0:
            return 0.0
        contributions: list[float] = []
        uncoupled = 0
        # Sorted so the float-accumulation order (and thus the bits of
        # the oplus sum) is independent of the hash seed.
        for key in sorted(source_groups.keys() | target_groups.keys()):
            first = source_groups.get(key, [])
            second = target_groups.get(key, [])
            coupled = min(len(first), len(second))
            for i in range(coupled):
                contributions.append(operator(first[i], second[i]) / normalizer)
            uncoupled += len(first) + len(second) - 2 * coupled
        total = oplus_sum(contributions, operator)
        return operator(total, uncoupled / normalizer)

    return distance


@dataclass
class OverlapTrace:
    """Diagnostics of one Algorithm 2 run (round sizes, stop reason).

    ``weight_stats`` holds one
    :class:`~repro.core.refinement.WeightFixpointStats` per generation —
    the Jacobi weight iteration of that generation's ``Propagate`` —
    filled by whichever engine ran the alignment, so a
    ``max_rounds``-truncated weight iteration is visible here instead of
    silently returning drifting weights.
    """

    literal_matches: int = 0
    rounds: list[int] = field(default_factory=list)
    stopped_by_round_limit: bool = False
    weight_stats: list[WeightFixpointStats] = field(default_factory=list)

    @property
    def total_rounds(self) -> int:
        return len(self.rounds)

    @property
    def weight_truncations(self) -> int:
        """Generations whose weight iteration hit its round limit."""
        return sum(1 for stats in self.weight_stats if not stats.converged)


def overlap_partition(
    graph: CombinedGraph,
    theta: float = 0.65,
    interner: ColorInterner | None = None,
    base: Partition | None = None,
    probe: ProbeRule = "paper",
    epsilon: float = DEFAULT_EPSILON,
    max_rounds: int = 100,
    operator: OplusOperator = oplus,
    trace: OverlapTrace | None = None,
    splitter: LiteralSplitter = split_words,
    engine: str = "reference",
    csr=None,
) -> WeightedPartition:
    """``Overlap(G, θ)`` — Algorithm 2.

    *base* may supply a precomputed hybrid partition (sharing *interner*,
    and built with the same *engine* so colors live in one key space).
    *trace*, when given, is filled with per-round diagnostics.
    *splitter* chooses the literal characterizer (see
    :func:`literal_characterizer`).  *engine* selects the loop
    implementation: ``"reference"`` (this function's dict-based loop) or
    ``"dense"`` (flat CSR buffers, see
    :mod:`repro.similarity.dense_overlap`); *csr* may hand the dense
    engine a prebuilt snapshot of *graph*.
    """
    from ..core.dense import resolve_refine_engine
    from ..core.hybrid import hybrid_partition  # late import to avoid a cycle

    resolve_refine_engine(engine)  # fail fast on typos
    if engine == "dense":
        from .dense_overlap import dense_overlap_partition

        return dense_overlap_partition(
            graph,
            theta=theta,
            interner=interner,
            base=base,
            probe=probe,
            epsilon=epsilon,
            max_rounds=max_rounds,
            operator=operator,
            trace=trace,
            splitter=splitter,
            csr=csr,
        )
    if csr is not None:
        raise ExperimentError(
            "a CSR snapshot only applies to the dense engine"
        )
    if interner is None:
        interner = ColorInterner()
    if base is None:
        base = hybrid_partition(graph, interner)
    weighted = zero_weighted(base)

    # Lines 2–4: the literal round.
    alignment = PartitionAlignment(graph, weighted.partition)
    unaligned_source_literals = {
        n for n in alignment.unaligned_source() if graph.is_literal_node(n)
    }
    unaligned_target_literals = {
        m for m in alignment.unaligned_target() if graph.is_literal_node(m)
    }
    close_pairs = overlap_match(
        unaligned_source_literals,
        unaligned_target_literals,
        theta,
        literal_characterizer(graph, splitter),
        literal_distance(graph),
        probe=probe,
    )
    if trace is not None:
        trace.literal_matches = len(close_pairs)

    # Lines 5–12: enrich, propagate, rediscover on non-literals.
    for generation in range(1, max_rounds + 1):
        weight_stats = WeightFixpointStats()
        weighted = propagate(
            graph,
            enrich(weighted, close_pairs, interner, generation, key=graph.sort_key),
            interner,
            epsilon=epsilon,
            operator=operator,
            stats=weight_stats,
        )
        if trace is not None:
            trace.weight_stats.append(weight_stats)
        alignment = PartitionAlignment(graph, weighted.partition)
        unaligned_source = {
            n for n in alignment.unaligned_source() if not graph.is_literal_node(n)
        }
        unaligned_target = {
            m for m in alignment.unaligned_target() if not graph.is_literal_node(m)
        }
        close_pairs = overlap_match(
            unaligned_source,
            unaligned_target,
            theta,
            out_color_characterizer(graph, weighted),
            non_literal_distance(graph, weighted, operator),
            probe=probe,
        )
        if trace is not None:
            trace.rounds.append(len(close_pairs))
        if close_pairs.is_empty:
            return weighted
    if trace is not None:
        trace.stopped_by_round_limit = True
    return weighted
