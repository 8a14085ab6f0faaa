"""Per-version snapshot cache shared by all matrix cells (batch execution).

The figure experiments (paper Section 6) evaluate alignment measures on
*grids* of version pairs.  The seed implementation re-did all per-version
work inside every cell: re-build the ``CombinedGraph``, re-intern every
label, re-snapshot the CSR arrays and re-run the deblanking refinement —
an ``O(cells × versions)`` duplication, following none of the
prepare-once designs of the batch bisimulation literature (Luo et al.'s
I/O-efficient partition construction; Rau et al.'s flat multi-graph
layouts).  :class:`VersionStore` materializes each version's reusable
artifacts exactly once and shares them across cells and methods:

* the version graphs themselves (via the memoized dataset generators),
* a per-version :class:`~repro.model.csr.CSRGraph` block, held by the
  version graph itself (:meth:`~repro.model.graph.TripleGraph.csr`) — a
  pair's union assembles its snapshot from the two blocks instead of
  re-walking the union,
* a per-version *deblank summary*: the fixpoint classes of the version's
  blank nodes plus their class-level out-structure.  Because bisimulation
  refinement never crosses the disjoint union's sides, the union's
  deblanking partition is recovered per cell by refining the two tiny
  class-level quotients jointly (:func:`joint_quotient_colors`) — no
  node-level refinement in the cell at all,
* per-version edge "token triples" that let Figure 10's aligned-edge
  ratios be computed by set algebra on precomputed per-version sets,
  without ever building the union graph,
* memoized unions, hybrid contexts and overlap results so sibling figures
  (13/14/15 share pairs and thetas) reuse one computation per process.

Every artifact is deterministic given the store's inputs, and cells
derive private :class:`~repro.partition.interner.ColorInterner` states
from them (fresh per pair, cloned per overlap run), which is what makes a
parallel run's output byte-identical to the serial one (see
:mod:`repro.experiments.parallel`).  The pool hands its workers the store
itself: a ``fork`` worker inherits it, a ``spawn`` worker unpickles it
once (:meth:`VersionStore.__reduce__` carries the graphs, their built CSR
blocks and the once-per-version caches).
"""

from __future__ import annotations

import os
import pickle
from collections import OrderedDict
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Hashable, Sequence

from ..align.config import AlignConfig
from ..core.hybrid import hybrid_partition
from ..core.refinement import bisim_refine_fixpoint, refine_to_fixpoint
from ..datasets import registry as _registry
from ..datasets.dbpedia import DBpediaCategoryGenerator
from ..datasets.efo import EFOGenerator
from ..datasets.gtopdb import GtoPdbGenerator
from ..datasets.synthetic import SHAPE_FAMILIES
from ..exceptions import CorruptStoreError, ExperimentError, GraphError
from ..model.csr import CSRGraph
from ..model.graph import NodeId, TripleGraph
from ..model.labels import is_blank
from ..model.union import CombinedGraph
from ..partition.coloring import Partition, label_partition
from ..partition.interner import ColorInterner
from ..similarity.overlap_alignment import OverlapTrace, overlap_partition
from ..similarity.string_distance import split_words

#: A token stands for one node in a version-independent way: non-blank
#: nodes are identified by their label (equal labels align trivially),
#: blank nodes by a version-local marker resolved at cell time.
Token = tuple

#: Default alignment settings for cells whose caller passes no config.
_DEFAULT_CONFIG = AlignConfig()

#: The generator families a shared store knows how to build.  The
#: synthetic shapes are first-class members: ``VersionStore.shared(
#: "synthetic_scale_free", ...)`` memoizes exactly like the curated
#: datasets, so the parallel runner's preparation works unchanged on
#: generated histories.
GENERATOR_FAMILIES: dict[str, Callable] = {
    "efo": EFOGenerator,
    "gtopdb": GtoPdbGenerator,
    "dbpedia": DBpediaCategoryGenerator,
    **SHAPE_FAMILIES,
}


# ----------------------------------------------------------------------
# Per-version deblank summaries and their cell-time joint refinement
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BlankSummary:
    """One version's deblanking fixpoint, quotiented to class level.

    ``classes`` maps every blank node to a dense class id (numbered by
    first appearance in graph order); ``class_pairs[cid]`` is the class's
    out-structure as a frozenset of ``(predicate_token, object_token)``
    pairs, where a token is ``("n", label)`` for a non-blank node and
    ``("b", class_id)`` for a blank one.  All members of a fixpoint class
    share this structure (that is what being a fixpoint means), so one
    representative per class suffices.
    """

    classes: dict[NodeId, int]
    class_pairs: tuple[frozenset, ...]

    @property
    def num_classes(self) -> int:
        return len(self.class_pairs)


def blank_summary(graph: TripleGraph) -> BlankSummary:
    """Compute one version's :class:`BlankSummary` (its once-per-store cost)."""
    blanks = graph.blanks()
    if not blanks:
        return BlankSummary(classes={}, class_pairs=())
    interner = ColorInterner()
    partition = bisim_refine_fixpoint(
        graph, label_partition(graph, interner), blanks, interner
    )
    return summary_from_partition(graph, partition)


def summary_from_partition(graph: TripleGraph, partition) -> BlankSummary:
    """Quotient any deblanking fixpoint of *graph* to a :class:`BlankSummary`.

    Class ids are numbered by first appearance in graph order, so two
    *equivalent* partitions (batch-refined or incrementally maintained —
    color values notwithstanding) produce identical summaries.
    """
    blanks = graph.blanks()
    if not blanks:
        return BlankSummary(classes={}, class_pairs=())
    classes: dict[NodeId, int] = {}
    representatives: list[NodeId] = []
    class_of_color: dict[int, int] = {}
    for node in graph.nodes():
        if node not in blanks:
            continue
        color = partition[node]
        cid = class_of_color.get(color)
        if cid is None:
            cid = len(representatives)
            class_of_color[color] = cid
            representatives.append(node)
        classes[node] = cid

    def token(node: NodeId) -> Token:
        cid = classes.get(node)
        if cid is None:
            return ("n", graph.label(node))
        return ("b", cid)

    class_pairs = tuple(
        frozenset((token(p), token(o)) for p, o in graph.out(rep))
        for rep in representatives
    )
    return BlankSummary(classes=classes, class_pairs=class_pairs)


def joint_quotient_colors(
    first: BlankSummary, second: BlankSummary
) -> tuple[list[int], list[int]]:
    """Refine two versions' blank-class quotients jointly to the fixpoint.

    Returns one color per class and side; two classes (of either side)
    receive the same color iff their members would share a class in the
    deblanking partition of the disjoint union.  This is plain
    ``BisimRefine*`` (:func:`~repro.core.refinement.refine_to_fixpoint`)
    run on the quotient structures: sound because every summary class is
    behaviorally exact, and cheap because the quotients have one node per
    *class*, not per blank: *first*'s classes, then *second*'s, all
    starting at the blank color.
    """
    interner = ColorInterner()
    bottom = interner.blank_color()
    if not (first.class_pairs or second.class_pairs):
        return [], []
    split = first.num_classes
    # Per quotient node: the node id of its side's class 0, its out-pairs.
    quotient = [(0, pairs) for pairs in first.class_pairs]
    quotient += [(split, pairs) for pairs in second.class_pairs]
    label_color = interner.label_color

    def key(quotient: list, current: Partition, q: int) -> Hashable:
        shift, pairs = quotient[q]
        colors = {
            (
                current[shift + p[1]] if p[0] == "b" else label_color(p[1]),
                current[shift + o[1]] if o[0] == "b" else label_color(o[1]),
            )
            for p, o in pairs
        }
        return ("recolor", current[q], tuple(sorted(colors)))

    nodes = range(len(quotient))
    fixpoint = refine_to_fixpoint(
        quotient, Partition(dict.fromkeys(nodes, bottom)), nodes, interner, key
    )
    colors = list(fixpoint.values())  # a Partition keeps its nodes' order
    return colors[:split], colors[split:]


def compose_deblank_partition(
    union: CombinedGraph,
    source_summary: BlankSummary,
    target_summary: BlankSummary,
    joint: tuple[list[int], list[int]],
    interner: ColorInterner,
) -> Partition:
    """Assemble a pair's deblanking partition from per-version summaries.

    Equivalent (as a partition) to refining the union from scratch:
    non-blank nodes get their label color, every blank its class's joint
    quotient color (*joint* comes from :func:`joint_quotient_colors` on
    the two summaries).  Shared by :meth:`VersionStore.deblank_partition`
    and the incremental chain path of
    :meth:`repro.align.session.Aligner.align_chain`.
    """
    source_colors, target_colors = joint
    colors: dict[NodeId, int] = {}
    label_color = interner.label_color
    intern = interner.intern
    original = union.original
    split = union.num_source_nodes
    for node, label in union.labels().items():
        cid = None
        if is_blank(label):  # only blank nodes have summary classes
            if node < split:  # type: ignore[operator]
                cid = source_summary.classes.get(original(node))
                joint_colors = source_colors
            else:
                cid = target_summary.classes.get(original(node))
                joint_colors = target_colors
        if cid is None:
            colors[node] = label_color(label)
        else:
            colors[node] = intern(("deblank-class", joint_colors[cid]))
    return Partition(colors)


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
@dataclass
class CellContext:
    """Everything one matrix cell needs, derived deterministically.

    ``interner`` holds the state right after the hybrid refinement; runs
    that mint further colors (overlap) must work on ``interner.clone()``
    so sibling cells stay independent.
    """

    source: int
    target: int
    engine: str
    union: CombinedGraph
    interner: ColorInterner
    deblank: Partition
    hybrid: Partition


#: Process-wide stores keyed by dataset configuration (shared across
#: figures; pool workers get the store the pool was handed instead).
#: Cleared together with the generators they wrap (see the registry
#: hook below), so ``clear_shared_generators()`` releases everything.
_SHARED_STORES: dict[tuple, "VersionStore"] = {}

_registry.register_clear_hook(_SHARED_STORES.clear)


class VersionStore:
    """Materializes each dataset version's reusable artifacts exactly once."""

    #: Unions kept per store (each holds its snapshot once built); a figure
    #: touches consecutive or triangular pairs, so a small window gets all
    #: the reuse there is.
    UNION_CACHE_SIZE = 12

    #: Cell contexts / overlap results kept per store.  They pin unions,
    #: snapshots and partitions, so an all-pairs grid must be allowed to
    #: evict old cells instead of retaining O(pairs) of them.
    CONTEXT_CACHE_SIZE = 16

    def __init__(self, generator, versions: int | None = None) -> None:
        if versions is None:
            versions = generator.config.versions
        self.generator = generator
        self.versions = versions
        self._summaries: dict[int, BlankSummary] = {}
        self._edge_tokens: dict[tuple[int, str], frozenset] = {}
        self._trivial_sides: dict[tuple[int, int], frozenset] = {}
        self._static_stats: dict[tuple[int, int], tuple[int, int]] = {}
        self._joints: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
        self._unions: OrderedDict[tuple[int, int], CombinedGraph] = OrderedDict()
        self._contexts: OrderedDict[tuple[int, int, str], CellContext] = OrderedDict()
        self._overlaps: OrderedDict[tuple, tuple] = OrderedDict()
        self._truths: dict[tuple[int, int], object] = {}
        #: Literal-split memo shared by every overlap cell of the store
        #: (and handed to pool workers / persisted with the store).
        self._split_cache: dict[str, frozenset] = {}
        #: Dataset coordinates (family/scale/seed/versions) when known —
        #: stamped by :meth:`shared` and persisted as the archive identity.
        self.identity: dict | None = None
        #: The persistence backend this store was loaded from (if any).
        self.backend = None
        #: Corrupt derived artifacts skipped at load time (rebuilt lazily
        #: from the graphs): ``[{"key", "reason"}, ...]``.
        self.quarantined: list[dict] = []
        self.hits: dict[str, int] = {}
        self.misses: dict[str, int] = {}

    # ------------------------------------------------------------------
    @classmethod
    def shared(
        cls,
        family: str,
        scale: float,
        seed: int,
        versions: int,
        backend=None,
    ) -> "VersionStore":
        """The process-wide store for one dataset configuration.

        With *backend* (a path or persistence backend, see
        :mod:`repro.experiments.persist`) the store is **loaded** from a
        persisted archive instead of regenerated — the archive's identity
        must match the requested coordinates.  The load verifies every
        block's checksum.
        """
        try:
            factory = GENERATOR_FAMILIES[family]
        except KeyError:
            raise ExperimentError(
                f"unknown dataset family {family!r}; "
                f"expected one of {sorted(GENERATOR_FAMILIES)}"
            ) from None
        key = (family, float(scale), int(seed), int(versions))
        store = _SHARED_STORES.get(key)
        if store is None:
            identity = {
                "family": family,
                "scale": float(scale),
                "seed": int(seed),
                "versions": int(versions),
            }
            if backend is not None:
                store = cls.load(backend, expect=identity)
            else:
                store = cls(factory.shared(scale=scale, seed=seed, versions=versions))
                store.identity = identity
            _SHARED_STORES[key] = store
        return store

    def _count(self, kind: str, hit: bool) -> None:
        bucket = self.hits if hit else self.misses
        bucket[kind] = bucket.get(kind, 0) + 1

    def cache_stats(self) -> dict[str, tuple[int, int]]:
        """``kind -> (hits, misses)`` over every artifact family."""
        kinds = sorted(set(self.hits) | set(self.misses))
        return {
            kind: (self.hits.get(kind, 0), self.misses.get(kind, 0))
            for kind in kinds
        }

    # ------------------------------------------------------------------
    # Per-version artifacts
    # ------------------------------------------------------------------
    def graph(self, version: int) -> TripleGraph:
        return self.generator.graph(version)

    def graphs(self) -> list[TripleGraph]:
        return [self.graph(i) for i in range(self.versions)]

    def summary(self, version: int) -> BlankSummary:
        cached = self._summaries.get(version)
        if cached is not None:
            self._count("summary", hit=True)
            return cached
        self._count("summary", hit=False)
        summary = blank_summary(self.graph(version))
        self._summaries[version] = summary
        return summary

    def _split_edge_tokens(self, version: int, method: str) -> tuple[frozenset, frozenset]:
        """``(static, blank_touching)`` distinct edge triples over tokens.

        Static triples (no blank endpoint) are identical for every method
        and directly comparable across versions; blank-touching triples
        carry version-local markers resolved at cell time.  The split
        keeps the per-cell work proportional to the (small) blank-touching
        part — the static bulk is intersected as-is.
        """
        static_key = (version, "static")
        blank_key = (version, method)
        static = self._edge_tokens.get(static_key)
        blank_part = self._edge_tokens.get(blank_key)
        if static is not None and blank_part is not None:
            self._count("edge_tokens", hit=True)
            return static, blank_part
        self._count("edge_tokens", hit=False)
        graph = self.graph(version)
        if method == "trivial":
            blank_token: Callable[[NodeId], Token] = lambda node: ("b", node)
        elif method == "deblank":
            classes = self.summary(version).classes
            blank_token = lambda node: ("c", classes[node])
        else:
            raise ExperimentError(
                f"no edge tokens for method {method!r} (trivial/deblank only)"
            )
        # Per dense id: the node's token, and whether it is blank.
        blanks = graph.blanks()
        tokens: list[Hashable] = []
        is_blank: list[bool] = []
        for node, label in graph.labels().items():
            blank = node in blanks
            tokens.append(blank_token(node) if blank else label)
            is_blank.append(blank)
        static_set: set = set()
        blank_set: set = set()
        for subject, predicate, obj in zip(*graph.edge_columns()):
            triple = (tokens[subject], tokens[predicate], tokens[obj])
            if is_blank[subject] or is_blank[predicate] or is_blank[obj]:
                blank_set.add(triple)
            else:
                static_set.add(triple)
        static = frozenset(static_set)
        blank_part = frozenset(blank_set)
        self._edge_tokens[static_key] = static
        self._edge_tokens[blank_key] = blank_part
        return static, blank_part

    def edge_tokens(self, version: int, method: str) -> frozenset:
        """The version's distinct edge triples over node tokens.

        A non-blank node's token is its label itself.  ``method="trivial"``
        marks blank nodes with their identity (``("b", node)``),
        ``method="deblank"`` with their fixpoint class (``("c", class_id)``).
        No label equals a blank token: labels are tuples tagged with an
        int kind, blank tokens are tagged with a ``str``.  Labels are
        values, so tokens built in different processes agree.
        """
        key = (version, method + "-all")
        cached = self._edge_tokens.get(key)
        if cached is None:
            static, blank_part = self._split_edge_tokens(version, method)
            cached = static | blank_part
            self._edge_tokens[key] = cached
        else:
            self._count("edge_tokens", hit=True)
        return cached

    # ------------------------------------------------------------------
    # Pair-level artifacts
    # ------------------------------------------------------------------
    def joint_colors(
        self, source: int, target: int
    ) -> tuple[list[int], list[int]]:
        """Cross-version colors of the two versions' blank classes."""
        key = (source, target)
        cached = self._joints.get(key)
        if cached is not None:
            self._count("joint", hit=True)
            return cached
        self._count("joint", hit=False)
        joint = joint_quotient_colors(self.summary(source), self.summary(target))
        self._joints[key] = joint
        return joint

    def _lru(self, cache: OrderedDict, key, build: Callable, kind: str,
             size: int | None = None):
        cached = cache.get(key)
        if cached is not None:
            cache.move_to_end(key)
            self._count(kind, hit=True)
            return cached
        self._count(kind, hit=False)
        value = build()
        cache[key] = value
        while len(cache) > (size or self.UNION_CACHE_SIZE):
            cache.popitem(last=False)
        return value

    def union(self, source: int, target: int) -> CombinedGraph:
        """The memoized disjoint union of a version pair."""
        return self._lru(
            self._unions,
            (source, target),
            lambda: CombinedGraph(self.graph(source), self.graph(target)),
            "union",
        )

    def ground_truth(self, source: int, target: int):
        """The generator's ground truth for a pair (generators that have one)."""
        key = (source, target)
        cached = self._truths.get(key)
        if cached is not None:
            self._count("truth", hit=True)
            return cached
        self._count("truth", hit=False)
        truth = self.generator.ground_truth(source, target)
        self._truths[key] = truth
        return truth

    # ------------------------------------------------------------------
    # Fast aligned-edge metrics (no union, no node-level refinement)
    # ------------------------------------------------------------------
    def _trivial_side_tokens(self, version: int, side: int) -> frozenset:
        """Blank-touching trivial triples with the side baked in (cached).

        Trivial blanks are unique per combined node: tagging by side keeps
        a self-cell's two blank occurrences apart (the paper's "trivial
        diagonal < 1" effect), and the tagging only depends on which side
        the version plays — so it is cached per ``(version, side)``.
        """
        key = (version, side)
        cached = self._trivial_sides.get(key)
        if cached is None:
            _, blank_part = self._split_edge_tokens(version, "trivial")
            cached = _retag_blanks(
                blank_part, "b", lambda payload: ("b", side, payload)
            )
            self._trivial_sides[key] = cached
        return cached

    def _static_pair_stats(self, source: int, target: int) -> tuple[int, int]:
        """``(aligned, total)`` over the pair's *static* triples (cached).

        Static triples have no blank endpoint, so their counts are shared
        by the trivial and deblank cells of the pair.
        """
        key = (source, target)
        cached = self._static_stats.get(key)
        if cached is None:
            first, _ = self._split_edge_tokens(source, "trivial")
            second, _ = self._split_edge_tokens(target, "trivial")
            cached = (len(first & second), len(first | second))
            self._static_stats[key] = cached
        return cached

    def aligned_edge_stats(
        self, source: int, target: int, method: str
    ) -> tuple[int, int]:
        """``(|T1 ∩ T2|, |T1 ∪ T2|)`` over distinct edge color triples.

        Matches :func:`repro.evaluation.metrics.aligned_edge_counts` on the
        trivial/deblank partitions of the pair's union, computed from the
        per-version token sets alone.  Static triples are counted from the
        shared per-pair cache; only the blank-touching triples are
        translated per cell (trivially few — blanks are a small fraction
        of nodes), and their token space is disjoint from the static one,
        so the two counts simply add up.
        """
        static_aligned, static_total = self._static_pair_stats(source, target)
        if method == "trivial":
            first = self._trivial_side_tokens(source, 1)
            second = self._trivial_side_tokens(target, 2)
        else:
            first_colors, second_colors = self.joint_colors(source, target)
            _, first_part = self._split_edge_tokens(source, "deblank")
            _, second_part = self._split_edge_tokens(target, "deblank")
            first = _retag_blanks(
                first_part, "c", lambda cid: ("q", first_colors[cid])
            )
            second = _retag_blanks(
                second_part, "c", lambda cid: ("q", second_colors[cid])
            )
        return (
            static_aligned + len(first & second),
            static_total + len(first | second),
        )

    def aligned_edge_ratio(self, source: int, target: int, method: str) -> float:
        aligned, total = self.aligned_edge_stats(source, target, method)
        if total == 0:
            return 1.0
        return aligned / total

    def aligned_edge_count(self, source: int, target: int, method: str) -> int:
        return self.aligned_edge_stats(source, target, method)[0]

    # ------------------------------------------------------------------
    # Cell contexts (hybrid and overlap over the memoized snapshots)
    # ------------------------------------------------------------------
    def deblank_partition(
        self,
        source: int,
        target: int,
        interner: ColorInterner,
        union: CombinedGraph | None = None,
    ) -> Partition:
        """The pair's deblanking partition, composed from the summaries.

        Equivalent (as a partition) to
        ``deblank_partition(union, interner)`` but assembled from the
        per-version artifacts: non-blank nodes get their label color and
        every blank gets its class's joint quotient color.
        """
        if union is None:
            union = self.union(source, target)
        return compose_deblank_partition(
            union,
            self.summary(source),
            self.summary(target),
            self.joint_colors(source, target),
            interner,
        )

    def cell_context(
        self, source: int, target: int, config: AlignConfig | None = None
    ) -> CellContext:
        """Union + composed deblank + hybrid for one pair.

        Alignment settings arrive as one
        :class:`~repro.align.config.AlignConfig` (only its ``engine``
        matters here).  Memoized per ``(pair, engine)``; the context is
        deterministic (a fresh interner is seeded from the composed
        deblank partition), so a pool worker recomputing it produces
        the exact same colors as the serial run.
        """
        engine = (config or _DEFAULT_CONFIG).engine

        def build() -> CellContext:
            union = self.union(source, target)
            interner = ColorInterner()
            deblank = self.deblank_partition(source, target, interner, union)
            hybrid = hybrid_partition(union, interner, base=deblank, engine=engine)
            return CellContext(
                source=source,
                target=target,
                engine=engine,
                union=union,
                interner=interner,
                deblank=deblank,
                hybrid=hybrid,
            )

        return self._lru(
            self._contexts, (source, target, engine), build, "context",
            size=self.CONTEXT_CACHE_SIZE,
        )

    def overlap_result(
        self,
        source: int,
        target: int,
        config: AlignConfig | None = None,
        max_rounds: int = 100,
    ):
        """Memoized Algorithm 2 run over the pair's cell context.

        The run is parameterized entirely by *config* (theta, probe,
        engine, splitter).  Returns ``(weighted_partition, trace)``.  The
        run clones the context's interner, so results depend only on the
        pair and the config — never on which sibling theta/method ran
        first.
        """
        config = config or _DEFAULT_CONFIG

        def build() -> tuple:
            context = self.cell_context(source, target, config)
            trace = OverlapTrace()
            weighted = overlap_partition(
                context.union,
                theta=config.theta,
                interner=context.interner.clone(),
                base=context.hybrid,
                probe=config.probe,  # type: ignore[arg-type]
                max_rounds=max_rounds,
                trace=trace,
                splitter=self._store_splitter(config.splitter),
                engine=config.engine,
            )
            return (weighted, trace)

        if config.splitter is not split_words:
            # A bespoke splitter is not part of the memo key; run uncached.
            return build()
        key = (
            source, target, config.engine, float(config.theta), config.probe,
            max_rounds,
        )
        return self._lru(
            self._overlaps, key, build, "overlap",
            size=self.CONTEXT_CACHE_SIZE,
        )

    # ------------------------------------------------------------------
    def prepare(
        self,
        versions: Sequence[int] | None = None,
        *,
        summaries: bool = False,
        tokens: tuple[str, ...] = (),
        csr: bool = False,
    ) -> None:
        """Materialize per-version artifacts up front.

        Figures call this before sharding cells across workers so the
        expensive once-per-version work happens in the parent and reaches
        every pool worker with the store instead of being redone
        ``jobs`` times.  *csr* builds each version graph's CSR block,
        which a pickled store carries too.
        """
        selected = list(versions) if versions is not None else list(range(self.versions))
        for version in selected:
            self.graph(version)
            if summaries:
                self.summary(version)
            for method in tokens:
                self.edge_tokens(version, method)
            if csr:
                self.graph(version).csr()

    def _store_splitter(self, base: Callable) -> Callable:
        """Memoize the default splitter in the store-wide literal cache.

        The cache is one of the pickled/persisted artifacts ("literal
        splits"), so pool workers and reloaded archives skip the
        re-splitting cost.  Bespoke splitters pass through untouched —
        caching across different splitters would conflate their outputs.
        """
        if base is not split_words:
            return base
        cache = self._split_cache

        def splitter(text: str) -> frozenset:
            result = cache.get(text)
            if result is None:
                result = split_words(text)
                cache[text] = result
            return result

        return splitter

    # ------------------------------------------------------------------
    # Pickling (the pool's spawn contract)
    # ------------------------------------------------------------------
    def __reduce__(self):
        """Pickle the version graphs and the once-per-version caches.

        This is what a ``spawn`` pool worker receives (a ``fork`` worker
        inherits the store itself): the graphs, the CSR blocks already
        built (a graph's own pickle never carries its block), the
        identity, and the summary, edge-token, joint, trivial-side,
        static-stat, ground-truth and literal-split caches.  The union,
        context and overlap memos, the backend and the hit counters stay
        behind; the copy rebuilds whatever it misses from its graphs,
        deterministically, so results never depend on how warm the
        original's caches were.  Ground truth the copy was not handed
        raises (:class:`_PrebuiltHistory`).
        """
        graphs = self.graphs()
        blocks = {}
        for version, graph in enumerate(graphs):
            if graph.has_csr:
                block = graph.csr()
                blocks[version] = (
                    block.out_offsets, block.out_predicates, block.out_objects
                )
        caches = {name: getattr(self, name) for name in _PICKLED_CACHES}
        return (_unpickle_store, (type(self), graphs, blocks, self.identity, caches))

    # ------------------------------------------------------------------
    # Persistence (the pluggable MemoryBackend/DiskBackend layer)
    # ------------------------------------------------------------------
    def save(self, backend) -> object:
        """Persist the store's archive into *backend* (path or instance).

        Graphs are written as canonical sorted N-Triples (deterministic
        bytes), CSR blocks as flat int64 block files (the disk backend
        memory-maps them back), summaries / edge tokens / literal splits
        as pickles.  Everything a figure run needs is materialized
        before writing, so a reloaded store starts warm.
        """
        from ..io import ntriples
        from .persist import resolve_backend

        backend = resolve_backend(backend)
        backend.put_json(
            "store/identity", self.identity or {"versions": self.versions}
        )
        backend.put_json("store/versions", self.versions)
        for version in range(self.versions):
            graph = self.graph(version)
            backend.put_blob(
                f"graphs/{version}.nt",
                ntriples.dumps(graph, sort=True).encode("utf-8"),
            )
            block = self.graph(version).csr()
            backend.put_blob(
                f"csr/{version}/nodes",
                pickle.dumps(block.nodes, protocol=pickle.HIGHEST_PROTOCOL),
            )
            backend.put_array(f"csr/{version}/offsets", block.out_offsets)
            backend.put_array(f"csr/{version}/predicates", block.out_predicates)
            backend.put_array(f"csr/{version}/objects", block.out_objects)
            self.summary(version)
            self.edge_tokens(version, "trivial")
            self.edge_tokens(version, "deblank")
        for key, payload in (
            ("artifacts/summaries", dict(self._summaries)),
            ("artifacts/edge_tokens", dict(self._edge_tokens)),
            ("artifacts/splits", dict(self._split_cache)),
        ):
            backend.put_blob(
                key, pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            )
        backend.flush()
        return backend

    @classmethod
    def load(cls, backend, expect: dict | None = None) -> "VersionStore":
        """Reload a persisted store (fresh process, read-only backends OK).

        *expect* pins the archive identity (family/scale/seed/versions):
        a mismatch raises instead of silently aligning the wrong data.
        CSR blocks come back as read-only views over the backend's block
        storage (memory-mapped files for :class:`DiskBackend`), installed
        on their graphs.  Graphs are stored as sorted N-Triples, so each
        reparsed graph is rebuilt to list its nodes in its block's order:
        union ids are the blocks' dense ids.

        **Quarantine-and-rebuild:** derived artifacts (CSR blocks,
        summaries, edge tokens, literal splits) that fail checksum
        verification or unpickling, and edge tokens in the old
        ``("n", label)`` shape, are *skipped* — recorded on
        ``store.quarantined`` — and lazily rebuilt from the version
        graphs, which are the archive's source of truth.  A corrupt
        *graph* blob cannot be rebuilt and raises
        :class:`~repro.exceptions.CorruptStoreError`.
        """
        from ..io import ntriples
        from .persist import DiskBackend, resolve_backend

        if isinstance(backend, (str, os.PathLike)):
            backend = DiskBackend.open(backend)
        else:
            backend = resolve_backend(backend)
        identity = backend.get_json("store/identity") or {}
        versions = int(
            backend.get_json("store/versions") or identity.get("versions") or 0
        )
        if versions <= 0:
            raise ExperimentError(
                "the backend holds no persisted version store"
            )
        if expect is not None:
            mismatched = {
                key: (identity.get(key), value)
                for key, value in expect.items()
                if identity.get(key) != value
            }
            if mismatched:
                raise ExperimentError(
                    f"persisted store identity mismatch: {mismatched} "
                    "(archive value vs requested)"
                )
        graphs = []
        for version in range(versions):
            try:
                blob = backend.get_blob(f"graphs/{version}.nt")
            except CorruptStoreError as error:
                raise CorruptStoreError(
                    f"graphs/{version}.nt is corrupt and graphs are the "
                    f"archive's source of truth — nothing to rebuild from "
                    f"(re-save the store): {error}"
                ) from error
            if blob is None:
                raise ExperimentError(
                    f"persisted store is missing graphs/{version}.nt"
                )
            graphs.append(ntriples.loads(blob.decode("utf-8")))
        quarantined: list[dict] = []

        def salvage(description: str, rebuild_fn):
            # Derived artifacts are rebuildable from the graphs: corrupt
            # or unreadable entries are skipped (and recorded), never
            # fatal.  Unpickling hostile bytes can raise any of these.
            try:
                return rebuild_fn()
            except (CorruptStoreError, GraphError, OSError,
                    pickle.UnpicklingError, EOFError, ValueError, TypeError,
                    KeyError, IndexError, AttributeError) as error:
                quarantined.append(
                    {"key": description, "reason": repr(error)}
                )
                return None

        for version in range(versions):
            def load_block(version=version):
                nodes_blob = backend.get_blob(f"csr/{version}/nodes")
                if nodes_blob is None:
                    return None
                arrays = [
                    backend.get_array(f"csr/{version}/{part}")
                    for part in ("offsets", "predicates", "objects")
                ]
                # The graph was reparsed from sorted N-Triples; the block
                # keeps the node order of the graph it was built from.
                graph = _in_node_order(graphs[version], pickle.loads(nodes_blob))
                graphs[version] = graph
                graph.install_csr(CSRGraph.from_parts(list(graph.nodes()), *arrays))

            salvage(f"csr/{version}", load_block)
        store = cls(_PrebuiltHistory(graphs))
        store.identity = identity or None
        store.backend = backend
        for key, attribute in (
            ("artifacts/summaries", "_summaries"),
            ("artifacts/edge_tokens", "_edge_tokens"),
            ("artifacts/splits", "_split_cache"),
        ):
            def load_artifact(key=key):
                blob = backend.get_blob(key)
                if blob is None:
                    return None
                payload = pickle.loads(blob)
                if key == "artifacts/edge_tokens":
                    _check_token_shape(payload)
                return payload

            payload = salvage(key, load_artifact)
            if payload is not None:
                getattr(store, attribute).update(payload)
        store.quarantined = quarantined
        return store

    # ------------------------------------------------------------------
    def put_report(self, key: str, report, backend=None) -> None:
        """Persist one serialized AlignmentReport under ``reports/<key>``.

        Stored as the report's canonical JSON bytes, so a reloaded
        report round-trips byte-identically.
        """
        from .persist import resolve_backend

        backend = resolve_backend(backend if backend is not None else self.backend)
        backend.put_blob(f"reports/{key}", report.to_json().encode("utf-8"))
        backend.flush()

    def get_report(self, key: str, backend=None):
        """Reload a persisted AlignmentReport (``None`` when absent)."""
        from ..align.report import AlignmentReport
        from .persist import resolve_backend

        backend = resolve_backend(backend if backend is not None else self.backend)
        blob = backend.get_blob(f"reports/{key}")
        if blob is None:
            return None
        return AlignmentReport.from_json(blob.decode("utf-8"))


#: The once-per-version caches a pickled store carries.
_PICKLED_CACHES = (
    "_summaries", "_edge_tokens", "_joints", "_trivial_sides",
    "_static_stats", "_truths", "_split_cache",
)


def _unpickle_store(cls, graphs, blocks, identity, caches) -> VersionStore:
    """Rebuild a store from :meth:`VersionStore.__reduce__`'s payload."""
    store = cls(_PrebuiltHistory(graphs))
    store.identity = identity
    for version, arrays in blocks.items():
        graph = graphs[version]
        graph.install_csr(CSRGraph.from_parts(list(graph.nodes()), *arrays))
    for name, cache in caches.items():
        getattr(store, name).update(cache)
    return store


class _PrebuiltHistory:
    """Generator stand-in for stores unpickled or loaded from an archive.

    Wraps already-materialized version graphs with the surface the store
    uses (``graph``/``config.versions``).  Ground truth is deliberately
    absent: it must be warmed in the owning process before pickling.
    """

    def __init__(self, graphs: Sequence[TripleGraph]) -> None:
        self._graphs = list(graphs)
        self.config = SimpleNamespace(versions=len(self._graphs))

    def graph(self, index: int) -> TripleGraph:
        return self._graphs[index]

    def ground_truth(self, source: int, target: int):
        raise ExperimentError(
            "ground truth is not part of a pickled or persisted store; "
            "warm it via store.ground_truth(...) in the owning process "
            "before pickling"
        )


def _in_node_order(graph: TripleGraph, nodes: Sequence[NodeId]) -> TripleGraph:
    """*graph* with its nodes listed in the order of *nodes*.

    Union ids are CSR dense ids, i.e. positions in a version's node order,
    so a persisted block can only serve a graph that lists its nodes in
    the block's order.  Raises :class:`ValueError` when *nodes* are not
    exactly the graph's nodes; the load then quarantines the block and
    rebuilds it from the graph.
    """
    labels = graph.labels()
    if list(labels) == nodes:
        return graph
    # The rebuilt graph keeps the graph's own node objects, which its
    # edges already hold, rather than the block's equal copies.
    own = {node: node for node in labels}
    ordered = type(graph)()
    try:
        for node in nodes:
            node = own[node]
            ordered.add_node(node, labels[node])
    except (KeyError, TypeError):  # TypeError: an unhashable entry
        raise ValueError("the CSR block lists a node the graph lacks") from None
    if len(nodes) != len(labels) or ordered.num_nodes != len(labels):
        raise ValueError("the CSR block does not list each graph node once")
    ordered.add_edges(graph.edges())
    return ordered


def _check_token_shape(edge_tokens: dict) -> None:
    """Refuse edge tokens persisted in the old ``("n", label)`` shape.

    Archives written before labels became their own tokens wrapped every
    non-blank node as ``("n", label)``.  Such sets never intersect fresh
    ones, so the load quarantines them (ValueError) and they are rebuilt.
    """
    for triples in edge_tokens.values():
        for triple in triples:
            for token in triple:
                if type(token) is tuple and token[0] == "n":
                    raise ValueError(
                        "edge tokens use the old ('n', label) node shape"
                    )


def _retag_blanks(
    triples: frozenset, tag: str, rewrite: Callable[[Hashable], Token]
) -> frozenset:
    """Rewrite every ``(tag, payload)`` token of a triple set via *rewrite*.

    Labels are tuple subclasses and blank tokens plain tuples, so the
    exact type tells a blank token before its tag is compared.
    """

    def retag(tok: Token) -> Token:
        return rewrite(tok[1]) if type(tok) is tuple and tok[0] == tag else tok

    return frozenset(
        (retag(subject), retag(predicate), retag(obj))
        for subject, predicate, obj in triples
    )
