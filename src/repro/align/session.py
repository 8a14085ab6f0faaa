"""The :class:`Aligner` session: one config, cached per-source state.

An :class:`Aligner` holds an immutable :class:`~repro.align.config.
AlignConfig` plus caches that make *repeated* alignments cheap:

* a per-splitter literal characterization cache — version chains share
  most literal values, so across a session every distinct string is
  split exactly once (subsuming the old ``align_many`` special case);
* a per-path parse cache — :meth:`Aligner.align` accepts file paths
  (N-Triples or Turtle, via :func:`repro.io.load_graph`) and loads each
  path once.

The session keeps no CSR snapshots of its own.  With ``engine="dense"``
each graph builds its snapshot once and caches it
(:meth:`~repro.model.graph.TripleGraph.csr`), and every pair's union
assembles its snapshot from its two sides' blocks
(:meth:`~repro.model.union.CombinedGraph.csr`).  So every session over
a graph, and every :class:`~repro.experiments.store.VersionStore`, reads
the same block, and a graph that grows drops its block.

Usage::

    from repro.align import AlignConfig, Aligner

    aligner = Aligner(AlignConfig(method="overlap", engine="dense"))
    result = aligner.align("v1.nt", "v2.nt")     # paths or TripleGraphs
    batch = aligner.align_many(v1, [v2, v3, v4])
    report = aligner.report(v1, v2)              # serializable AlignmentReport

The caches never change results — every alignment is a pure function of
the two graphs and the config — they only change how often shared work
is redone.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from ..model.graph import TripleGraph
from ..model.union import CombinedGraph
from .config import AlignConfig
from .methods import MethodContext
from .registry import get_method
from .report import AlignmentReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.store import BlankSummary
    from .results import AlignmentResult, BaselineResult

#: Anything :class:`Aligner` accepts as one side of an alignment.
GraphLike = "TripleGraph | str | os.PathLike"


class Aligner:
    """A reusable alignment session around one :class:`AlignConfig`.

    Construct with a config, keyword overrides, or both
    (``Aligner(config, theta=0.5)`` applies the override on top)::

        aligner = Aligner(method="hybrid", engine="dense")

    Derived sessions share caches: :meth:`evolve` returns a new
    :class:`Aligner` with a changed config whose literal and path caches
    are the same objects, so ``aligner.evolve(theta=0.8)`` splits no
    literal twice.
    """

    #: Parsed files kept per session.  LRU-bounded like
    #: :class:`~repro.experiments.store.VersionStore`'s caches: a session
    #: aligning an open-ended stream of distinct files must not pin
    #: every input it has ever seen.
    PATH_CACHE_SIZE = 16

    #: Distinct literal values characterized per splitter before the
    #: oldest entries are dropped (FIFO; the cache is pure memoization,
    #: eviction only costs re-splitting).
    SPLIT_CACHE_SIZE = 1 << 16

    def __init__(self, config: AlignConfig | None = None, **overrides: object) -> None:
        if config is None:
            config = AlignConfig()
        if overrides:
            config = config.evolve(**overrides)
        self.config = config
        #: splitter callable -> {literal value -> characterization}.
        self._split_caches: dict[Callable, dict[str, frozenset]] = {}
        #: resolved path -> parsed graph.
        self._loaded: OrderedDict[str, TripleGraph] = OrderedDict()

    # ------------------------------------------------------------------
    # Config composition
    # ------------------------------------------------------------------
    def evolve(self, **changes: object) -> "Aligner":
        """A sibling session with *changes* applied to the config.

        The new session shares this one's caches (they are config-
        independent), so sweeping a parameter over one version chain
        splits each literal and parses each file once.
        """
        sibling = Aligner(self.config.evolve(**changes))
        sibling._split_caches = self._split_caches
        sibling._loaded = self._loaded
        return sibling

    # ------------------------------------------------------------------
    # Alignment entry points
    # ------------------------------------------------------------------
    def align(
        self, source: GraphLike, target: GraphLike
    ) -> "AlignmentResult | BaselineResult":
        """Align two versions (graphs or file paths).

        Returns an :class:`~repro.align.results.AlignmentResult` for the
        partition methods, a :class:`~repro.align.results.BaselineResult`
        for pair-set methods — both carry ``.alignment`` and
        ``.report()``.
        """
        return self._run(self._resolve(source), self._resolve(target))

    def align_many(self, source: GraphLike, targets: Iterable[GraphLike]) -> list:
        """Align one source version against many targets.

        Same results as one :meth:`align` per pair; the source side's
        artifacts are built once and shared (see the module docstring).
        """
        resolved = self._resolve(source)
        return [self._run(resolved, self._resolve(target)) for target in targets]

    def align_pairs(self, pairs: Iterable[Sequence[GraphLike]]) -> list:
        """Align arbitrary ``(source, target)`` pairs in one session.

        Every graph that recurs across the pair list — a shared ancestor
        version, a chain walked twice — reuses its own cached snapshot.
        """
        return [
            self._run(self._resolve(source), self._resolve(target))
            for source, target in pairs
        ]

    def align_chain(
        self, history: Sequence[GraphLike], changes: Sequence | None = None
    ) -> list:
        """Align every consecutive pair of a version *history*.

        With the default config this is one :meth:`align` per pair.
        With ``incremental=True`` each version's deblanking fixpoint is
        computed once, in canonical colors (:mod:`repro.core.maintain`),
        and each pair's alignment base is composed from the two
        per-version class summaries instead of refined from scratch.
        Results are identical either way; only wall-clock changes.

        *changes* optionally supplies the per-step deltas (one per
        consecutive pair, e.g. from an archive's write log or a
        generator's ``version_changes``).  With deltas, version ``k+1``'s
        fixpoint is *maintained* from version ``k``'s: only the
        predecessor closure of the step's changes is recolored.  Without
        them, every version is canonized from scratch, which costs less
        than diffing the two versions would.
        """
        from ..exceptions import ConfigError

        graphs = [self._resolve(graph) for graph in history]
        if len(graphs) < 2:
            raise ConfigError(
                f"align_chain needs at least two versions, got {len(graphs)}"
            )
        if changes is not None and len(changes) != len(graphs) - 1:
            raise ConfigError(
                f"expected {len(graphs) - 1} deltas for {len(graphs)} "
                f"versions, got {len(changes)}"
            )
        if not self.config.incremental:
            return [self._run(a, b) for a, b in zip(graphs, graphs[1:])]

        from ..core.maintain import canonical_fixpoint, maintain_or_batch
        from ..experiments.store import (
            joint_quotient_colors,
            summary_from_partition,
        )
        from ..partition.interner import ColorInterner

        # One interner for the whole chain: a maintained step carries the
        # previous step's canonical colors as they are.
        chain_interner = ColorInterner()
        if changes is None:
            fixpoints = [
                canonical_fixpoint(graph, graph.blanks(), chain_interner)
                for graph in graphs
            ]
        else:
            fixpoints = [
                canonical_fixpoint(graphs[0], graphs[0].blanks(), chain_interner)
            ]
            for graph, delta in zip(graphs[1:], changes):
                fixpoints.append(
                    maintain_or_batch(
                        graph, fixpoints[-1], delta, graph.blanks(), chain_interner
                    )
                )
        summaries = [
            summary_from_partition(graph, fixpoint)
            for graph, fixpoint in zip(graphs, fixpoints)
        ]
        return [
            self._run_composed(
                graphs[i],
                graphs[i + 1],
                summaries[i],
                summaries[i + 1],
                joint_quotient_colors(summaries[i], summaries[i + 1]),
            )
            for i in range(len(graphs) - 1)
        ]

    def _run_composed(
        self,
        source: TripleGraph,
        target: TripleGraph,
        source_summary: "BlankSummary",
        target_summary: "BlankSummary",
        joint: tuple[list[int], list[int]],
    ) -> "AlignmentResult | BaselineResult":
        """One pair's alignment on top of a composed deblanking base."""
        from ..core.hybrid import hybrid_partition
        from ..experiments.store import compose_deblank_partition
        from ..partition.interner import ColorInterner
        from ..similarity.overlap_alignment import OverlapTrace, overlap_partition
        from .methods import _partition_result

        config = self.config
        spec = get_method(config.method)
        if spec.baseline or config.method == "trivial" or config.method not in (
            "deblank", "hybrid", "overlap"
        ):
            # No deblanking fixpoint to reuse (trivial/baselines), or a
            # third-party method without a composed path: run batch.
            return self._run(source, target)
        graph = CombinedGraph(source, target)
        interner = ColorInterner()
        deblank = compose_deblank_partition(
            graph, source_summary, target_summary, joint, interner
        )
        if config.method == "deblank":
            return _partition_result("deblank", graph, deblank, interner, config)
        hybrid = hybrid_partition(graph, interner, base=deblank, engine=config.engine)
        if config.method == "hybrid":
            return _partition_result("hybrid", graph, hybrid, interner, config)
        trace = OverlapTrace()
        weighted = overlap_partition(
            graph,
            theta=config.theta,
            interner=interner,
            base=hybrid,
            probe=config.probe,  # type: ignore[arg-type]
            splitter=self._memoized_splitter(),
            trace=trace,
            engine=config.engine,
        )
        return _partition_result(
            "overlap", graph, weighted.partition, interner, config,
            weighted=weighted, trace=trace,
        )

    def report(self, source: GraphLike, target: GraphLike) -> AlignmentReport:
        """Align and render the serializable report in one step."""
        return self.align(source, target).report(self.config)

    # ------------------------------------------------------------------
    # Cached state
    # ------------------------------------------------------------------
    def clear_caches(self) -> None:
        """Drop every cached characterization and parsed file."""
        self._split_caches.clear()
        self._loaded.clear()

    def _resolve(self, graph: GraphLike) -> TripleGraph:
        if isinstance(graph, TripleGraph):
            return graph
        if isinstance(graph, (str, os.PathLike)):
            from ..io import load_graph  # late: io imports nothing back
            from ..robustness.retry import RetryPolicy, call_with_retry

            key = os.fspath(graph)
            cached = self._loaded.get(key)
            if cached is None:
                # Transient I/O errors (NFS hiccups, injected EIO) are
                # retried under the session's budget; a missing file is
                # not transient and propagates immediately.
                cached = self._loaded[key] = call_with_retry(
                    lambda: load_graph(graph),
                    policy=RetryPolicy.from_config(self.config),
                )
                while len(self._loaded) > self.PATH_CACHE_SIZE:
                    self._loaded.popitem(last=False)
            else:
                self._loaded.move_to_end(key)
            return cached
        raise TypeError(
            f"expected a TripleGraph or a path, got {type(graph).__name__}"
        )

    def _memoized_splitter(self) -> Callable[[str], frozenset]:
        splitter = self.config.splitter
        cache = self._split_caches.setdefault(splitter, {})
        cap = self.SPLIT_CACHE_SIZE

        def cached(value: str) -> frozenset:
            objects = cache.get(value)
            if objects is None:
                objects = cache[value] = splitter(value)
                if len(cache) > cap:
                    del cache[next(iter(cache))]
            return objects

        return cached

    def _run(
        self, source: TripleGraph, target: TripleGraph
    ) -> "AlignmentResult | BaselineResult":
        spec = get_method(self.config.method)
        context = MethodContext(splitter=self._memoized_splitter())
        return spec.runner(CombinedGraph(source, target), self.config, context)

    def __repr__(self) -> str:
        return f"Aligner({self.config!r})"
