"""Built-in method runners and their registry entries.

This module is imported lazily by the registry's ``_ensure_defaults`` so
that importing :mod:`repro.align.registry` (or validating an
:class:`~repro.align.config.AlignConfig`) never drags the partition
builders in before they are needed.

Each runner follows the registry contract
``runner(graph, config, context) -> result`` (see
:mod:`repro.align.registry`); the partition families return
:class:`~repro.align.results.AlignmentResult`, the baselines
:class:`~repro.align.results.BaselineResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Collection

from ..baselines.label_invention import label_invention_alignment
from ..baselines.similarity_flooding import similarity_flooding
from ..core.deblank import deblank_partition
from ..core.dense import resolve_refine_engine
from ..core.hybrid import hybrid_partition
from ..core.ksignature import SignatureStats, ksignature_partition
from ..core.trivial import trivial_partition
from ..model.graph import NodeId
from ..model.union import CombinedGraph
from ..partition.alignment import PartitionAlignment
from ..partition.coloring import Partition, label_partition
from ..partition.interner import ColorInterner
from ..partition.weighted import WeightedPartition
from ..similarity.overlap_alignment import OverlapTrace, overlap_partition
from .registry import MethodSpec, register_method
from .results import AlignmentResult, BaselineResult, PairAlignment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .config import AlignConfig


@dataclass
class MethodContext:
    """Session-provided artifacts a runner may reuse.

    ``splitter`` is a possibly-memoized literal characterizer that
    overrides the config's raw one.  It is optional: a bare
    ``MethodContext()`` makes every runner self-sufficient.  The dense
    engine's snapshot is not passed here; runners read ``graph.csr()``.
    """

    splitter: Callable[[str], frozenset] | None = None


def run_method(
    graph: CombinedGraph, config: "AlignConfig", context: MethodContext | None = None
) -> AlignmentResult | BaselineResult:
    """Dispatch *config.method* through the registry on a combined graph."""
    from .registry import get_method

    return get_method(config.method).runner(graph, config, context or MethodContext())


# ----------------------------------------------------------------------
# The paper's partition hierarchy (Sections 3.4 and 4.7)
# ----------------------------------------------------------------------
def _partition_result(
    method: str,
    graph: CombinedGraph,
    partition: Partition,
    interner: ColorInterner,
    config: "AlignConfig",
    weighted: WeightedPartition | None = None,
    trace: OverlapTrace | None = None,
    details: dict | None = None,
) -> AlignmentResult:
    return AlignmentResult(
        method=method,
        graph=graph,
        partition=partition,
        alignment=PartitionAlignment(graph, partition),
        interner=interner,
        weighted=weighted,
        trace=trace,
        engine=config.engine,
        details=details or {},
    )


def _trivial_runner(
    graph: CombinedGraph, config: "AlignConfig", context: MethodContext
) -> AlignmentResult:
    interner = ColorInterner()
    partition = trivial_partition(graph, interner, engine=config.engine)
    return _partition_result("trivial", graph, partition, interner, config)


def _deblank_runner(
    graph: CombinedGraph, config: "AlignConfig", context: MethodContext
) -> AlignmentResult:
    interner = ColorInterner()
    partition = deblank_partition(graph, interner, engine=config.engine)
    return _partition_result("deblank", graph, partition, interner, config)


def _hybrid_runner(
    graph: CombinedGraph, config: "AlignConfig", context: MethodContext
) -> AlignmentResult:
    interner = ColorInterner()
    partition = hybrid_partition(graph, interner, engine=config.engine)
    return _partition_result("hybrid", graph, partition, interner, config)


def _overlap_runner(
    graph: CombinedGraph, config: "AlignConfig", context: MethodContext
) -> AlignmentResult:
    interner = ColorInterner()
    trace = OverlapTrace()
    weighted = overlap_partition(
        graph,
        theta=config.theta,
        interner=interner,
        base=hybrid_partition(graph, interner, engine=config.engine),
        probe=config.probe,  # type: ignore[arg-type]
        splitter=context.splitter or config.splitter,
        trace=trace,
        engine=config.engine,
    )
    return _partition_result(
        "overlap", graph, weighted.partition, interner, config,
        weighted=weighted, trace=trace,
    )


# ----------------------------------------------------------------------
# The k-bisimulation hash-signature family (Rau et al., and full bisim as
# its k→∞ anchor).  These refine over *all* nodes, so unlike the paper's
# four operators they may split label-equal URIs (label_floor=False).
# ----------------------------------------------------------------------
def _bisim_runner(
    graph: CombinedGraph, config: "AlignConfig", context: MethodContext
) -> AlignmentResult:
    interner = ColorInterner()
    refine = resolve_refine_engine(config.engine)
    partition = refine(graph, label_partition(graph, interner), None, interner)
    return _partition_result("bisim", graph, partition, interner, config)


def _signature_family(
    method: str,
    graph: CombinedGraph,
    config: "AlignConfig",
    context: MethodContext,
    subset: Collection[NodeId] | None,
) -> AlignmentResult:
    """Shared runner body of ``kbisim``/``kbisim_deblank``.

    ``config.jobs != 1`` routes signature hashing through the per-node
    shm shard pool, which runs serially where the platform (or a pool
    worker) cannot host it; the pooled and serial paths are
    byte-identical by construction (same payloads, same hash, same
    interning order), so jobs never affects the result.
    """
    interner = ColorInterner()
    stats = SignatureStats()
    if config.jobs != 1:
        from ..experiments.ksig_shard import pooled_ksignature_partition

        partition = pooled_ksignature_partition(
            graph,
            interner,
            k=config.k,
            engine=config.engine,
            subset=subset,
            stats=stats,
            jobs=config.jobs,
        )
    else:
        partition = ksignature_partition(
            graph,
            interner,
            k=config.k,
            engine=config.engine,
            subset=subset,
            stats=stats,
        )
    details = {
        "k": stats.k,
        "signature_rounds": stats.rounds,
        "signature_converged": stats.converged,
        "signature_classes": list(stats.class_counts),
    }
    return _partition_result(
        method, graph, partition, interner, config, details=details
    )


def _kbisim_runner(
    graph: CombinedGraph, config: "AlignConfig", context: MethodContext
) -> AlignmentResult:
    return _signature_family("kbisim", graph, config, context, None)


def _kbisim_deblank_runner(
    graph: CombinedGraph, config: "AlignConfig", context: MethodContext
) -> AlignmentResult:
    return _signature_family(
        "kbisim_deblank", graph, config, context, graph.blanks()
    )


# ----------------------------------------------------------------------
# Related-work baselines (PAPERS.md: Melnik et al. [12], Tzitzikas et al. [17])
# ----------------------------------------------------------------------
def _similarity_flooding_runner(
    graph: CombinedGraph, config: "AlignConfig", context: MethodContext
) -> BaselineResult:
    flooding = similarity_flooding(graph)
    pairs = flooding.mutual_best_matches()
    return BaselineResult(
        method="similarity_flooding",
        graph=graph,
        alignment=PairAlignment(graph, pairs),
        engine=config.engine,
        details={"rounds": flooding.rounds},
    )


def _label_invention_runner(
    graph: CombinedGraph, config: "AlignConfig", context: MethodContext
) -> BaselineResult:
    pairs = label_invention_alignment(graph)
    return BaselineResult(
        method="label_invention",
        graph=graph,
        alignment=PairAlignment(graph, pairs),
        engine=config.engine,
    )


register_method(MethodSpec(
    name="trivial",
    runner=_trivial_runner,
    finer_than=None,
    description="label equality only (Section 3.4)",
))
register_method(MethodSpec(
    name="deblank",
    runner=_deblank_runner,
    finer_than="trivial",
    description="plus bisimulation on blank nodes (Section 3.4)",
))
register_method(MethodSpec(
    name="hybrid",
    runner=_hybrid_runner,
    finer_than="deblank",
    description="plus bisimulation on renamed URIs (Section 3.4)",
))
register_method(MethodSpec(
    name="overlap",
    runner=_overlap_runner,
    finer_than="hybrid",
    description="plus similarity matches robust under edits (Section 4.7)",
))
register_method(MethodSpec(
    name="bisim",
    runner=_bisim_runner,
    finer_than=None,
    description="full maximal bisimulation over all nodes (Section 3.2)",
    label_floor=False,
))
register_method(MethodSpec(
    name="kbisim",
    runner=_kbisim_runner,
    finer_than="bisim",
    description="hash-signature k-bisimulation, k rounds (Rau et al., 2022)",
    label_floor=False,
    uses_k=True,
))
register_method(MethodSpec(
    name="kbisim_deblank",
    runner=_kbisim_deblank_runner,
    finer_than="deblank",
    description="k-round signature refinement on blank nodes only",
    uses_k=True,
))
register_method(MethodSpec(
    name="similarity_flooding",
    runner=_similarity_flooding_runner,
    description="mutual-best-match similarity flooding (Melnik et al., ICDE 2002)",
    baseline=True,
))
register_method(MethodSpec(
    name="label_invention",
    runner=_label_invention_runner,
    description="blank-node label invention (Tzitzikas et al., ISWC 2012)",
    baseline=True,
))
