"""Module-level matrix-cell functions for the shared-memory pool.

:func:`~repro.experiments.parallel.run_store_cells` ships its cell
callable to the workers *by reference* (module + qualified name), which
is what lets the pool run under the ``spawn`` start method — closures
over a parent-local store cannot cross that boundary.  Every cell here
is a deterministic function of ``(store, config, item)`` over the
store's immutable artifacts, so serial and pooled runs agree
byte-for-byte (Figure 16's cell also returns timings, which do not).
"""

from __future__ import annotations

from ..align.config import AlignConfig
from ..align.methods import run_method
from ..core.bisimulation import bisimulation_partition
from ..core.hybrid import hybrid_partition
from ..core.trivial import trivial_partition
from ..evaluation.metrics import (
    aligned_edge_count,
    ground_truth_entity_count,
    matched_entity_count,
    total_entity_count,
)
from ..evaluation.precision import precision_counts
from ..evaluation.timing import StopwatchSeries
from ..partition.interner import ColorInterner
from ..similarity.overlap_alignment import overlap_partition

_DEFAULT_CONFIG = AlignConfig()


def version_kinds_cell(store, config, index: int) -> dict:
    """Figure 9: node/edge counts of one version by kind.

    Normalized blanks are the distinct bisimulation classes of blank
    nodes (the paper's de-duplicated count, which grows steadily).
    """
    graph = store.graph(index)
    stats = graph.stats()
    partition = bisimulation_partition(graph)
    normalized_blanks = len({partition[node] for node in graph.blanks()})
    return {
        "version": index + 1,
        "edges": stats.num_edges,
        "literals": stats.num_literals,
        "uris": stats.num_uris,
        "blanks": stats.num_blanks,
        "normalized_blanks": normalized_blanks,
        "literal_fraction": round(stats.num_literals / stats.num_nodes, 3),
        "blank_fraction": round(stats.num_blanks / stats.num_nodes, 3),
    }


def version_counts_cell(store, config, index: int) -> dict:
    """Figure 12: node/edge counts of one version."""
    stats = store.graph(index).stats()
    return {
        "version": index + 1,
        "edges": stats.num_edges,
        "uris": stats.num_uris,
        "literals": stats.num_literals,
        "blanks": stats.num_blanks,
    }


def edge_ratio_cell(store, config, pair: tuple[int, int]) -> tuple[float, float]:
    """Figure 10: ``(trivial, deblank)`` aligned-edge ratios of one pair."""
    source, target = pair
    return (
        store.aligned_edge_ratio(source, target, "trivial"),
        store.aligned_edge_ratio(source, target, "deblank"),
    )


def method_counts_cell(store, config, pair: tuple[int, int]) -> tuple[int, int, int]:
    """Figure 11: ``(deblank, hybrid, overlap)`` aligned-edge counts.

    Deblank needs no union at all; hybrid and overlap run over the
    store's memoized cell context (shared snapshot + composed base).
    """
    config = config or _DEFAULT_CONFIG
    source, target = pair
    deblank_count = store.aligned_edge_count(source, target, "deblank")
    context = store.cell_context(source, target, config)
    weighted, _ = store.overlap_result(source, target, config)
    return (
        deblank_count,
        aligned_edge_count(context.union, context.hybrid),
        aligned_edge_count(context.union, weighted.partition),
    )


def kbisim_counts_cell(store, config, pair: tuple[int, int]) -> dict:
    """k-bisimulation counts of one version pair at round bound ``config.k``.

    Runs the ``kbisim`` method over the pair's memoized union; the
    parallelism is per cell, through the store pool.
    """
    config = config or _DEFAULT_CONFIG
    source, target = pair
    result = run_method(store.union(source, target), config.evolve(method="kbisim"))
    return {
        "pair": (source, target),
        "k": config.k,
        "matched_entities": result.matched_entities(),
        "rounds": result.details["signature_rounds"],
        "converged": result.details["signature_converged"],
    }


def entity_counts_cell(store, config, index: int) -> dict:
    """Figure 13: aligned node counts of the consecutive pair at *index*."""
    config = config or _DEFAULT_CONFIG
    context = store.cell_context(index, index + 1, config)
    weighted, _ = store.overlap_result(index, index + 1, config)
    truth = store.ground_truth(index, index + 1)
    union = context.union
    return {
        "pair": f"{index + 1}->{index + 2}",
        "hybrid": matched_entity_count(union, context.hybrid),
        "overlap": matched_entity_count(union, weighted.partition),
        "gtopdb": ground_truth_entity_count(union, truth),
        "total": total_entity_count(union, truth),
    }


def precision_rows_cell(store, config, index: int) -> list[dict]:
    """Figure 14: hybrid and overlap precision rows of one consecutive pair.

    The pair's ground truth must be warm in the store (published stores
    cannot compute it).
    """
    config = config or _DEFAULT_CONFIG
    context = store.cell_context(index, index + 1, config)
    weighted, _ = store.overlap_result(index, index + 1, config)
    truth = store.ground_truth(index, index + 1)
    hybrid_counts = precision_counts(context.union, context.hybrid, truth)
    overlap_counts = precision_counts(context.union, weighted.partition, truth)
    pair = f"{index + 1}->{index + 2}"
    return [
        {"pair": pair, "method": "hybrid", **hybrid_counts.as_dict()},
        {"pair": pair, "method": "overlap", **overlap_counts.as_dict()},
    ]


def theta_precision_cell(store, config, item: tuple[int, int, float]) -> dict:
    """Figure 15: overlap precision of one pair at one threshold.

    *item* is ``(source, target, theta)``; the pair's ground truth must
    be warm in the store.
    """
    config = config or _DEFAULT_CONFIG
    source, target, theta = item
    weighted, _ = store.overlap_result(source, target, config.evolve(theta=theta))
    truth = store.ground_truth(source, target)
    counts = precision_counts(store.union(source, target), weighted.partition, truth)
    return {"theta": theta, **counts.as_dict()}


def method_timings_cell(store, config, index: int) -> dict:
    """Figure 16: trivial/hybrid/overlap seconds on one consecutive pair.

    Times the *methods* in-process.  Union construction is excluded, and
    so is the adjacency every method then reads: the union's CSR snapshot
    on the dense engine, its out-pair index on the reference engine (both
    are built on first use).  Under a pool the cells run concurrently, so
    per-cell times can inflate under CPU contention while the wall-clock
    of the whole run drops; the timing columns are the only output that
    varies.
    """
    config = config or _DEFAULT_CONFIG
    engine = config.engine
    union = store.union(index, index + 1)
    if engine == "dense":
        union.csr()
    else:
        union.out_index()
    stats = union.stats()
    stopwatch = StopwatchSeries()
    trivial_interner = ColorInterner()
    stopwatch.measure(
        "trivial",
        index + 1,
        lambda: trivial_partition(union, trivial_interner, engine=engine),
    )
    hybrid_interner = ColorInterner()
    hybrid = stopwatch.measure(
        "hybrid",
        index + 1,
        lambda: hybrid_partition(union, hybrid_interner, engine=engine),
    )
    stopwatch.measure(
        "overlap",
        index + 1,
        lambda: overlap_partition(
            union, theta=config.theta, interner=hybrid_interner, base=hybrid,
            engine=engine,
        ),
    )
    return {
        "pair": f"{index + 1}->{index + 2}",
        "nodes": stats.num_nodes,
        "triples": stats.num_edges,
        "trivial_s": round(stopwatch.get("trivial", index + 1), 4),
        "hybrid_s": round(stopwatch.get("hybrid", index + 1), 4),
        "overlap_s": round(stopwatch.get("overlap", index + 1), 4),
    }
