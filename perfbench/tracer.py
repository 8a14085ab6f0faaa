"""Outside-in layer tracer for the traced benchmark run.

The program under test carries no instrumentation of its own, so the
tracer rebinds the public callables of each layer -- module functions,
class methods, registry entries -- to timing wrappers, from the
benchmark's own files.  A name bound by ``from ... import`` is a separate
reference in the importing module, so the table below rebinds it where
it is *looked up* (``repro.align.methods.hybrid_partition``, not only
``repro.core.hybrid.hybrid_partition``).

Self time comes from a span stack: a span's duration minus the time its
child spans cover, so nested layers are never counted twice and the
layer self times add up to at most the traced wall time.

Pool cell functions are never rebound: the shared-memory pool pickles
them by reference, and a wrapper would either fail to pickle or time
work in a worker whose spans never reach the parent.  Spans recorded in
a forked worker are ignored (the wrappers pass straight through when the
process is not the one that installed the tracer), so every
``experiments.*`` number is parent-side.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from typing import Any, Callable


def _count_triples(tracer, args, kwargs, result):
    tracer.add("io.triples", len(result))


def _count_weight_rounds(tracer, args, kwargs, result):
    stats = kwargs.get("stats")
    if stats is not None:
        tracer.add("core.weights_rounds", stats.rounds)


def _count_close_pairs(tracer, args, kwargs, result):
    tracer.add("similarity.match_rounds", 1)
    tracer.add("similarity.close_pairs", len(result))


def _count_refine(tracer, args, kwargs, result):
    tracer.add("core.refine_calls", 1)


def _count_enrich(tracer, args, kwargs, result):
    tracer.add("similarity.enrich_calls", 1)


def _count_pool(tracer, args, kwargs, result):
    tracer.add("experiments.pool.attempts", 1)
    jobs = kwargs.get("jobs", args[2] if len(args) > 2 else 0)
    tracer.add("experiments.pool.workers", jobs)


#: ``(module, attribute path, layer, counter)``.  The attribute path is
#: ``name`` (module function), ``Class.name`` (method, classmethod or
#: ``__init__``) or ``DICT[key]`` (a registry entry).  A counter is
#: ``None`` or a function ``(tracer, args, kwargs, result)`` adding to
#: the named counts of :data:`COUNTS`.
LAYER_TABLE: list[tuple[str, str, str, Any]] = [
    # io: parse files on disk into graphs (the session resolves paths
    # through the package attribute at call time).
    ("repro.io", "load_graph", "io.parse", _count_triples),
    # model: the dict-based union and the CSR snapshots.
    ("repro.model.union", "CombinedGraph.__init__", "model.union", None),
    ("repro.model.csr", "CSRGraph.__init__", "model.csr", None),
    ("repro.model.csr", "CSRGraph.from_blocks", "model.csr", None),
    # core: refinement fixpoints, both engines, and the partition
    # builders around them (their own work is blanking and labelling).
    ("repro.core.dense", "REFINEMENT_ENGINES[reference]", "core.refine", _count_refine),
    ("repro.core.dense", "REFINEMENT_ENGINES[dense]", "core.refine", _count_refine),
    ("repro.core.refinement", "bisim_refine_fixpoint", "core.refine", _count_refine),
    ("repro.similarity.dense_overlap", "refine_colors", "core.refine", _count_refine),
    ("repro.align.methods", "deblank_partition", "core.refine", None),
    ("repro.align.methods", "hybrid_partition", "core.refine", None),
    ("repro.experiments.store", "hybrid_partition", "core.refine", None),
    # core: the weight fixpoint of Propagate.
    ("repro.similarity.dense_overlap", "dense_weight_fixpoint", "core.weights", _count_weight_rounds),
    ("repro.similarity.overlap_alignment", "propagate", "core.weights", _count_weight_rounds),
    # similarity: Enrich, candidate matching, and the Algorithm 2 loop.
    ("repro.similarity.enrichment", "WeightedBipartiteGraph.components", "similarity.enrich", _count_enrich),
    ("repro.similarity.dense_overlap", "component_weights", "similarity.enrich", None),
    ("repro.similarity.overlap_alignment", "enrich", "similarity.enrich", None),
    ("repro.similarity.dense_overlap", "overlap_match", "similarity.match", _count_close_pairs),
    ("repro.similarity.overlap_alignment", "overlap_match", "similarity.match", _count_close_pairs),
    ("repro.align.methods", "overlap_partition", "similarity.loop", None),
    ("repro.experiments.store", "overlap_partition", "similarity.loop", None),
    # partition: building Align(lambda) and its side scans.
    ("repro.partition.alignment", "PartitionAlignment.__init__", "partition.alignment", None),
    ("repro.partition.alignment", "PartitionAlignment.unaligned_source", "partition.alignment", None),
    ("repro.partition.alignment", "PartitionAlignment.unaligned_target", "partition.alignment", None),
    ("repro.partition.alignment", "PartitionAlignment.matched_class_count", "partition.alignment", None),
    # align: the CLI summary line and the JSON report.
    ("repro.align.results", "_ResultOps.matched_entities", "align.report", None),
    ("repro.align.results", "_ResultOps.unaligned_counts", "align.report", None),
    ("repro.align.results", "_ResultOps.report", "align.report", None),
    ("repro.align.report", "AlignmentReport.save", "align.report", None),
    # datasets: the matrix command generates its own version history.
    ("repro.datasets.efo", "EFOGenerator.graph", "datasets.generate", None),
    # experiments: store reuse and the shared-memory pool, parent side.
    ("repro.experiments.store", "VersionStore.shared", "experiments.store", None),
    ("repro.experiments.store", "VersionStore.prepare", "experiments.store", None),
    ("repro.experiments.figure11", "run_store_cells", "experiments.cells", None),
    ("repro.experiments.parallel", "SharedStorePool.__init__", "experiments.pool.publish", _count_pool),
    ("repro.experiments.parallel", "SharedStorePool.map_partial", "experiments.pool.map", None),
    ("repro.experiments.parallel", "SharedStorePool.close", "experiments.pool.close", None),
    ("repro.experiments.base", "ExperimentResult.save", "experiments.report", None),
]

#: Every layer the table times, in table order.
LAYERS = list(dict.fromkeys(layer for _, _, layer, _ in LAYER_TABLE))

#: Every count the table's counters can emit.
COUNTS = [
    "io.triples",
    "core.refine_calls",
    "core.weights_rounds",
    "similarity.enrich_calls",
    "similarity.match_rounds",
    "similarity.close_pairs",
    "experiments.pool.attempts",
    "experiments.pool.workers",
]


class Tracer:
    """Span stack plus per-layer self times and counts, in memory."""

    def __init__(self) -> None:
        self.self_seconds: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.counts: dict[str, int] = dict.fromkeys(COUNTS, 0)
        self._stack: list[list[float]] = []
        self._pid = os.getpid()

    def add(self, name: str, value: int) -> None:
        self.counts[name] += value

    def wrap(self, fn: Callable, layer: str, counter: Callable | None) -> Callable:
        stack = self._stack
        self_seconds = self.self_seconds
        pid = self._pid

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != pid:
                return fn(*args, **kwargs)
            # One frame per live span: [time covered by child spans].
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self_seconds[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every callable of :data:`LAYER_TABLE` to a timing wrapper."""
        for module_name, path, layer, counter in LAYER_TABLE:
            owner: Any = importlib.import_module(module_name)
            if path.endswith("]"):
                table, key = path[:-1].split("[")
                registry = getattr(owner, table)
                registry[key] = self.wrap(registry[key], layer, counter)
                continue
            *classes, name = path.split(".")
            for class_name in classes:
                owner = getattr(owner, class_name)
            raw = vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
            if isinstance(raw, classmethod):
                setattr(owner, name, classmethod(self.wrap(raw.__func__, layer, counter)))
            else:
                setattr(owner, name, self.wrap(raw, layer, counter))

    def summary(self) -> dict[str, float]:
        """``<layer>_s`` self seconds and the counts, one flat dict."""
        values: dict[str, float] = {
            f"{layer}_s": seconds for layer, seconds in self.self_seconds.items()
        }
        values.update(self.counts)
        return values
