"""Dense (flat-array) partition refinement engine.

The reference engine (:mod:`repro.core.refinement`) computes every recolor
key by walking per-node hash sets and interning nested tuples — per-node
Python dict overhead on the hottest loop of the whole pipeline.  This
module keeps the exact same fixpoint semantics but runs each
``BisimRefine`` round over the flat CSR buffers of
:class:`~repro.model.csr.CSRGraph`:

* node colors live in one flat int64 buffer indexed by dense node id,
* each round gathers the colors over the subset's contiguous
  ``(predicate, object)`` arrays, packing every pair into a single
  ``(p_color << 32) | o_color`` integer,
* a node's new color is the interned ``bytes`` encoding of
  ``(current color, sorted unique pair codes)`` — the same structural key
  as the reference engine's ``("recolor", color, pairs)`` tuple, in a
  fixed-width binary form that hashes in one pass.

The per-round gather/sort/dedupe runs vectorized in NumPy (one
``lexsort`` over the subset's edges) in :func:`recolor_payloads`, the
one builder of these keys, which the k-signature engine
(:mod:`repro.core.ksignature`) hashes instead of interning.  This engine
requires NumPy: :func:`resolve_refine_engine` refuses ``"dense"`` with a
:class:`~repro.exceptions.ConfigError` when it is missing, and
``engine="reference"`` is the dependency-free path.

The keys are interned in the *shared* :class:`ColorInterner`, so dense
colors are valid everywhere reference colors are (alignments, overlap
enrichment, derivation dumps degrade to opaque byte keys).  Because both
key spaces are injective encodings of ``(color, pair set)``, a pipeline
that uses one engine throughout produces partitions *equivalent up to
color renaming* to the other engine's — ``tests/test_engine_parity.py``
asserts this across all four alignment methods and
``benchmarks/test_engine_dense.py`` measures the speedup.

The design follows the flat-array refinement representations of Rau et
al. (*Computing k-Bisimulations for Large Graphs*, 2022) and the
contiguous node-state layout of the I/O-efficient bisimulation line
(Hellings et al., 2011).
"""

from __future__ import annotations

from array import array
from typing import Any, Callable, Collection, Literal as TypingLiteral

from ..exceptions import ConfigError, PartitionError, UnknownEngineError
from ..model.csr import CSRGraph, subset_mask
from ..model.graph import NodeId, TripleGraph
from ..partition.coloring import Partition
from ..partition.interner import ColorInterner
from .refinement import (
    FixpointStats,
    _warn_truncated,
    bisim_refine_fixpoint,
    check_interner_covers,
    reseed_partition,
)

try:  # pragma: no cover - the package imports without NumPy
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Pair codes pack two colors into one 64-bit int; colors must stay below
#: this bound for the packing to be injective (2^31 colors is far beyond
#: what this in-memory engine can hold anyway).
_COLOR_LIMIT = 1 << 31


def dense_refine_fixpoint(
    graph: TripleGraph,
    partition: Partition,
    subset: Collection[NodeId] | None = None,
    interner: ColorInterner | None = None,
    max_rounds: int | None = None,
    stats: FixpointStats | None = None,
) -> Partition:
    """``BisimRefine*_X(λ)`` over flat arrays — drop-in for
    :func:`~repro.core.refinement.bisim_refine_fixpoint`.

    Same contract as the reference engine: *subset* defaults to all nodes,
    the fixpoint is detected through the monotone class count, and when
    *max_rounds* truncates the iteration a warning is logged and
    ``stats.converged`` (pass a :class:`FixpointStats`) is ``False``.
    The arrays are *graph*'s cached :meth:`~repro.model.graph.TripleGraph.csr`
    snapshot, so refinements of one graph share one compaction.
    """
    if interner is None:
        partition, interner = reseed_partition(partition)
    else:
        check_interner_covers(partition, interner)
    if stats is None:
        stats = FixpointStats()
    stats.engine = "dense"
    csr = graph.csr()

    coloring = partition.as_dict()
    colors = csr.gather_colors(coloring)
    subset_ids = subset_mask(csr, subset)
    colors, rounds, converged, classes = refine_colors(
        csr, colors, subset_ids, interner, max_rounds
    )

    stats.rounds = rounds
    stats.converged = converged
    stats.initial_classes = partition.num_classes
    stats.final_classes = classes
    if not converged:
        _warn_truncated(stats, max_rounds)

    # Materialize, preserving any off-graph extras of the input partition
    # (`coloring` is already a private copy).
    coloring.update(zip(csr.nodes, colors))
    return Partition(coloring)


def refine_colors(
    csr: CSRGraph,
    colors: list[int],
    subset_ids: list[int],
    interner: ColorInterner,
    max_rounds: int | None = None,
) -> tuple[list[int], int, bool, int]:
    """One ``BisimRefine*`` fixpoint directly over a dense color buffer.

    The low-level entry point of the dense engine: no :class:`Partition`
    objects are materialized, which lets the Algorithm 2 driver
    (:mod:`repro.similarity.dense_overlap`) run many propagation rounds
    against one shared *csr* snapshot and one mutable color buffer.
    *subset_ids* must be dense ids sorted ascending (see
    :func:`~repro.model.csr.subset_mask`).  Returns
    ``(colors, rounds, converged, classes)`` with the same fixpoint
    semantics as :func:`dense_refine_fixpoint`.
    """
    offsets, predicates, objects = (
        as_int64(buffer) for buffer in csr.subgraph_pairs(subset_ids)
    )
    subset = as_int64(subset_ids)
    colors_np = _np.array(colors, dtype=_np.int64)
    current_classes = _class_count(colors_np)
    rounds = 0
    while True:
        if max_rounds is not None and rounds >= max_rounds:
            return colors_np.tolist(), rounds, False, current_classes
        _check_color_budget(interner)
        # One simultaneous BisimRefine round: keys read `colors_np`, writes
        # go to the `new_colors_np` copy.
        buffer, bounds = recolor_payloads(
            colors_np, subset, offsets, predicates, objects
        )
        new_colors_np = colors_np.copy()
        new_colors_np[subset] = interner.intern_many(
            buffer[start:end] for start, end in zip(bounds, bounds[1:])
        )
        refined_classes = _class_count(new_colors_np)
        rounds += 1
        if refined_classes == current_classes:
            # The round was a pure recoloring: the previous iterate already
            # was the fixpoint (Definition 4).
            return colors_np.tolist(), rounds, True, current_classes
        colors_np = new_colors_np
        current_classes = refined_classes


def _class_count(colors: Any) -> int:
    """The number of distinct colors in an int64 color buffer.

    Colors are small non-negative ints (interner indices), so one boolean
    mark per possible color counts them in O(n + max color), without the
    sort ``numpy.unique`` pays.
    """
    if not len(colors):
        return 0
    seen = _np.zeros(int(colors.max()) + 1, dtype=bool)
    seen[colors] = True
    return int(_np.count_nonzero(seen))


def _check_color_budget(interner: ColorInterner) -> None:
    if len(interner) >= _COLOR_LIMIT:
        raise PartitionError(
            "dense engine exhausted its 2^31 color space; "
            "use the reference engine for this workload"
        )


def as_int64(buffer: Any) -> Any:
    """*buffer* as an int64 ndarray (zero-copy for arrays and views)."""
    if isinstance(buffer, _np.ndarray):
        return buffer
    if isinstance(buffer, (array, bytes, memoryview)):
        return _np.frombuffer(buffer, dtype=_np.int64)
    return _np.asarray(buffer, dtype=_np.int64)


def recolor_payloads(
    colors: Any, subset_ids: Any, offsets: Any, predicates: Any, objects: Any
) -> tuple[bytes, list[int]]:
    """The recolor keys of one ``BisimRefine`` round, in one buffer.

    Every argument is an int64 ndarray (see :func:`as_int64`): *colors*
    is the full dense color buffer, *subset_ids* the nodes to recolor,
    and ``offsets[k]:offsets[k+1]`` slices *predicates*/*objects* to the
    out-pairs of ``subset_ids[k]`` (a shard's offsets need not start at
    0).  Returns ``(buffer, bounds)``: ``buffer[bounds[k]:bounds[k+1]]``
    is node ``k``'s key, the int64 bytes of ``[current color, sorted
    unique (p_color << 32) | o_color codes]``.

    One fancy-indexed gather packs the pair codes, one ``lexsort``
    orders them within each node's segment and a shift-compare drops
    duplicates.  :func:`refine_colors` interns these keys; the
    k-signature engine (:mod:`repro.core.ksignature`) hashes them.
    """
    num = len(subset_ids)
    start = int(offsets[0])
    end = int(offsets[-1])
    # Which subset position each pair belongs to (pairs are segment-grouped).
    owner = _np.repeat(_np.arange(num), _np.diff(offsets))
    codes = (colors[predicates[start:end]] << 32) | colors[objects[start:end]]
    order = _np.lexsort((codes, owner))
    owner_sorted = owner[order]
    codes_sorted = codes[order]
    keep = _np.empty(len(codes_sorted), dtype=bool)
    keep[:1] = True
    keep[1:] = (owner_sorted[1:] != owner_sorted[:-1]) | (
        codes_sorted[1:] != codes_sorted[:-1]
    )
    counts = _np.bincount(owner_sorted[keep], minlength=num)
    # Key layout: one contiguous int64 buffer holding, per subset node,
    # [current color, sorted unique codes...].
    bounds = _np.empty(num + 1, dtype=_np.int64)
    bounds[0] = 0
    _np.cumsum(counts + 1, out=bounds[1:])
    payload = _np.empty(int(bounds[-1]), dtype=_np.int64)
    heads = bounds[:-1]
    payload[heads] = colors[subset_ids]
    body = _np.ones(len(payload), dtype=bool)
    body[heads] = False
    payload[body] = codes_sorted[keep]
    return payload.tobytes(), (bounds * 8).tolist()


#: Engine selector threaded through the partition builders and the API.
RefinementEngine = TypingLiteral["reference", "dense"]

#: Engines ordered as (name -> fixpoint function with the shared contract).
REFINEMENT_ENGINES: dict[str, Callable[..., Partition]] = {
    "reference": bisim_refine_fixpoint,
    "dense": dense_refine_fixpoint,
}


def resolve_refine_engine(engine: str) -> Callable[..., Partition]:
    """The fixpoint function for *engine* (``"reference"``/``"dense"``).

    The one engine check: ``AlignConfig``, the partition builders,
    ``overlap_partition`` and the k-signature runs all call it.  An
    unknown name raises :class:`UnknownEngineError`; ``"dense"`` without
    NumPy raises :class:`ConfigError` (``"reference"`` needs only the
    standard library).
    """
    try:
        refine = REFINEMENT_ENGINES[engine]
    except (KeyError, TypeError):
        raise UnknownEngineError(
            f"unknown refinement engine {engine!r}; "
            f"expected one of {tuple(sorted(REFINEMENT_ENGINES))}"
        ) from None
    if engine == "dense" and _np is None:
        raise ConfigError(
            "engine='dense' requires NumPy (install the 'fast' extra); "
            "engine='reference' runs without it"
        )
    return refine
