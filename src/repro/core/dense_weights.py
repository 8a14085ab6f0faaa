"""Dense (flat-array) weight iteration for weighted refinement (§4.5).

The reference ``weighted_refine_fixpoint`` Jacobi-iterates the weight
recurrence

    reweight_ω(n) = ⊕ { (ω(p) ⊕ ω(o)) / |out_G(n)| | (p, o) ∈ out_G(n) }

one node at a time over per-node Python sets.  This module runs the same
iteration over the contiguous edge arrays of a
:class:`~repro.model.csr.CSRGraph` snapshot: one gather of the predicate
and object weights, one capped add, one segment sum per sweep.

One identity keeps the vectorization exact for the paper's default
operator ``x ⊕ y = min(x + y, 1)``: all contributions are non-negative,
so the left fold with intermediate capping equals
``min(Σ contributions, 1)`` — once a prefix saturates at 1, every further
``⊕`` leaves it there, and the plain sum can only be larger.  Each sweep
takes its segment sums as differences of one sequential NumPy ``cumsum``
over the subset's edges, so weights match the reference engine within
``ε`` (the additions run in a different order).

Like the rest of the dense engine this path needs NumPy
(:func:`~repro.core.dense.resolve_refine_engine` refuses ``"dense"``
without it).  Non-default ``⊕`` operators (probabilistic, max) take a
fold-per-node path that mirrors the reference ``oplus_sum`` semantics
over the same CSR edge order.
"""

from __future__ import annotations

from typing import Sequence

from ..model.csr import CSRGraph
from ..oplus import OplusOperator, oplus
from .dense import as_int64
from .refinement import WeightFixpointStats, _warn_weight_truncated

try:  # pragma: no cover - the package imports without NumPy
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None


def dense_weight_fixpoint(
    csr: CSRGraph,
    weights: list[float],
    subset_ids: list[int],
    epsilon: float,
    max_rounds: int = 10_000,
    operator: OplusOperator = oplus,
    stats: WeightFixpointStats | None = None,
) -> list[float]:
    """Jacobi-iterate the weights of *subset_ids* until stabilization.

    *weights* is a dense-id-indexed buffer covering every node of *csr*;
    a new list is returned, the input is not mutated.  Sink nodes keep
    their weight (the recurrence leaves them untouched), so they are
    dropped from the iterated subset up front; an empty subset is a
    no-op.  Convergence semantics match the reference engine: sweeps run
    until the largest absolute change falls below *epsilon*, and a
    ``max_rounds`` truncation is logged and reported via ``stats``.
    """
    if stats is None:
        stats = WeightFixpointStats()
    stats.engine = "dense"
    stats.subset_size = len(subset_ids)
    out_offsets = csr.out_offsets
    active = [i for i in subset_ids if out_offsets[i + 1] > out_offsets[i]]
    new_weights = list(weights)
    if not active:
        stats.rounds = 0
        stats.converged = True
        stats.final_delta = 0.0
        return new_weights
    offsets, predicates, objects = csr.subgraph_pairs(active)
    if operator is oplus:
        return _iterate_capped(
            new_weights, active, offsets, predicates, objects,
            epsilon, max_rounds, stats,
        )
    return _iterate_generic(
        new_weights, active, offsets, predicates, objects,
        epsilon, max_rounds, operator, stats,
    )


def _finish(
    stats: WeightFixpointStats, rounds: int, delta: float,
    converged: bool, max_rounds: int,
) -> None:
    stats.rounds = rounds
    stats.final_delta = delta
    stats.converged = converged
    if not converged:
        _warn_weight_truncated(stats, max_rounds)


def _iterate_capped(
    weights: list[float], active: list[int],
    offsets: Sequence[int], predicates: Sequence[int], objects: Sequence[int],
    epsilon: float, max_rounds: int, stats: WeightFixpointStats,
) -> list[float]:
    """Vectorized sweeps for the default capped-addition operator."""
    w = _np.array(weights, dtype=_np.float64)
    sub = as_int64(active)
    preds = as_int64(predicates)
    objs = as_int64(objects)
    bounds = as_int64(offsets)
    starts = bounds[:-1]
    last_edges = bounds[1:] - 1
    has_prefix = starts > 0
    prefix_edges = _np.maximum(starts - 1, 0)
    #: Per-edge normalizer 1/|out(n)| is applied as a division to keep the
    #: arithmetic identical to the reference ``operator(...) / size``.
    sizes = _np.repeat(
        (bounds[1:] - starts).astype(_np.float64), bounds[1:] - starts
    )
    rounds = 0
    delta = 0.0
    converged = False
    while rounds < max_rounds:
        contributions = _np.minimum(w[preds] + w[objs], 1.0) / sizes
        cumulative = _np.cumsum(contributions)
        segment = cumulative[last_edges] - _np.where(
            has_prefix, cumulative[prefix_edges], 0.0
        )
        updated = _np.minimum(segment, 1.0)
        delta = float(_np.max(_np.abs(updated - w[sub])))
        w[sub] = updated
        rounds += 1
        if delta < epsilon:
            converged = True
            break
    _finish(stats, rounds, delta, converged, max_rounds)
    return w.tolist()


def _iterate_generic(
    weights: list[float], active: list[int],
    offsets: Sequence[int], predicates: Sequence[int], objects: Sequence[int],
    epsilon: float, max_rounds: int, operator: OplusOperator,
    stats: WeightFixpointStats,
) -> list[float]:
    """Fold-per-node sweeps for non-default ``⊕`` operators.

    Mirrors the reference ``oplus_sum`` left fold over the CSR edge
    order; used whenever *operator* is not the capped addition (those
    operators do not factor into a plain segment sum).
    """
    w = weights
    num_active = len(active)
    rounds = 0
    delta = 0.0
    converged = False
    while rounds < max_rounds:
        delta = 0.0
        updates = [0.0] * num_active
        for k in range(num_active):
            start, end = offsets[k], offsets[k + 1]
            size = end - start
            total = 0.0
            for e in range(start, end):
                total = operator(
                    total, operator(w[predicates[e]], w[objects[e]]) / size
                )
            updates[k] = total
            change = abs(total - w[active[k]])
            if change > delta:
                delta = change
        for k in range(num_active):
            w[active[k]] = updates[k]
        rounds += 1
        if delta < epsilon:
            converged = True
            break
    _finish(stats, rounds, delta, converged, max_rounds)
    return w
