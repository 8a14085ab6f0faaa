"""Bisimulation partition refinement and the Trivial/Deblank/Hybrid alignments.

Also home to the Section 6 future-work variants: context-aware
(bidirectional) refinement and keyed refinement.
"""

from .bisimulation import (
    are_bisimilar,
    bisimulation_partition,
    naive_maximal_bisimulation,
    partition_to_relation_agrees,
)
from .context import (
    bidirectional_bisimulation_partition,
    bidirectional_refine_fixpoint,
    context_hybrid_partition,
    in_neighborhood,
    inbound_index,
)
from .deblank import deblank_partition
from .dense import (
    REFINEMENT_ENGINES,
    RefinementEngine,
    dense_refine_fixpoint,
    refine_colors,
    resolve_refine_engine,
)
from .dense_weights import dense_weight_fixpoint
from .hybrid import blanked_partition, hybrid_partition
from .keyed import keyed_hybrid_partition, keyed_refine_fixpoint, predicate_key
from .refinement import (
    FixpointStats,
    WeightFixpointStats,
    bisim_refine_fixpoint,
    bisim_refine_step,
    check_interner_covers,
    recolor_key,
    refinement_trace,
)
from .trivial import trivial_partition

__all__ = [
    "FixpointStats",
    "REFINEMENT_ENGINES",
    "RefinementEngine",
    "WeightFixpointStats",
    "are_bisimilar",
    "bidirectional_bisimulation_partition",
    "bidirectional_refine_fixpoint",
    "bisim_refine_fixpoint",
    "bisim_refine_step",
    "bisimulation_partition",
    "blanked_partition",
    "check_interner_covers",
    "context_hybrid_partition",
    "deblank_partition",
    "dense_refine_fixpoint",
    "dense_weight_fixpoint",
    "hybrid_partition",
    "in_neighborhood",
    "inbound_index",
    "keyed_hybrid_partition",
    "keyed_refine_fixpoint",
    "naive_maximal_bisimulation",
    "partition_to_relation_agrees",
    "predicate_key",
    "recolor_key",
    "refine_colors",
    "refinement_trace",
    "resolve_refine_engine",
    "trivial_partition",
]
