"""Similarity alignment: σEdit, weighted partitions, enrichment, overlap."""

from ..oplus import (
    OPERATORS,
    OplusOperator,
    oplus,
    oplus_max,
    oplus_probabilistic,
    oplus_sum,
)
from .edit_distance import EditDistance
from .enrichment import (
    WeightedBipartiteGraph,
    component_weights,
    enrich,
    shortest_distances,
)
from .hungarian import matching_with_deletion, solve_assignment
from .overlap import (
    overlap_coefficient,
    overlap_match,
    probe_budget,
    set_difference_distance,
)
from .overlap_alignment import (
    OverlapTrace,
    literal_characterizer,
    literal_distance,
    non_literal_distance,
    out_color_characterizer,
    overlap_partition,
)
from .dense_overlap import AlignmentTracker, dense_overlap_partition
from .predicate_alignment import (
    mediation_index,
    predicate_aware_overlap,
    predicate_profile,
    predominantly_predicates,
    refine_predicates,
)
from .string_distance import (
    bounded_normalized_levenshtein,
    levenshtein,
    levenshtein_banded,
    normalized_levenshtein,
    split_words,
)
from .weighted_refine import (
    DEFAULT_EPSILON,
    propagate,
    reweight,
    weighted_refine_fixpoint,
)

__all__ = [
    "AlignmentTracker",
    "DEFAULT_EPSILON",
    "EditDistance",
    "dense_overlap_partition",
    "mediation_index",
    "predicate_aware_overlap",
    "predicate_profile",
    "predominantly_predicates",
    "refine_predicates",
    "OPERATORS",
    "OplusOperator",
    "OverlapTrace",
    "WeightedBipartiteGraph",
    "bounded_normalized_levenshtein",
    "component_weights",
    "enrich",
    "levenshtein",
    "levenshtein_banded",
    "literal_characterizer",
    "literal_distance",
    "matching_with_deletion",
    "non_literal_distance",
    "normalized_levenshtein",
    "oplus",
    "oplus_max",
    "oplus_probabilistic",
    "oplus_sum",
    "out_color_characterizer",
    "overlap_coefficient",
    "overlap_match",
    "overlap_partition",
    "probe_budget",
    "propagate",
    "reweight",
    "set_difference_distance",
    "shortest_distances",
    "solve_assignment",
    "split_words",
    "weighted_refine_fixpoint",
]
