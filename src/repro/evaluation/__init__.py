"""Evaluation metrics, precision classes, version matrices, timing, reporting."""

from .matrices import (
    VersionMatrix,
    difference_matrix,
    gradient_violations,
    pairwise_matrix,
)
from .metrics import (
    aligned_edge_count,
    aligned_edge_counts,
    aligned_edge_ratio,
    ground_truth_entity_count,
    matched_entity_count,
    recall_against_truth,
    total_entity_count,
)
from .precision import PrecisionCounts, classify_node, precision_counts
from .reporting import (
    format_number,
    render_bars,
    render_heatmap,
    render_matrix,
    render_stacked_fractions,
    render_table,
)
from .timing import StopwatchSeries, TimedResult, time_call

__all__ = [
    "PrecisionCounts",
    "StopwatchSeries",
    "TimedResult",
    "VersionMatrix",
    "aligned_edge_count",
    "aligned_edge_counts",
    "aligned_edge_ratio",
    "classify_node",
    "difference_matrix",
    "format_number",
    "gradient_violations",
    "ground_truth_entity_count",
    "matched_entity_count",
    "pairwise_matrix",
    "precision_counts",
    "recall_against_truth",
    "render_bars",
    "render_heatmap",
    "render_matrix",
    "render_stacked_fractions",
    "render_table",
    "time_call",
    "total_entity_count",
]
