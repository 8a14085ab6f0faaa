"""Extensions experiment — measurements beyond the paper's figures.

Quantifies the Section 5.1/6 extensions this reproduction implements:

* **predicate-aware refinement**: precision of predominantly-predicate
  URIs on a GtoPdb pair, before and after the refinement pass;
* **version archives**: compression and subject cohesion on the EFO-like
  and GtoPdb-like version sequences (the paper's closing question).
"""

from __future__ import annotations

from ..archive import VersionArchive
from ..core.hybrid import hybrid_partition
from ..datasets.efo import EFOGenerator
from ..datasets.gtopdb import GtoPdbGenerator
from ..evaluation.precision import classify_node
from ..evaluation.reporting import render_table
from ..exceptions import AlignmentError
from ..model.union import SOURCE
from ..partition.alignment import align
from ..partition.interner import ColorInterner
from ..partition.weighted import zero_weighted
from ..similarity.predicate_alignment import (
    predominantly_predicates,
    refine_predicates,
)
from .base import ExperimentResult

FIGURE = "Extensions"
TITLE = "Predicate-aware refinement and version archives (beyond the paper)"


def _predicate_precision(union, truth, partition) -> dict[str, int]:
    alignment = align(union, partition)
    counts = {"exact": 0, "inclusive": 0, "missing": 0, "false": 0}
    for node in predominantly_predicates(union):
        term = union.original(node)
        if union.side(node) == SOURCE:
            partner_term, lift = truth.partner_of_source(term), union.from_target
        else:
            partner_term, lift = truth.partner_of_target(term), union.from_source
        if partner_term is None:
            category = classify_node(alignment, node, None)
        else:
            try:
                category = classify_node(alignment, node, lift(partner_term))
            except AlignmentError:
                # A partner outside its version is never among the node's
                # partners.
                category = "missing"
        counts[category] += 1
    return counts


def run(scale: float = 0.4, seed: int = 2016, versions: int = 6) -> ExperimentResult:
    rows: list[dict] = []

    # ---- predicate-aware refinement on a GtoPdb pair --------------------
    generator = GtoPdbGenerator.shared(scale=scale, seed=seed, versions=versions)
    union, truth = generator.combined(0, 1)
    interner = ColorInterner()
    hybrid = hybrid_partition(union, interner)
    refined = refine_predicates(union, zero_weighted(hybrid), interner, theta=0.5)
    before = _predicate_precision(union, truth, hybrid)
    after = _predicate_precision(union, truth, refined.partition)
    rows.append({"experiment": "predicates", "stage": "hybrid", **before})
    rows.append({"experiment": "predicates", "stage": "predicate-aware", **after})

    # ---- version archives ------------------------------------------------
    for name, graphs in (
        ("efo", EFOGenerator.shared(scale=scale, versions=versions).graphs()),
        ("gtopdb", generator.graphs()),
    ):
        archive = VersionArchive.build(graphs)
        stats = archive.stats(graphs)
        rows.append(
            {
                "experiment": "archive",
                "dataset": name,
                "naive_triples": stats.naive_triples,
                "archived_triples": stats.archived_triples,
                "compression": round(stats.compression_ratio, 2),
                "subject_cohesion": round(stats.subject_cohesion, 3),
            }
        )

    predicate_rows = [r for r in rows if r["experiment"] == "predicates"]
    archive_rows = [r for r in rows if r["experiment"] == "archive"]
    rendered = "\n".join(
        [
            "Predicate precision (predominantly-predicate URIs):",
            render_table(
                ["stage", "exact", "inclusive", "missing", "false"],
                [
                    [r["stage"], r["exact"], r["inclusive"], r["missing"], r["false"]]
                    for r in predicate_rows
                ],
            ),
            "",
            "Version archives:",
            render_table(
                ["dataset", "naive", "archived", "compression", "subject cohesion"],
                [
                    [
                        r["dataset"],
                        r["naive_triples"],
                        r["archived_triples"],
                        r["compression"],
                        r["subject_cohesion"],
                    ]
                    for r in archive_rows
                ],
            ),
        ]
    )
    return ExperimentResult(
        figure=FIGURE,
        title=TITLE,
        parameters={"scale": scale, "seed": seed, "versions": versions},
        rows=rows,
        rendered=rendered,
        notes=[
            "predicate-aware refinement implements the paper's §5.1 proposal",
            "archives implement the §6 closing question; subject cohesion "
            "confirms 'triples tend to enter and leave with their subject'",
        ],
    )


def check_shape(result: ExperimentResult) -> list[str]:
    violations: list[str] = []
    predicate_rows = {
        r["stage"]: r for r in result.rows if r["experiment"] == "predicates"
    }
    if predicate_rows["predicate-aware"]["exact"] <= predicate_rows["hybrid"]["exact"]:
        violations.append("predicate-aware pass does not improve exact matches")
    for row in (r for r in result.rows if r["experiment"] == "archive"):
        if row["compression"] <= 1.0:
            violations.append(f"archive of {row['dataset']} does not compress")
        if row["subject_cohesion"] <= 0.3:
            violations.append(
                f"subject cohesion of {row['dataset']} too low "
                f"({row['subject_cohesion']})"
            )
    return violations
