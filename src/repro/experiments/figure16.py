"""Figure 16 — running times on the DBpedia category subset.

Trivial, Hybrid and Overlap are timed on consecutive pairs of six growing
category-graph versions; the paper observes execution times roughly
proportional to input size (with fluctuations from the number of
overlapping nodes), concluding the methods scale.
"""

from __future__ import annotations

from ..align.config import AlignConfig
from ..evaluation.reporting import render_table
from .base import ExperimentResult
from .cells import method_timings_cell
from .parallel import run_store_cells
from .store import VersionStore

FIGURE = "Figure 16"
TITLE = "Evaluation time on a DBpedia category subset"


def run(
    scale: float = 0.5,
    seed: int = 30,
    versions: int = 6,
    config: AlignConfig | None = None,
) -> ExperimentResult:
    config = config or AlignConfig()
    store = VersionStore.shared("dbpedia", scale=scale, seed=seed, versions=versions)
    store.prepare(csr=config.engine == "dense")
    rows = run_store_cells(
        store, method_timings_cell, range(versions - 1),
        jobs=config.jobs, config=config,
    )
    rendered = render_table(
        ["pair", "nodes", "triples", "Trivial (s)", "Hybrid (s)", "Overlap (s)"],
        [
            [
                row["pair"],
                row["nodes"],
                row["triples"],
                row["trivial_s"],
                row["hybrid_s"],
                row["overlap_s"],
            ]
            for row in rows
        ],
        precision=4,
    )
    return ExperimentResult(
        figure=FIGURE,
        title=TITLE,
        parameters={
            "scale": scale,
            "seed": seed,
            "versions": versions,
            "theta": config.theta,
            "engine": config.engine,
        },
        rows=rows,
        rendered=rendered,
        notes=[
            "paper: times grow roughly proportionally to input size",
            "paper: Trivial ≤ Hybrid ≤ Overlap per pair",
        ],
    )


def check_shape(result: ExperimentResult) -> list[str]:
    violations: list[str] = []
    rows = result.rows
    # Method ordering on medians across pairs (single-pair timings at
    # millisecond scale are too noisy for per-row assertions).
    def median(name: str) -> float:
        values = sorted(row[name] for row in rows)
        return values[len(values) // 2]

    if median("trivial_s") > median("hybrid_s") * 1.5:
        violations.append(
            f"trivial slower than 1.5x hybrid on medians "
            f"({median('trivial_s')} vs {median('hybrid_s')})"
        )
    if median("hybrid_s") > median("overlap_s") * 1.5:
        violations.append(
            f"hybrid slower than 1.5x overlap on medians "
            f"({median('hybrid_s')} vs {median('overlap_s')})"
        )
    # Proportionality: the largest input should not be markedly faster than
    # the typical pair on the dominant (overlap) cost.  Comparing against
    # the median (not the single smallest pair) keeps one GC pause or
    # scheduler spike on one measurement from reading as a shape violation.
    biggest = max(rows, key=lambda row: row["triples"])
    if biggest["overlap_s"] < median("overlap_s") * 0.7:
        violations.append(
            "overlap time shrinks as inputs grow "
            f"(median {median('overlap_s')}s -> biggest {biggest['overlap_s']}s)"
        )
    return violations
