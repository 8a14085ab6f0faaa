"""Figure 13 — aligned node counts on consecutive GtoPdb pairs.

For every consecutive version pair the deduplicated aligned-node counts
of Hybrid and Overlap are compared with the ground truth (``GtoPdb``) and
the total node count.  The paper's observations: Overlap tracks the ground
truth much more closely than Hybrid; the Total−GtoPdb gap peaks between
versions 3 and 4 (the insertion burst) and nearly vanishes between 7 and 8
(the quiet release).
"""

from __future__ import annotations

from ..align.config import AlignConfig
from ..evaluation.reporting import render_table
from .base import ExperimentResult
from .cells import entity_counts_cell
from .parallel import run_store_cells
from .store import VersionStore

FIGURE = "Figure 13"
TITLE = "Alignments (GtoPdb): aligned node counts on consecutive version pairs"


def run(
    scale: float = 0.5,
    seed: int = 2016,
    versions: int = 10,
    config: AlignConfig | None = None,
) -> ExperimentResult:
    config = config or AlignConfig()
    store = VersionStore.shared("gtopdb", scale=scale, seed=seed, versions=versions)
    store.prepare(summaries=True, csr=config.engine == "dense")
    # Ground truth is generator-derived: warm it here so a spawn pool
    # worker finds it in the pickled store.
    for index in range(versions - 1):
        store.ground_truth(index, index + 1)

    rows = run_store_cells(
        store, entity_counts_cell, range(versions - 1),
        jobs=config.jobs, config=config,
    )
    rendered = render_table(
        ["pair", "Hybrid", "Overlap", "GtoPdb", "Total"],
        [
            [row["pair"], row["hybrid"], row["overlap"], row["gtopdb"], row["total"]]
            for row in rows
        ],
    )
    return ExperimentResult(
        figure=FIGURE,
        title=TITLE,
        parameters={
            "scale": scale, "seed": seed, "versions": versions,
            "theta": config.theta, "engine": config.engine,
        },
        rows=rows,
        rendered=rendered,
        notes=[
            "paper: Overlap is significantly closer to the ground truth than Hybrid",
            "paper: Total−GtoPdb gap peaks at 3->4 (insertions) and is minute at 7->8",
        ],
    )


def check_shape(result: ExperimentResult) -> list[str]:
    violations: list[str] = []
    rows = result.rows
    closer = sum(
        1
        for row in rows
        if abs(row["overlap"] - row["gtopdb"]) <= abs(row["hybrid"] - row["gtopdb"])
    )
    if closer < len(rows) * 0.75:
        violations.append(
            f"Overlap closer to ground truth on only {closer}/{len(rows)} pairs"
        )
    # Relative change between versions: the Total−GtoPdb gap normalized by
    # Total (absolute gaps grow with the dataset; the paper's v3→v4 burst is
    # the biggest *relative* change and v7→v8 the smallest).
    gaps = {
        row["pair"]: (row["total"] - row["gtopdb"]) / row["total"] for row in rows
    }
    burst_pair = "3->4"
    quiet_pair = "7->8"
    if burst_pair in gaps and gaps[burst_pair] != max(gaps.values()):
        violations.append("the relative change does not peak at the 3->4 burst")
    if quiet_pair in gaps and gaps[quiet_pair] != min(gaps.values()):
        violations.append("the relative change is not smallest at the quiet 7->8 pair")
    for row in rows:
        if row["gtopdb"] > row["total"]:
            violations.append(f"{row['pair']}: ground truth exceeds total nodes")
    return violations
