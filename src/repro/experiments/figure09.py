"""Figure 9 — EFO dataset versions: node and edge counts.

The paper reports, for ten EFO versions, the edge counts and the
literal/URI/blank node counts, observing that literals exceed 75 % of all
nodes, URIs sit near 10 % and blank nodes fluctuate between 7 % and 15 %
because of duplicated bisimilar blanks (normalized blank counts grow
steadily instead).
"""

from __future__ import annotations

from ..align.config import AlignConfig
from ..evaluation.reporting import render_table
from .base import ExperimentResult
from .cells import version_kinds_cell
from .parallel import run_store_cells
from .store import VersionStore

FIGURE = "Figure 9"
TITLE = "EFO dataset versions (node/edge counts by kind)"


def run(
    scale: float = 0.5, seed: int = 234, versions: int = 10, config: AlignConfig | None = None
) -> ExperimentResult:
    store = VersionStore.shared("efo", scale=scale, seed=seed, versions=versions)
    store.prepare()
    rows = run_store_cells(
        store, version_kinds_cell, range(versions),
        jobs=(config.jobs if config else 1), config=config,
    )
    rendered = render_table(
        [
            "version",
            "edges",
            "literals",
            "uris",
            "blanks",
            "norm.blanks",
            "lit%",
            "blank%",
        ],
        [
            [
                row["version"],
                row["edges"],
                row["literals"],
                row["uris"],
                row["blanks"],
                row["normalized_blanks"],
                row["literal_fraction"],
                row["blank_fraction"],
            ]
            for row in rows
        ],
    )
    return ExperimentResult(
        figure=FIGURE,
        title=TITLE,
        parameters={"scale": scale, "seed": seed, "versions": versions},
        rows=rows,
        rendered=rendered,
        notes=[
            "paper: literals > 75% of nodes, URIs ~10%, blanks fluctuate 7-15%",
            "paper: normalized (bisimilar-deduplicated) blank counts grow steadily",
        ],
    )


def check_shape(result: ExperimentResult) -> list[str]:
    violations: list[str] = []
    rows = result.rows
    for row in rows:
        if row["literal_fraction"] <= 0.70:
            violations.append(
                f"v{row['version']}: literal fraction {row['literal_fraction']} ≤ 0.70"
            )
        if not 0.05 <= row["blank_fraction"] <= 0.20:
            violations.append(
                f"v{row['version']}: blank fraction {row['blank_fraction']} outside [0.05, 0.20]"
            )
    if rows[-1]["edges"] <= rows[0]["edges"]:
        violations.append("edge counts do not grow from v1 to v10")
    blank_fractions = [row["blank_fraction"] for row in rows]
    if max(blank_fractions) - min(blank_fractions) < 0.01:
        violations.append("blank fractions do not fluctuate")
    normalized = [row["normalized_blanks"] for row in rows]
    declines = sum(1 for a, b in zip(normalized, normalized[1:]) if b < a)
    if declines > len(normalized) // 3:
        violations.append("normalized blank counts do not grow steadily")
    return violations
