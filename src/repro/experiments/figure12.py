"""Figure 12 — GtoPdb dataset versions: node and edge counts.

The relational exports have no blank nodes and slightly more literals than
URIs; edge counts grow roughly fourfold across the ten versions, with the
big insertion burst into version 4 (cf. Figure 13's discussion).
"""

from __future__ import annotations

from ..align.config import AlignConfig
from ..evaluation.reporting import render_table
from .base import ExperimentResult
from .cells import version_counts_cell
from .parallel import run_store_cells
from .store import VersionStore

FIGURE = "Figure 12"
TITLE = "GtoPdb dataset versions (node/edge counts)"


def run(
    scale: float = 0.5, seed: int = 2016, versions: int = 10, config: AlignConfig | None = None
) -> ExperimentResult:
    store = VersionStore.shared("gtopdb", scale=scale, seed=seed, versions=versions)
    store.prepare()
    rows = run_store_cells(
        store, version_counts_cell, range(versions),
        jobs=(config.jobs if config else 1), config=config,
    )
    rendered = render_table(
        ["version", "edges", "uris", "literals", "blanks"],
        [
            [row["version"], row["edges"], row["uris"], row["literals"], row["blanks"]]
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
            "paper: no blank nodes; literals slightly outnumber URIs; edges grow ~4x",
        ],
    )


def check_shape(result: ExperimentResult) -> list[str]:
    violations: list[str] = []
    rows = result.rows
    for row in rows:
        if row["blanks"] != 0:
            violations.append(f"v{row['version']} has blank nodes in a relational export")
        if row["literals"] <= row["uris"]:
            violations.append(
                f"v{row['version']}: literals ({row['literals']}) do not outnumber "
                f"URIs ({row['uris']})"
            )
    if rows[-1]["edges"] < rows[0]["edges"] * 2:
        violations.append("edge counts do not grow substantially across versions")
    return violations
