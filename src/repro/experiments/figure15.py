"""Figure 15 — Overlap threshold sweep on GtoPdb versions 3→4.

The θ parameter trades recall for precision: lowering it reduces missing
matches but admits more false and inclusive ones.  The paper reports the
four precision categories for θ ∈ {0.35, 0.45, …, 0.95} on the hardest
pair (versions 3→4) and finds the exact matches peak at θ = 0.65.
"""

from __future__ import annotations

from ..align.config import AlignConfig
from ..evaluation.reporting import render_stacked_fractions
from .base import ExperimentResult
from .cells import theta_precision_cell
from .parallel import run_store_cells
from .store import VersionStore

FIGURE = "Figure 15"
TITLE = "Overlap alignment between versions 3 and 4 (GtoPdb) per threshold θ"

CATEGORIES = ("exact", "inclusive", "false", "missing")
DEFAULT_THETAS = (0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95)


def run(
    scale: float = 0.5,
    seed: int = 2016,
    versions: int = 10,
    thetas: tuple[float, ...] = DEFAULT_THETAS,
    source_version: int = 3,
    probe: str = "safe",
    config: AlignConfig | None = None,
) -> ExperimentResult:
    # The probe rule is part of this figure's identity (see the notes), so
    # it stays a figure parameter and is pinned onto the incoming config;
    # the sweep then evolves one config per theta.
    config = (config or AlignConfig()).evolve(probe=probe)
    store = VersionStore.shared("gtopdb", scale=scale, seed=seed, versions=versions)
    pair = (source_version - 1, source_version)
    store.prepare(versions=pair, summaries=True, csr=config.engine == "dense")
    # Ground truth is generator-derived: warm it here so a spawn pool
    # worker finds it in the pickled store.  The
    # hybrid base is theta-independent and memoized per process; each
    # theta clones its interner.
    store.ground_truth(*pair)
    rows = run_store_cells(
        store, theta_precision_cell, [(*pair, theta) for theta in thetas],
        jobs=config.jobs, config=config,
    )
    bars = [
        (
            f"θ={row['theta']:.2f}",
            {category: row[category] for category in CATEGORIES},
        )
        for row in rows
    ]
    rendered = render_stacked_fractions(bars, CATEGORIES)
    return ExperimentResult(
        figure=FIGURE,
        title=TITLE,
        parameters={
            "scale": scale,
            "seed": seed,
            "versions": versions,
            "thetas": list(thetas),
            "source_version": source_version,
            "probe": probe,
            "engine": config.engine,
        },
        rows=rows,
        rendered=rendered,
        notes=[
            "paper: lower θ → fewer missing but more false/inclusive matches",
            "paper: exact matches peak at θ = 0.65",
            "probe rule: this sweep uses the recall-complete 'safe' prefix "
            "filter; the paper's ⌈kθ⌉ rule probes fewer objects below θ=0.5, "
            "which inverts the false-match trend (DESIGN.md §5.4)",
        ],
    )


def check_shape(result: ExperimentResult) -> list[str]:
    violations: list[str] = []
    rows = sorted(result.rows, key=lambda row: row["theta"])
    if rows[0]["missing"] > rows[-1]["missing"]:
        violations.append(
            "missing matches do not increase from the lowest to the highest θ"
        )
    if rows[0]["false"] < rows[-1]["false"]:
        violations.append(
            "false matches do not decrease from the lowest to the highest θ"
        )
    # The paper's exact-match curve peaks at θ = 0.65.  At laptop scale the
    # curve is nearly flat below 0.65 (the low-θ false-match penalty needs
    # the full-size dataset), so we pin the robust part of the shape: strict
    # thresholds clearly hurt, and θ = 0.65 is within 2 % of the optimum.
    exact_by_theta = {row["theta"]: row["exact"] for row in rows}
    peak = max(exact_by_theta.values())
    highest_theta = rows[-1]["theta"]
    if exact_by_theta[highest_theta] >= peak:
        violations.append(
            f"exact matches peak at the strictest θ={highest_theta}, "
            "not mid-range"
        )
    if 0.65 in exact_by_theta and exact_by_theta[0.65] < peak * 0.98:
        violations.append(
            f"exact matches at θ=0.65 ({exact_by_theta[0.65]}) are more than "
            f"2% below the peak ({peak})"
        )
    return violations
