"""The robustness harness must be free when nothing fails.

One gated measurement: ``robustness/retry_overhead`` is the per-cell
cost of the serial cell runner — which routes every cell through the
fault hooks (``faults.ACTIVE is None`` guards), builds a
:class:`~repro.robustness.RetryPolicy` from the config, and carries the
recovery plumbing — over the bare ``[cell(store, config, item) for item
in items]`` loop it replaces.

Timing two runs of a real EFO matrix against each other cannot isolate
that cost: a real cell takes 15–21 ms, the harness ~0.05 µs, and
run-to-run noise on a small box swings the ratio by ±30 %.  So the
harness is timed on its own — both loops over a module-level no-op cell
on :data:`PROBE_ITEMS` items, interleaved, min of :data:`PROBE_REPEATS`
— and its per-cell cost is gated at ≤ 5 % of the real per-cell time.
The real 8×8 EFO matrix (bare and harnessed, each over a fresh store)
is timed too and recorded report-only.

Every measurement is appended to ``results/bench.json``.
"""

from __future__ import annotations

import json
import time

from repro.align import AlignConfig
from repro.datasets import EFOGenerator
from repro.experiments.cells import edge_ratio_cell
from repro.experiments.parallel import run_store_cells
from repro.experiments.store import VersionStore
from repro.robustness import active_plan

from .conftest import record_bench

SCALE, SEED, VERSIONS = 1.5, 777, 8
MAX_OVERHEAD = 0.05
PROBE_ITEMS = 20_000
PROBE_REPEATS = 7

PAIRS = [
    (source, target)
    for source in range(VERSIONS)
    for target in range(source, VERSIONS)
]


def _noop_cell(store, config, item):
    return item


def _fresh_store() -> VersionStore:
    """A cold store per measurement: every cell recomputes its
    refinement from scratch, so neither path inherits warm caches."""
    generator = EFOGenerator.shared(scale=SCALE, seed=SEED, versions=VERSIONS)
    store = VersionStore(generator)
    store.prepare(summaries=True)
    return store


def _timed(function) -> tuple[float, list]:
    started = time.perf_counter()
    result = function()
    return time.perf_counter() - started, result


def _bare(store, cell, items, config) -> tuple[float, list]:
    return _timed(lambda: [cell(store, config, item) for item in items])


def _guarded(store, cell, items, config) -> tuple[float, list]:
    return _timed(
        lambda: run_store_cells(store, cell, items, jobs=1, config=config)
    )


def _harness_cost_per_cell() -> float:
    """Seconds the serial runner adds per cell, min of interleaved runs."""
    items = list(range(PROBE_ITEMS))
    config = AlignConfig()
    bare = guarded = float("inf")
    for _ in range(PROBE_REPEATS):
        bare = min(bare, _bare(None, _noop_cell, items, config)[0])
        guarded = min(guarded, _guarded(None, _noop_cell, items, config)[0])
    return (guarded - bare) / PROBE_ITEMS


def test_retry_overhead_gate(results_dir):
    """Hooks + retry plumbing cost ≤ 5 % of a real cell on the
    fault-free serial path."""
    assert active_plan() is None, "a fault plan leaked into the bench"

    config = AlignConfig()
    bare_seconds, bare_rows = _bare(_fresh_store(), edge_ratio_cell, PAIRS, config)
    guarded_seconds, guarded_rows = _guarded(
        _fresh_store(), edge_ratio_cell, PAIRS, config
    )
    # Correctness before speed: the harnessed runner returns exactly the
    # bare loop's numbers.
    assert json.dumps(guarded_rows, sort_keys=True) == json.dumps(
        bare_rows, sort_keys=True
    )

    cell_seconds = bare_seconds / len(PAIRS)
    harness_seconds = _harness_cost_per_cell()
    overhead = harness_seconds / cell_seconds

    report = "\n".join(
        [
            "Robustness harness clean-path overhead "
            f"(EFO {VERSIONS}x{VERSIONS} matrix @ scale {SCALE}, serial)",
            "",
            f"{'path':>28} {'seconds':>9}",
            f"{'bare cell loop':>28} {bare_seconds:>9.3f}",
            f"{'run_store_cells (hooks on)':>28} {guarded_seconds:>9.3f}",
            "(report-only: the two runs differ by noise, not harness cost)",
            "",
            f"real cell: {cell_seconds * 1e3:.2f} ms; harness: "
            f"{harness_seconds * 1e6:+.3f} µs/cell (no-op cell, "
            f"{PROBE_ITEMS} items, min of {PROBE_REPEATS})",
            f"overhead: {overhead * 100:+.4f}% of a real cell "
            f"(gate: <= {MAX_OVERHEAD:.0%})",
        ]
    ) + "\n"
    (results_dir / "robustness_overhead.txt").write_text(
        report, encoding="utf-8"
    )
    print()
    print(report)

    record_bench(
        "robustness/retry_overhead", harness_seconds,
        baseline_seconds=cell_seconds,
    )
    record_bench("robustness/efo_matrix_bare", bare_seconds)
    record_bench("robustness/efo_matrix_harnessed", guarded_seconds)

    assert overhead <= MAX_OVERHEAD, (
        f"the serial runner adds {harness_seconds * 1e6:.3f} µs per cell, "
        f"{overhead * 100:.2f}% of a {cell_seconds * 1e3:.2f} ms cell, above "
        f"the {MAX_OVERHEAD:.0%} gate"
    )
