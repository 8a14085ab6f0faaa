"""Incremental maintenance vs from-scratch refinement on a version chain.

The workload is the ``mutation_chain`` scenario family at 20 versions,
scaled up (2000 entities, DAG shape, blank-heavy) and evolved to
*archive-realistic* per-step deltas: each version renames/edits/inserts/
deletes a fraction of a percent of the graph, the regime real RDF
archives live in (weekly ontology releases change little) and the regime
incremental maintenance exists for.  The cycle-free operator mix keeps
blank cones acyclic, so every step has canonical colors to carry; the
cyclic fallback is covered by the differential oracle's ``cycle_heavy``
scenario, not timed here.

Two implementations produce every per-version deblanking fixpoint:

* **scratch** — batch refinement per version (``deblank_fixpoint``),
* **maintained** — version 0 canonized (``canonical_fixpoint``), then
  version ``k+1`` maintained from version ``k`` under the generator's
  identity-preserving delta (``maintain_or_batch`` with one chain
  interner — exactly the ``align_chain(incremental=True)`` wiring with
  deltas).

Gate: maintained is ≥ 2× faster per step, after asserting the two
produce equivalent partitions on every version.  Beside it, a work
count: no archive step falls back to batch, every step carries part of
its subset, and the walks cover at most a tenth of the subset nodes.  A
scratch canonization alone beats batch by more than 2×, so only the
count shows that maintenance carries anything.  The scenario's default
*stress* deltas (which rewrite ~half the graph per step, far past the
incremental crossover) are measured report-only for the trajectory.

Measurements are appended to ``results/bench.json`` as
``incremental/chain_*`` entries and a table is written to
``results/incremental.txt``.
"""

from __future__ import annotations

import time

from repro.core.maintain import (
    MaintenanceStats,
    canonical_fixpoint,
    deblank_fixpoint,
    maintain_or_batch,
)
from repro.datasets.synthetic import SCENARIOS, SyntheticGenerator
from repro.partition.interner import ColorInterner

from .conftest import record_bench

VERSIONS = 20

#: The archive-realistic evolution of the pinned scenario: per-step
#: fractions around half a percent, no cycle-creating operators (rewire
#: re-points edges at random targets, merge can absorb an ancestor into
#: its descendant — both would break the DAG shape).
ARCHIVE_CONFIG = SCENARIOS["mutation_chain"].evolve(
    versions=VERSIONS,
    entities=2000,
    shape="dag",
    blank_density=0.6,
    literal_density=0.2,
    rename_fraction=0.01,
    split_fraction=0.002,
    merge_fraction=0.0,
    rewire_fraction=0.0,
    literal_edit_fraction=0.01,
    insert_fraction=0.005,
    delete_fraction=0.003,
)

#: The scenario's own deltas, unchanged apart from the chain length.
STRESS_CONFIG = SCENARIOS["mutation_chain"].evolve(versions=VERSIONS)

REQUIRED_SPEEDUP = 2.0

#: Largest share of the archive chain's subset nodes the walks may cover.
MAX_WALKED_SHARE = 0.1


def _chain(config):
    generator = SyntheticGenerator(config=config)
    graphs = generator.graphs()
    deltas = [generator.version_changes(i) for i in range(len(graphs) - 1)]
    subsets = [graph.blanks() for graph in graphs]
    for graph in graphs:  # reverse index is shared by both paths
        graph.occurrence_index()
    return graphs, deltas, subsets


def _scratch_path(graphs):
    return [deblank_fixpoint(graph) for graph in graphs[1:]]


def _maintained_path(graphs, deltas, subsets, work=None):
    interner = ColorInterner()
    fixpoints = []
    partition = canonical_fixpoint(graphs[0], subsets[0], interner)
    for index, delta in enumerate(deltas):
        stats = MaintenanceStats()
        partition = maintain_or_batch(
            graphs[index + 1],
            partition,
            delta,
            subsets[index + 1],
            interner,
            stats,
        )
        fixpoints.append(partition)
        if work is not None:
            work.append(stats)
    return fixpoints


def _per_step(function, steps):
    started = time.perf_counter()
    result = function()
    return (time.perf_counter() - started) / steps, result


def test_incremental_chain_speedup(results_dir):
    graphs, deltas, subsets = _chain(ARCHIVE_CONFIG)
    steps = len(deltas)

    scratch_step, scratch_parts = _per_step(lambda: _scratch_path(graphs), steps)
    work: list[MaintenanceStats] = []
    maintained_step, maintained_parts = _per_step(
        lambda: _maintained_path(graphs, deltas, subsets, work), steps
    )

    # Correctness before speed: every maintained fixpoint is equivalent
    # (as a partition) to the from-scratch one — the same invariant the
    # differential oracle's incremental axis pins on the small scenarios.
    for maintained, scratch in zip(maintained_parts, scratch_parts):
        assert maintained.equivalent_to(scratch)

    # Work before time: every step carries, and the walks stay local.
    walked = sum(stats.refined for stats in work)
    subset_nodes = sum(len(subset) for subset in subsets[1:])
    assert not any(stats.fell_back for stats in work)
    assert all(stats.kept > 0 for stats in work)
    assert walked <= MAX_WALKED_SHARE * subset_nodes, (
        f"maintenance walked {walked} of {subset_nodes} subset nodes, above "
        f"{MAX_WALKED_SHARE:.0%}"
    )

    speedup = scratch_step / maintained_step
    if speedup < REQUIRED_SPEEDUP:
        # One noisy measurement should not go red: best-of-3 re-measure.
        for _ in range(2):
            scratch_step = min(
                scratch_step, _per_step(lambda: _scratch_path(graphs), steps)[0]
            )
            maintained_step = min(
                maintained_step,
                _per_step(lambda: _maintained_path(graphs, deltas, subsets), steps)[0],
            )
        speedup = scratch_step / maintained_step

    # Report-only: the stress deltas rewrite ~half the graph per step
    # (rename 20%, split/merge 8%, rewire 10%, ...).  The affected
    # closure then covers most of the subset and maintenance degenerates
    # to scratch work plus bookkeeping — below 1x is *expected* here.
    # Recording the ratio keeps the incremental crossover visible in the
    # performance trajectory; gating it would just pin a number the
    # algorithm does not promise.
    stress_graphs, stress_deltas, stress_subsets = _chain(STRESS_CONFIG)
    stress_scratch, _ = _per_step(
        lambda: _scratch_path(stress_graphs), len(stress_deltas)
    )
    stress_maintained, _ = _per_step(
        lambda: _maintained_path(stress_graphs, stress_deltas, stress_subsets),
        len(stress_deltas),
    )

    lines = [
        f"Incremental maintenance vs scratch ({VERSIONS} versions)",
        "",
        f"{'chain':>28} {'nodes':>6} {'ms/step':>9} {'speedup':>8}",
        f"{'archive deltas, scratch':>28} {graphs[-1].num_nodes:>6} "
        f"{scratch_step * 1e3:>9.3f} {'1.00':>8}",
        f"{'archive deltas, maintained':>28} {graphs[-1].num_nodes:>6} "
        f"{maintained_step * 1e3:>9.3f} {speedup:>8.2f}",
        f"{'stress deltas, scratch':>28} {stress_graphs[-1].num_nodes:>6} "
        f"{stress_scratch * 1e3:>9.3f} {'1.00':>8}",
        f"{'stress deltas, maintained':>28} {stress_graphs[-1].num_nodes:>6} "
        f"{stress_maintained * 1e3:>9.3f} "
        f"{stress_scratch / stress_maintained:>8.2f}",
        "",
        "maintained partitions equivalent to scratch: True",
        f"archive subset nodes walked: {walked} of {subset_nodes}",
    ]
    report = "\n".join(lines) + "\n"
    (results_dir / "incremental.txt").write_text(report, encoding="utf-8")
    print()
    print(report)

    record_bench("incremental/chain_archive_scratch", scratch_step, speedup=1.0)
    record_bench(
        "incremental/chain_archive_maintained", maintained_step, speedup=speedup
    )
    record_bench(
        "incremental/chain_stress_maintained",
        stress_maintained,
        speedup=stress_scratch / stress_maintained,
    )

    assert speedup >= REQUIRED_SPEEDUP, (
        f"incremental maintenance gives {speedup:.2f}x per step over "
        f"from-scratch refinement, below the required {REQUIRED_SPEEDUP}x"
    )
