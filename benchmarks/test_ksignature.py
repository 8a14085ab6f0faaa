"""k-bisimulation benches: Figure-15-style k-sweep + pool gate.

Two acceptance surfaces:

**k-sweep (report-only)** — the paper's Figure 15 plots alignment
quality against refinement effort; the k-bisimulation family makes that
axis explicit, so the sweep times ``kbisim`` at increasing ``k`` over
one scale-free union and records the class-count trajectory.  The
qualitative shape is asserted (class counts are non-decreasing in ``k``
and the converged sweep point matches the full-bisimulation fixpoint);
the timings themselves are recorded, never gated — a k-sweep on a
1-CPU box is a trajectory seed, not a race.

**Cell-matrix pool gate** — the all-pairs ``kbisim`` count matrix
(:func:`~repro.experiments.cells.kbisim_counts_cell`) through the
store pool: byte-identical rows at jobs ∈ {1, 2, 4}, no
leaked ``/dev/shm`` segments, and — on machines with ≥ 4 usable CPUs,
where the workload is sized so the serial matrix takes ≥ 5 s — jobs=4
is ≥ 2× over jobs=1.  On smaller machines a small matrix is run and the
ratio is recorded (with the ``cpus`` context field) but not gated.

A summary table is written to ``results/ksignature_sweep.txt`` and
every measurement is appended to ``results/bench.json`` with the
additive ``k``/``jobs`` keys.
"""

from __future__ import annotations

import json
import time

from repro.align import AlignConfig
from repro.core.bisimulation import bisimulation_partition
from repro.core.ksignature import SignatureStats, ksignature_partition
from repro.experiments.cells import kbisim_counts_cell
from repro.experiments.parallel import run_store_cells, usable_cpus
from repro.experiments.shm import list_segments
from repro.experiments.store import GENERATOR_FAMILIES, VersionStore
from repro.partition.interner import ColorInterner

from .conftest import record_bench

#: The sweep workload: one scale-free union big enough that per-round
#: cost is visible in the timings, small enough that the full sweep
#: stays a few seconds on one CPU.
SWEEP_FAMILY = "synthetic_scale_free"
SWEEP_SCALE, SWEEP_SEED = 60.0, 300
SWEEP_KS = (0, 1, 2, 4, 8, 16)

#: The cell-matrix gate workload (all-pairs kbisim counts).  The large
#: shape is only run where the jobs=4 gate is active; 1-CPU boxes run
#: the small shape and record the ratio without gating it.  The gate
#: shape's serial matrix took 6.4-7.9 s on a 2-vCPU x86 box (Python
#: 3.11, NumPy 2.4), above the 5 s floor that leaves the pool room to
#: pay for its start-up.
MATRIX_FAMILY = "synthetic_scale_free"
MATRIX_SEED = 300
GATE_SCALE, GATE_VERSIONS = 70.0, 10
RECORD_SCALE, RECORD_VERSIONS = 2.0, 6
MATRIX_K = 8
MIN_SERIAL_SECONDS = 5.0
REQUIRED_POOL_SPEEDUP = 2.0
POOL_GATE_CPUS = 4

REPORT_PATH = "ksignature_sweep.txt"


def _sweep_union():
    generator = GENERATOR_FAMILIES[SWEEP_FAMILY].shared(
        scale=SWEEP_SCALE, seed=SWEEP_SEED, versions=2
    )
    store = VersionStore(generator)
    store.prepare()
    union = store.union(0, 1)
    union.csr()  # built before the timed sweep, as every k reads it
    return union


def test_ksignature_k_sweep(results_dir):
    """Figure-15-style effort axis: classes(k) is non-decreasing and the
    converged point reproduces the full-bisimulation fixpoint."""
    union = _sweep_union()

    rows = []
    for k in SWEEP_KS:
        stats = SignatureStats()
        started = time.perf_counter()
        partition = ksignature_partition(
            union, ColorInterner(), k=k, engine="dense", stats=stats
        )
        seconds = time.perf_counter() - started
        rows.append((k, seconds, stats.rounds, stats.converged, partition))

    # Qualitative shape: deeper sweeps only ever split classes.
    class_counts = [len(partition.classes()) for *_, partition in rows]
    assert class_counts == sorted(class_counts)
    # The converged tail of the sweep *is* the fixpoint.
    final_k, _, _, converged, final_partition = rows[-1]
    assert converged, f"sweep did not converge by k={final_k}"
    assert final_partition.equivalent_to(bisimulation_partition(union))

    lines = [
        "k-signature sweep on one scale-free union "
        f"({SWEEP_FAMILY} @ scale {SWEEP_SCALE}, {union.num_nodes} nodes)",
        "",
        f"{'k':>4} {'seconds':>9} {'rounds':>7} {'classes':>8} {'converged':>10}",
    ]
    for (k, seconds, rounds, converged, _), classes in zip(rows, class_counts):
        lines.append(
            f"{k:>4} {seconds:>9.3f} {rounds:>7} {classes:>8} {str(converged):>10}"
        )
        record_bench(f"ksignature/sweep_k{k}", seconds, jobs=1, k=k)

    report = "\n".join(lines) + "\n"
    (results_dir / REPORT_PATH).write_text(report, encoding="utf-8")
    print()
    print(report)


def _fresh_matrix_store(scale: float, versions: int) -> VersionStore:
    generator = GENERATOR_FAMILIES[MATRIX_FAMILY].shared(
        scale=scale, seed=MATRIX_SEED, versions=versions
    )
    store = VersionStore(generator)
    store.prepare()
    return store


def _matrix_measure(scale: float, versions: int, jobs: int) -> tuple[float, list]:
    pairs = [
        (source, target)
        for source in range(versions)
        for target in range(source, versions)
    ]
    store = _fresh_matrix_store(scale, versions)
    config = AlignConfig(method="kbisim", engine="dense", k=MATRIX_K)
    started = time.perf_counter()
    rows = run_store_cells(
        store, kbisim_counts_cell, pairs,
        jobs=jobs, config=config, force=jobs > 1,
    )
    return time.perf_counter() - started, rows


def test_kbisim_matrix_pool_gate(results_dir):
    """All-pairs kbisim counts through the store pool: identical rows at
    jobs ∈ {1, 2, 4}, no leaked segments, ≥ 2× at jobs=4 on ≥ 4 CPUs."""
    cpus = usable_cpus()
    gate_active = cpus >= POOL_GATE_CPUS
    scale, versions = (
        (GATE_SCALE, GATE_VERSIONS) if gate_active
        else (RECORD_SCALE, RECORD_VERSIONS)
    )

    seconds: dict[int, float] = {}
    results: dict[int, list] = {}
    for jobs in (1, 2, 4):
        seconds[jobs], results[jobs] = _matrix_measure(scale, versions, jobs)

    serial_blob = json.dumps(results[1], sort_keys=True)
    for jobs in (2, 4):
        assert json.dumps(results[jobs], sort_keys=True) == serial_blob, (
            f"jobs={jobs} kbisim matrix differs from serial"
        )
    leaked = list_segments()
    assert leaked == [], f"leaked shm segments: {leaked}"

    speedup4 = seconds[1] / seconds[4]
    if gate_active and speedup4 < REQUIRED_POOL_SPEEDUP:
        # One noisy measurement should not go red: best-of-3 re-measure.
        for _ in range(2):
            seconds[1] = min(seconds[1], _matrix_measure(scale, versions, 1)[0])
            seconds[4] = min(seconds[4], _matrix_measure(scale, versions, 4)[0])
        speedup4 = seconds[1] / seconds[4]

    lines = [
        "",
        "All-pairs kbisim count matrix through the store pool "
        f"({MATRIX_FAMILY} @ scale {scale}, {versions}x{versions} matrix, "
        f"k={MATRIX_K})",
        "",
        f"{'path':>24} {'seconds':>9} {'speedup':>8}",
        f"{'store, jobs=1':>24} {seconds[1]:>9.3f} {'1.00':>8}",
        f"{'store, jobs=2':>24} {seconds[2]:>9.3f} "
        f"{seconds[1] / seconds[2]:>8.2f}",
        f"{'store, jobs=4':>24} {seconds[4]:>9.3f} {speedup4:>8.2f}",
        "",
        f"usable cpus: {cpus}",
        f"serial floor (>= {MIN_SERIAL_SECONDS:.0f}s): "
        f"{'met' if seconds[1] >= MIN_SERIAL_SECONDS else 'NOT met'} "
        f"({seconds[1]:.1f}s)",
        f"jobs=4 gate (>= {REQUIRED_POOL_SPEEDUP}x): "
        + (
            "ACTIVE"
            if gate_active
            else f"recorded only ({cpus} < {POOL_GATE_CPUS} usable CPUs — "
            "four workers cannot beat one on this machine)"
        ),
        "results byte-identical at jobs=1/2/4: True",
        "leaked shm segments: none",
    ]
    report = "\n".join(lines) + "\n"
    path = results_dir / REPORT_PATH
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(report)
    print()
    print(report)

    record_bench(
        "ksignature/matrix_jobs1", seconds[1], speedup=1.0,
        jobs=1, cpus=cpus, k=MATRIX_K,
    )
    for jobs in (2, 4):
        record_bench(
            f"ksignature/matrix_jobs{jobs}", seconds[jobs],
            speedup=seconds[1] / seconds[jobs],
            baseline_seconds=seconds[1], jobs=jobs, cpus=cpus, k=MATRIX_K,
        )

    if gate_active:
        assert speedup4 >= REQUIRED_POOL_SPEEDUP, (
            f"jobs=4 gives {speedup4:.2f}x over jobs=1 on {cpus} CPUs, "
            f"below the required {REQUIRED_POOL_SPEEDUP}x"
        )
