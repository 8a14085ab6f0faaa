"""Dense vs reference overlap pipeline (Algorithm 2) end to end.

PR 1 moved ``BisimRefine*`` onto flat arrays; this bench measures the
follow-up: the whole overlap alignment — weight iteration, alignment
tracking, candidate search — running against one CSR snapshot
(``repro/similarity/dense_overlap.py``).  Both engines run
``Aligner(method="overlap").align`` on random mutation workloads built
from the shared builders of ``repro.datasets.mutations`` (blank
reshuffle + URI renames + literal curation edits + drops/inserts), the
partitions and traces are checked for parity, and the headline ``≥ 2.5×``
end-to-end speedup is enforced on the largest workload.  A summary table
is written to ``results/overlap_dense.txt`` — the numbers quoted in
``docs/performance.md`` come from this file.
"""

from __future__ import annotations

import time

import pytest

from repro.align import Aligner
from repro.datasets.mutations import mutation_workload

#: Mutation-workload scales, smallest to largest; the last entry is "the
#: largest mutation workload" of the acceptance criterion.  The builder
#: is shared with tests/test_overlap_dense.py, so the workload the gate
#: measures is the workload the tier-1 parity tests exercise.
SCALES = (10, 20, 40)

#: Asserted lower bound for the dense overlap pipeline on the largest
#: workload (measured ≈ 4–5×; 2.5× leaves headroom for noisy runners).
REQUIRED_SPEEDUP = 2.5


@pytest.fixture(scope="module")
def workloads():
    return {scale: mutation_workload(2016, scale) for scale in SCALES}


def _run(workload, engine):
    source, target = workload
    return Aligner(method="overlap", engine=engine).align(source, target)


def _best_of_interleaved(first, second, repeats=3):
    """Best-of-N for two rivals, alternating runs so load drift cancels."""
    bests = [float("inf"), float("inf")]
    results = [None, None]
    for _ in range(repeats):
        for position, function in enumerate((first, second)):
            started = time.perf_counter()
            results[position] = function()
            bests[position] = min(bests[position], time.perf_counter() - started)
    return bests[0], results[0], bests[1], results[1]


@pytest.mark.parametrize("engine", ["reference", "dense"])
def test_overlap_engine(benchmark, workloads, engine):
    result = benchmark(lambda: _run(workloads[SCALES[0]], engine))
    assert result.matched_entities() > 0


@pytest.mark.parametrize("scale", SCALES)
def test_overlap_parity(workloads, scale):
    """Equivalent weighted partitions and identical round traces."""
    reference = _run(workloads[scale], "reference")
    dense = _run(workloads[scale], "dense")
    assert dense.partition.equivalent_to(reference.partition)
    assert dense.matched_entities() == reference.matched_entities()
    assert dense.trace.literal_matches == reference.trace.literal_matches
    assert dense.trace.rounds == reference.trace.rounds
    assert (
        dense.trace.stopped_by_round_limit
        == reference.trace.stopped_by_round_limit
    )
    for node in reference.partition:
        assert abs(
            dense.weighted.weight(node) - reference.weighted.weight(node)
        ) <= 1e-6, f"weights diverged at {node!r}"


def test_dense_overlap_speedup_on_largest_workload(workloads, results_dir):
    """Acceptance: ≥ 2.5× end to end on the largest mutation workload."""
    lines = [
        "Dense vs reference overlap pipeline "
        "(Aligner method=overlap, best of 3 interleaved runs)",
        "",
        f"{'scale':>6} {'nodes':>8} {'edges':>8} {'gens':>5} "
        f"{'reference_s':>12} {'dense_s':>9} {'speedup':>8}",
    ]
    speedups = {}
    for scale in SCALES:
        reference_time, reference, dense_time, dense = _best_of_interleaved(
            lambda: _run(workloads[scale], "reference"),
            lambda: _run(workloads[scale], "dense"),
        )
        assert dense.partition.equivalent_to(reference.partition)
        assert dense.trace.rounds == reference.trace.rounds
        speedups[scale] = reference_time / dense_time
        from .conftest import record_bench

        record_bench(
            f"overlap_dense/scale{scale}", dense_time, speedup=speedups[scale]
        )
        union = reference.graph
        lines.append(
            f"{scale:>6} {union.num_nodes:>8} {union.num_edges:>8} "
            f"{reference.trace.total_rounds:>5} {reference_time:>12.4f} "
            f"{dense_time:>9.4f} {speedups[scale]:>8.2f}"
        )
    report = "\n".join(lines) + "\n"
    (results_dir / "overlap_dense.txt").write_text(report, encoding="utf-8")
    print()
    print(report)
    largest = SCALES[-1]
    if speedups[largest] < REQUIRED_SPEEDUP:
        # One slow outlier on a noisy shared runner shouldn't go red:
        # re-measure the gated workload once with more repeats.
        reference_time, _, dense_time, _ = _best_of_interleaved(
            lambda: _run(workloads[largest], "reference"),
            lambda: _run(workloads[largest], "dense"),
            repeats=5,
        )
        speedups[largest] = max(speedups[largest], reference_time / dense_time)
    assert speedups[largest] >= REQUIRED_SPEEDUP, (
        f"dense overlap speedup {speedups[largest]:.2f}x on the largest "
        f"mutation workload (scale {largest}) is below the required "
        f"{REQUIRED_SPEEDUP}x"
    )
