"""Parallel experiment execution: determinism and sharding semantics.

The contract of :mod:`repro.experiments.parallel` is that ``jobs > 1``
changes wall-clock time only: results (matrices, figure rows, rendered
reports, traces) are byte-identical to the serial run, because cells are
pure functions of prepared per-version artifacts and the merge order is
the submission order.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.align import AlignConfig
from repro.core.deblank import deblank_partition
from repro.datasets.efo import EFOGenerator
from repro.datasets.synthetic import SCENARIOS, SyntheticGenerator
from repro.evaluation.matrices import pairwise_matrix
from repro.evaluation.metrics import aligned_edge_ratio
from repro.experiments import (
    figure09,
    figure10,
    figure11,
    figure12,
    figure13,
    figure14,
    figure15,
    figure16,
    parallel,
)
from repro.experiments.cells import edge_ratio_cell, method_counts_cell
from repro.experiments.parallel import (
    effective_jobs,
    fork_available,
    pool_overhead,
    run_store_cells,
)
from repro.experiments.shm import list_segments
from repro.experiments.store import VersionStore
from repro.model.union import CombinedGraph, combine
from repro.partition.interner import ColorInterner
from repro.similarity.overlap_alignment import OverlapTrace, overlap_partition

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="parallel pool needs the fork start method"
)
needs_spawn = pytest.mark.skipif(
    "spawn" not in multiprocessing.get_all_start_methods(),
    reason="spawn start method unavailable",
)


# Module-level cells: the pool ships cells by reference.
def _failing_cell(store, config, item: int) -> int:
    raise ValueError(f"cell {item}")


def _square_cell(store, config, item: int) -> int:
    return item * item


def _triple_cell(store, config, item: int) -> int:
    return item * 3


def _deblank_ratio(union: CombinedGraph, engine: str) -> float:
    partition = deblank_partition(union, ColorInterner(), engine=engine)
    return aligned_edge_ratio(union, partition)


def _deblank_ratio_cell(store, config, pair: tuple[int, int]) -> float:
    union = combine(store.graph(pair[0]), store.graph(pair[1]))
    return _deblank_ratio(union, config.engine)


def _overlap_trace_cell(store, config, pair: tuple[int, int]) -> tuple:
    union = CombinedGraph(store.graph(pair[0]), store.graph(pair[1]))
    trace = OverlapTrace()
    weighted = overlap_partition(
        union, theta=0.65, interner=ColorInterner(), trace=trace,
        engine=config.engine,
    )
    return (
        trace.literal_matches,
        tuple(trace.rounds),
        trace.stopped_by_round_limit,
        tuple(stats.rounds for stats in trace.weight_stats),
        weighted.partition.num_classes,
    )


class TestOverheadScheduling:
    """effective_jobs refuses to shard below the measured pool overhead."""

    @pytest.fixture(autouse=True)
    def four_cpus_and_pinned_overhead(self, monkeypatch):
        # Pin both sides of the economics so the decisions are exact:
        # the machine "has" 4 CPUs and a pool "costs" 0.5 s to start.
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 4)
        monkeypatch.setattr(parallel, "_MEASURED_OVERHEAD", 0.5)

    def test_refuses_when_saving_below_overhead(self):
        # 10 cells x 1 ms x (1 - 1/4) = 7.5 ms of projected saving
        # against 500 ms of overhead: not worth a pool.
        assert effective_jobs(4, cells=10, est_cell_seconds=0.001) == 1

    def test_shards_when_saving_beats_overhead(self):
        # 10 cells x 1 s x (1 - 1/4) = 7.5 s >> 0.5 s: shard away.
        assert effective_jobs(4, cells=10, est_cell_seconds=1.0) == 4

    def test_breakeven_is_refused(self):
        # Saving exactly equal to the overhead still refuses (<=).
        est = 0.5 / (10 * (1 - 1 / 4))
        assert effective_jobs(4, cells=10, est_cell_seconds=est) == 1

    def test_single_usable_cpu_refuses_estimated_work(self, monkeypatch):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
        assert effective_jobs(4, cells=100, est_cell_seconds=10.0) == 1

    def test_no_estimate_keeps_plain_clamping(self):
        # Without an estimate the historical clamp-only behavior holds.
        assert effective_jobs(4, cells=10) == 4

    def test_clamps_to_cells(self):
        assert effective_jobs(1, cells=10) == 1
        assert effective_jobs(8, cells=3) == 3
        assert effective_jobs(None, cells=1) == 1
        assert effective_jobs(0, cells=2) <= 2

    def test_pool_overhead_is_measured_once(self, monkeypatch):
        monkeypatch.setattr(parallel, "_MEASURED_OVERHEAD", None)
        first = pool_overhead()
        assert first > 0.0
        assert pool_overhead() == first  # cached, not re-measured


class TestRunStoreCells:
    """The pool path: serial/fork/spawn parity and cleanup."""

    @pytest.fixture(scope="class")
    def store(self):
        store = VersionStore(SyntheticGenerator.shared(SCENARIOS["small_er"]))
        store.prepare(summaries=True, tokens=("trivial", "deblank"))
        return store

    @pytest.fixture(scope="class")
    def pairs(self, store):
        return [
            (source, target)
            for source in range(store.versions)
            for target in range(source, store.versions)
        ]

    def test_serial_path(self, store, pairs):
        rows = run_store_cells(store, edge_ratio_cell, pairs, jobs=1)
        assert rows == [edge_ratio_cell(store, None, pair) for pair in pairs]

    def test_serial_matches_map(self, store):
        assert run_store_cells(store, _square_cell, range(6), jobs=1) == [
            0, 1, 4, 9, 16, 25,
        ]

    @needs_fork
    def test_parallel_preserves_order(self, store):
        items = list(range(20))
        pooled = run_store_cells(store, _triple_cell, items, jobs=4, force=True)
        assert pooled == [x * 3 for x in items]
        assert list_segments() == []

    def test_empty_items(self, store):
        assert run_store_cells(store, edge_ratio_cell, [], jobs=4) == []

    @needs_fork
    def test_cell_exceptions_propagate(self, store):
        with pytest.raises(ValueError):
            run_store_cells(store, _failing_cell, range(4), jobs=2, force=True)
        assert list_segments() == []

    @needs_fork
    def test_fork_pool_matches_serial(self, store, pairs):
        serial = run_store_cells(store, edge_ratio_cell, pairs, jobs=1)
        pooled = run_store_cells(
            store, edge_ratio_cell, pairs, jobs=2, context="fork", force=True
        )
        assert pooled == serial
        assert list_segments() == []

    @needs_fork
    def test_workers_build_tokens_the_parent_did_not(self, pairs):
        """Only the deblank tokens are prepared; every worker builds its
        trivial tokens itself.  Labels are their own tokens, so tokens from
        different processes compare equal and pooled rows match serial."""

        def deblank_only() -> VersionStore:
            store = VersionStore(SyntheticGenerator.shared(SCENARIOS["small_er"]))
            store.prepare(summaries=True, tokens=("deblank",))
            return store

        serial = run_store_cells(deblank_only(), edge_ratio_cell, pairs, jobs=1)
        pooled = run_store_cells(
            deblank_only(), edge_ratio_cell, pairs, jobs=2, force=True
        )
        assert pooled == serial
        assert list_segments() == []

    @needs_spawn
    def test_spawn_pool_matches_serial(self, store, pairs):
        """The no-fork (Windows-style) fallback: unpickle under spawn."""
        config = AlignConfig(theta=0.65)
        serial = run_store_cells(
            store, method_counts_cell, pairs[:4], jobs=1, config=config
        )
        pooled = run_store_cells(
            store, method_counts_cell, pairs[:4],
            jobs=2, config=config, context="spawn", force=True,
        )
        assert pooled == serial
        assert list_segments() == []

    @needs_fork
    def test_autotune_refuses_tiny_workload(self, store, pairs, monkeypatch):
        # With a realistic overhead and millisecond cells, the autotuned
        # path must fall back to serial rather than fork at a loss.
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 4)
        monkeypatch.setattr(parallel, "_MEASURED_OVERHEAD", 10.0)
        calls: list = []
        monkeypatch.setattr(
            parallel, "SharedStorePool",
            lambda *a, **k: calls.append(1) or (_ for _ in ()).throw(
                AssertionError("pool started despite refusal")
            ),
        )
        rows = run_store_cells(store, edge_ratio_cell, pairs, jobs=4)
        assert rows == [edge_ratio_cell(store, None, pair) for pair in pairs]
        assert calls == []


@needs_fork
class TestPairwiseMatrixDeterminism:
    """Version-pair matrices computed in the pool match the serial ones."""

    @pytest.fixture(scope="class")
    def store(self):
        return VersionStore(EFOGenerator(scale=0.12, seed=234, versions=4))

    @pytest.mark.parametrize("engine", ["reference", "dense"])
    def test_jobs4_byte_identical_to_serial(self, store, engine):
        serial = pairwise_matrix(
            store.graphs(), lambda union: _deblank_ratio(union, engine),
            symmetric_fill=True,
        )
        pairs = [pair for pair in serial.values if pair[0] <= pair[1]]
        pooled = dict(zip(pairs, run_store_cells(
            store, _deblank_ratio_cell, pairs,
            jobs=4, config=AlignConfig(engine=engine), force=True,
        )))
        for source, target in list(pooled):
            pooled[(target, source)] = pooled[(source, target)]
        assert pooled == serial.values
        assert repr(sorted(pooled.items())) == repr(sorted(serial.values.items()))

    @pytest.mark.parametrize("engine", ["reference", "dense"])
    def test_overlap_traces_identical(self, store, engine):
        """The full Algorithm 2 diagnostics match serial, cell for cell."""
        pairs = [(0, 1), (1, 2), (2, 3)]
        config = AlignConfig(engine=engine)
        pooled = run_store_cells(
            store, _overlap_trace_cell, pairs, jobs=3, config=config, force=True,
        )
        assert pooled == [_overlap_trace_cell(store, config, pair) for pair in pairs]


#: ``figure -> (module, run kwargs)``: every figure that fans cells out.
_POOLED_FIGURES = {
    "figure09": (figure09, {"scale": 0.12, "versions": 4}),
    "figure10": (figure10, {"scale": 0.12, "versions": 4}),
    "figure11": (figure11, {"scale": 0.12, "versions": 4}),
    "figure12": (figure12, {"scale": 0.2, "versions": 4}),
    "figure13": (figure13, {"scale": 0.2, "versions": 4}),
    "figure14": (figure14, {"scale": 0.2, "versions": 4}),
    "figure15": (figure15, {"scale": 0.2, "versions": 4, "source_version": 2}),
    "figure16": (figure16, {"scale": 0.2, "versions": 4}),
}


def _untimed(rows: list[dict]) -> list[dict]:
    """Figure 16's rows without its wall-clock ``*_s`` columns."""
    return [
        {key: value for key, value in row.items() if not key.endswith("_s")}
        for row in rows
    ]


@needs_fork
class TestFigureDeterminism:
    """Pooled figure runs reproduce the serial rows, and a pool really runs."""

    @pytest.fixture(autouse=True)
    def pools(self, monkeypatch):
        # Pin both sides of the economics so the autotune always agrees
        # to shard: the machine "has" 4 CPUs and a pool costs nothing.
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 4)
        monkeypatch.setattr(parallel, "_MEASURED_OVERHEAD", 0.0)
        started: list = []

        class CountingPool(parallel.SharedStorePool):
            def __init__(self, *args, **kwargs):
                started.append(kwargs.get("jobs"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(parallel, "SharedStorePool", CountingPool)
        yield started
        assert list_segments() == []

    @pytest.mark.parametrize(
        "name, context",
        [(name, "fork") for name in _POOLED_FIGURES]
        + [pytest.param("figure14", "spawn", marks=needs_spawn)],
    )
    def test_parallel_identical(self, name, context, pools, monkeypatch):
        module, kwargs = _POOLED_FIGURES[name]
        serial = module.run(**kwargs, config=AlignConfig(jobs=1))
        assert pools == []
        if context == "spawn":
            monkeypatch.setattr(parallel, "fork_available", lambda: False)
        pooled = module.run(**kwargs, config=AlignConfig(jobs=2))
        assert pools, f"{name} never started a pool at jobs=2"
        if name == "figure16":
            assert _untimed(pooled.rows) == _untimed(serial.rows)
        else:
            assert pooled.rows == serial.rows
            assert pooled.render() == serial.render()

    def test_figure13_dense_parallel_identical(self, pools):
        dense = AlignConfig(engine="dense")
        serial = figure13.run(scale=0.2, versions=4, config=dense.evolve(jobs=1))
        parallel_run = figure13.run(scale=0.2, versions=4, config=dense.evolve(jobs=2))
        assert pools
        assert parallel_run.rows == serial.rows

    def test_jobs_not_in_report_parameters(self, pools):
        """`jobs` must never leak into reports — it would break identity."""
        result = figure10.run(scale=0.12, versions=4, config=AlignConfig(jobs=2))
        assert pools
        assert "jobs" not in result.parameters
