"""The worker pool's hand-off contract and its cleanup guarantees.

The contract under test (repro.experiments.parallel + VersionStore):

* the pool hands its workers the store itself — under ``fork`` nothing
  is pickled, and no pooled run creates a ``/dev/shm`` segment;
* a pickled store (what a ``spawn`` worker receives) carries the graphs,
  their built CSR blocks (bit-identical, empty graphs and zero-length
  arrays included) and the once-per-version caches, and none of the
  per-pair memos, the backend or the hit counters;
* a worker crashing mid-cell (SIGKILL) surfaces as
  ``WorkerCrashError`` and still leaves ``/dev/shm`` clean;
* under every seeded :class:`FaultPlan` (crash, crash-forever, hang)
  ``run_store_cells`` recovers or degrades to serial with results
  identical to a clean run — and never leaks a segment.
"""

from __future__ import annotations

import os
import pickle
import signal
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.align import AlignConfig
from repro.exceptions import WorkerCrashError
from repro.experiments.cells import edge_ratio_cell
from repro.experiments.parallel import (
    SharedStorePool,
    fork_available,
    run_store_cells,
)
from repro.robustness import FaultPlan, FaultSpec, inject
from repro.experiments.shm import list_segments
from repro.experiments.store import VersionStore
from repro.datasets.synthetic import SCENARIOS, SyntheticGenerator
from repro.model import RDFGraph, blank, lit, uri
from repro.model.graph import TripleGraph

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="the crash test pins the fork start method"
)

PAIRS = [(0, 1), (1, 2), (0, 2)]


@pytest.fixture
def small_graph() -> RDFGraph:
    g = RDFGraph()
    g.add(uri("a"), uri("p"), blank("b1"))
    g.add(uri("a"), uri("q"), lit("x"))
    g.add(blank("b1"), uri("p"), lit("x"))
    return g


class _OneGraph:
    """A one-version history over a hand-built graph."""

    def __init__(self, graph: TripleGraph) -> None:
        self._graph = graph

    def graph(self, index: int) -> TripleGraph:
        return self._graph


def _segments_cell(store, config, item):
    """What a pool worker sees in /dev/shm while its pool is live."""
    return list_segments()


@needs_fork
class TestPoolHandOff:
    def test_fork_pool_pickles_no_graph(self, monkeypatch):
        store = _fault_store()
        serial = run_store_cells(store, edge_ratio_cell, PAIRS, jobs=1)

        def refuse(self):
            raise AssertionError("a version graph was pickled")

        monkeypatch.setattr(TripleGraph, "__getstate__", refuse)
        pooled = run_store_cells(
            store, edge_ratio_cell, PAIRS, jobs=2, context="fork", force=True
        )
        assert pooled == serial

    def test_workers_see_no_segments(self):
        with SharedStorePool(_fault_store(), jobs=2) as pool:
            assert pool.map(_segments_cell, [0, 1]) == [[], []]
        assert list_segments() == []


class TestStorePickle:
    """What a spawn worker receives: ``pickle.loads(pickle.dumps(store))``."""

    def test_rows_match_serial_without_memos(self):
        store = _fault_store()
        serial = run_store_cells(store, edge_ratio_cell, PAIRS, jobs=1)
        store.cell_context(0, 1)
        store.overlap_result(0, 1)
        store.backend = "an archive"
        assert store._unions and store._contexts and store._overlaps

        clone = pickle.loads(pickle.dumps(store))
        assert not (clone._unions or clone._contexts or clone._overlaps)
        assert clone.backend is None
        assert clone.hits == {} and clone.misses == {}
        assert clone.identity == store.identity
        assert clone._summaries.keys() == store._summaries.keys()
        assert clone._edge_tokens == store._edge_tokens
        assert clone._joints == store._joints
        assert clone._split_cache == store._split_cache
        assert all(graph.has_csr for graph in clone.graphs())
        assert run_store_cells(clone, edge_ratio_cell, PAIRS, jobs=1) == serial
        assert "summary" not in clone.misses  # carried, not recomputed

    def _roundtrip(self, graph: TripleGraph) -> None:
        csr = graph.csr()
        store = VersionStore(_OneGraph(graph), versions=1)
        clone = pickle.loads(pickle.dumps(store)).graph(0)
        assert clone.has_csr
        block = clone.csr()
        assert block.nodes == csr.nodes
        assert block.index == csr.index
        assert block.out_offsets.tobytes() == csr.out_offsets.tobytes()
        assert block.out_predicates.tobytes() == csr.out_predicates.tobytes()
        assert block.out_objects.tobytes() == csr.out_objects.tobytes()

    def test_csr_block_bit_identical(self, small_graph):
        self._roundtrip(small_graph)

    def test_csr_block_of_empty_graph(self):
        self._roundtrip(RDFGraph())

    def test_csr_block_of_nodes_without_edges(self):
        # Zero-length pair arrays with a non-empty node table.
        g = RDFGraph()
        g.term(uri("solo"))
        g.term(lit("x"))
        self._roundtrip(g)

    def test_unbuilt_block_stays_unbuilt(self, small_graph):
        store = VersionStore(_OneGraph(small_graph), versions=1)
        assert not pickle.loads(pickle.dumps(store)).graph(0).has_csr


def _crash_cell(store, config, item):
    """A cell that dies the hard way (no Python-level cleanup runs)."""
    os.kill(os.getpid(), signal.SIGKILL)


def _fault_store() -> VersionStore:
    store = VersionStore(SyntheticGenerator.shared(SCENARIOS["small_er"]))
    store.prepare(summaries=True, tokens=("trivial", "deblank"), csr=True)
    return store


@needs_fork
class TestWorkerCrash:
    def test_killed_worker_raises_and_leaks_no_segments(self):
        # The raw pool (no retry budget) surfaces a SIGKILLed worker as
        # WorkerCrashError and still leaves /dev/shm clean.
        store = _fault_store()
        with pytest.raises(WorkerCrashError):
            with SharedStorePool(store, jobs=2, context="fork") as pool:
                pool.map(_crash_cell, [(0, 1), (1, 2)])
        assert list_segments() == []

    def test_crash_before_submission_keeps_finished_cells(self, monkeypatch):
        # A worker dying before every cell is submitted makes submit()
        # itself raise BrokenProcessPool: that is a worker crash too, and
        # the cells that already finished are kept.
        store = _fault_store()
        with SharedStorePool(store, jobs=1, context="fork") as pool:
            submit = pool._pool.submit
            calls: list = []

            def flaky_submit(*args, **kwargs):
                calls.append(1)
                if len(calls) > 1:
                    raise BrokenProcessPool("a worker died")
                return submit(*args, **kwargs)

            monkeypatch.setattr(pool._pool, "submit", flaky_submit)
            done, error = pool.map_partial(
                edge_ratio_cell, [(0, 1), (1, 2)], [0, 1]
            )
        assert isinstance(error, WorkerCrashError)
        assert done == {0: edge_ratio_cell(store, None, (0, 1))}
        assert list_segments() == []


@needs_fork
class TestFaultPlanLeaks:
    """No leaked segments under every FaultPlan, and recovery is exact."""

    PAIRS = [(0, 1), (1, 2)]

    def _clean(self, store):
        return run_store_cells(store, edge_ratio_cell, self.PAIRS, jobs=1)

    def _run(self, store, plan, config, events):
        with inject(plan):
            return run_store_cells(
                store, edge_ratio_cell, self.PAIRS,
                jobs=2, context="fork", force=True,
                config=config, events=events,
            )

    def test_sigkill_once_recovers(self):
        store = _fault_store()
        clean = self._clean(store)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="worker.cell", kind="sigkill",
                    index=0, attempts=(0,), times=1,
                ),
            ),
            name="sigkill-once",
        )
        events: list = []
        config = AlignConfig(retries=2)
        assert self._run(store, plan, config, events) == clean
        assert events == []  # the retry absorbed the crash
        assert list_segments() == []

    def test_sigkill_exhausted_degrades_to_serial(self):
        store = _fault_store()
        clean = self._clean(store)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="worker.cell", kind="sigkill",
                    index=0, attempts=None, times=None,
                ),
            ),
            name="sigkill-forever",
        )
        events: list = []
        config = AlignConfig(retries=1)
        assert self._run(store, plan, config, events) == clean
        assert len(events) == 1
        assert events[0].reason == "worker-crash"
        assert list_segments() == []

    def test_hung_cell_times_out_and_recovers(self):
        store = _fault_store()
        clean = self._clean(store)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="worker.cell", kind="hang", seconds=30.0,
                    index=0, attempts=(0,), times=1,
                ),
            ),
            name="hang-once",
        )
        events: list = []
        config = AlignConfig(retries=2, cell_timeout=1.5)
        assert self._run(store, plan, config, events) == clean
        assert events == []
        assert list_segments() == []
