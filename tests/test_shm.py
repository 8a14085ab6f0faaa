"""Shared-memory segments and the worker pool's cleanup guarantees.

The contract under test (repro.experiments.shm + CSRGraph.to_shared):

* published payloads round-trip bit-identically — CSR snapshots
  included, empty graphs and zero-length arrays included;
* a :class:`ShmRegistry` unlinks everything it owns on context exit,
  on exception, and idempotently;
* a worker crashing mid-cell (SIGKILL) surfaces as
  ``WorkerCrashError`` and still leaves ``/dev/shm`` clean;
* under every seeded :class:`FaultPlan` (crash, crash-forever, hang)
  ``run_store_cells`` recovers or degrades to serial with results
  identical to a clean run — and never leaks a segment.
"""

from __future__ import annotations

import os
import signal
from array import array
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
from repro.experiments.shm import (
    ShmRegistry,
    attach_bytes,
    attach_index_array,
    attach_pickle,
    attach_segment,
    list_segments,
    shm_available,
)
from repro.experiments.store import VersionStore
from repro.datasets.synthetic import SCENARIOS, SyntheticGenerator
from repro.model import RDFGraph, blank, lit, uri
from repro.model.csr import CSRGraph

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory is unavailable"
)

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="the crash test pins the fork start method"
)


@pytest.fixture
def small_graph() -> RDFGraph:
    g = RDFGraph()
    g.add(uri("a"), uri("p"), blank("b1"))
    g.add(uri("a"), uri("q"), lit("x"))
    g.add(blank("b1"), uri("p"), lit("x"))
    return g


class TestRegistryRoundTrip:
    def test_bytes_roundtrip(self):
        with ShmRegistry() as registry:
            manifest = registry.publish_bytes(b"hello shared world")
            assert attach_bytes(manifest) == b"hello shared world"
        assert list_segments() == []

    def test_empty_bytes_publish_no_segment(self):
        with ShmRegistry() as registry:
            manifest = registry.publish_bytes(b"")
            assert manifest == {"name": None, "nbytes": 0}
            assert registry.names() == []
            assert attach_segment(manifest) is None
            assert attach_bytes(manifest) == b""

    def test_pickle_roundtrip(self):
        value = {"pairs": [(0, 1), (1, 2)], "theta": 0.65}
        with ShmRegistry() as registry:
            assert attach_pickle(registry.publish_pickle(value)) == value

    def test_index_array_roundtrip_is_bit_identical(self):
        payload = array("q", [0, 3, 5, 2**40, -7])
        keepalive: list = []
        with ShmRegistry() as registry:
            manifest = registry.publish_array(payload)
            assert manifest["count"] == len(payload)
            view = attach_index_array(manifest, keepalive)
            assert view.tobytes() == payload.tobytes()
            assert not view.flags.writeable
            del view  # the segment buffer must not outlive the registry
            for segment in keepalive:
                segment.close()

    def test_zero_length_array(self):
        keepalive: list = []
        with ShmRegistry() as registry:
            manifest = registry.publish_array(array("q", []))
            view = attach_index_array(manifest, keepalive)
            assert len(view) == 0 and keepalive == []


class TestCSRSharedRoundTrip:
    def _roundtrip(self, csr: CSRGraph) -> None:
        keepalive: list = []
        with ShmRegistry() as registry:
            clone = CSRGraph.from_shared(csr.to_shared(registry), keepalive)
            assert clone.nodes == csr.nodes
            assert clone.index == csr.index
            assert clone.out_offsets.tobytes() == csr.out_offsets.tobytes()
            assert clone.out_predicates.tobytes() == csr.out_predicates.tobytes()
            assert clone.out_objects.tobytes() == csr.out_objects.tobytes()
            del clone  # views die before the registry unlinks the segments
            for segment in keepalive:
                segment.close()
        assert list_segments() == []

    def test_snapshot_bit_identical(self, small_graph):
        self._roundtrip(CSRGraph(small_graph))

    def test_empty_graph(self):
        self._roundtrip(CSRGraph(RDFGraph()))

    def test_nodes_without_edges(self):
        # Zero-length pair arrays with a non-empty node table.
        g = RDFGraph()
        g.add(uri("solo"), uri("p"), lit("x"))
        csr = CSRGraph(g)
        object_only = CSRGraph.from_parts(
            csr.nodes, array("q", [0] * (len(csr.nodes) + 1)),
            array("q", []), array("q", []),
        )
        self._roundtrip(object_only)


class TestCleanupGuarantees:
    def test_unlink_on_exception(self):
        with pytest.raises(RuntimeError, match="mid-publish"):
            with ShmRegistry() as registry:
                registry.publish_bytes(b"doomed")
                assert list_segments() != []
                raise RuntimeError("mid-publish")
        assert list_segments() == []

    def test_unlink_is_idempotent(self):
        registry = ShmRegistry()
        registry.publish_bytes(b"payload")
        registry.unlink()
        registry.unlink()
        assert list_segments() == []

    def test_attacher_exit_does_not_destroy_segment(self):
        # The owner, not an attacher, unlinks: after a worker-side
        # attach/close cycle the segment must still be readable.
        with ShmRegistry() as registry:
            manifest = registry.publish_bytes(b"still here")
            assert attach_bytes(manifest) == b"still here"
            assert attach_bytes(manifest) == b"still here"
        assert list_segments() == []


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
