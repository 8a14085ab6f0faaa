"""The one process pool: every parallel call in the repo runs through it.

The paper's evaluation (Figures 9–16) is dominated by *matrices* of
alignment runs: independent work over immutable, prepared state.
:class:`SharedStorePool` is the single executor that fans such work out
over worker processes:

* the parent publishes a *state* object into named
  ``multiprocessing.shared_memory`` segments **once**.  Any object with
  a ``publish_shared(registry) -> manifest`` method and a
  ``from_manifest(manifest)`` classmethod qualifies, as
  :class:`~repro.experiments.store.VersionStore` does for figure and
  oracle cells;
* a persistent pool of workers rebuilds that state by segment name in
  its initializer (``type(state).from_manifest(manifest)``; CSR index
  arrays come back as zero-copy numpy views), so only ``(cell,
  items_manifest, index)`` ever crosses the process boundary per task;
* cells are module-level ``(state, config, item)`` functions, pickled
  by reference (:mod:`repro.experiments.cells`), which is what lets the
  pool run under the ``spawn`` start method as well as ``fork``;
* results merge in item order, so ``jobs=4`` produces byte-identical
  reports to ``jobs=1``.

:func:`run_store_cells` is the scheduling front door for cell grids:
it adds overhead-aware scheduling, retry and serial degradation on top
of the pool.

Overhead-aware scheduling
-------------------------

Forking at a loss is the failure mode this module replaces (the old
per-call fork pool re-pickled graphs until ``jobs=4`` ran 2.3x *slower*
than serial).  :func:`effective_jobs` therefore refuses to shard when
the projected parallel saving — ``est_cell_seconds × cells × (1 −
1/workers)`` against the *measured* pool start/attach overhead
(:func:`pool_overhead`) — cannot pay for the pool.
:func:`run_store_cells` autotunes the estimate by timing the first cell
when the caller has none.

Cleanup guarantees
------------------

The pool owns one :class:`~repro.experiments.shm.ShmRegistry`; its
``close()`` (and context-manager exit) first drains the workers, then
unlinks every published segment — on success, on exception, and after a
worker crash (a killed worker surfaces as ``BrokenProcessPool`` and the
``finally`` path still unlinks).  An interrupt (``KeyboardInterrupt`` /
``SystemExit``) inside the ``with`` block SIGKILLs the workers before
unlinking.  No run leaks ``/dev/shm`` entries.

Fault tolerance
---------------

:func:`run_store_cells` survives worker crashes, per-cell hangs and
transient pool failures (see ``docs/robustness.md``):

* a crashed worker (``BrokenProcessPool``) or a cell exceeding
  ``config.cell_timeout`` abandons the *pool*, not the *run* — completed
  results are kept, the state is re-published into fresh segments, and
  only the lost cells are re-submitted, under an exponential-backoff
  budget of ``config.retries`` attempts;
* when the budget is spent, the run **degrades to serial** in-process
  execution of the remaining cells and records a structured
  :class:`~repro.robustness.retry.DegradationEvent` out of band —
  results stay byte-identical to the fault-free run (the merge is by
  item index either way), which the differential oracle's ``--axis
  faults`` pins;
* the seeded fault hooks of :mod:`repro.robustness.faults` sit on the
  worker entry (``site="worker.cell"``), the serial loop and autotune
  probe (``"cell.serial"``) and pool construction (``"pool.start"``) —
  each a single ``is None`` check when injection is disabled.  The
  worker and pool-start hooks live in :class:`SharedStorePool` itself,
  so they reach every pooled call.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence

from ..exceptions import ExperimentError, TransientError, WorkerCrashError
from ..robustness import faults
from ..robustness.retry import DegradationEvent, RetryPolicy, record_event
from .shm import ShmRegistry, attach_pickle, shm_available

#: Set inside pool workers so nested pools stay serial.
_IN_WORKER = False

#: Measured pool start/attach overhead in seconds (``None`` = not yet
#: measured).  Tests monkeypatch this to pin scheduling decisions.
_MEASURED_OVERHEAD: float | None = None

#: Fallback overhead when measurement itself fails (pool unavailable).
_DEFAULT_OVERHEAD = 0.05


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _noop() -> None:
    return None


#: Ceiling on the overhead probe's round-trip: a wedged prototype pool
#: must not stall :func:`effective_jobs` forever.
_PROBE_TIMEOUT = 5.0


def _kill_pool_workers(pool: ProcessPoolExecutor) -> None:
    """SIGKILL every live worker of *pool* (hung-cell cleanup).

    Reaches into the executor's process table — there is no public kill
    API — so a subsequent ``shutdown(wait=True)`` returns instead of
    waiting on a cell that will never finish.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.kill()
        except (OSError, AttributeError):  # pragma: no cover - racing exit
            pass


def pool_overhead() -> float:
    """The measured cost (seconds) of starting and draining a pool.

    Measured **once per process** (cached in ``_MEASURED_OVERHEAD``) by
    round-tripping a no-op through a two-worker pool — the price
    :func:`effective_jobs` demands the projected parallel saving beat
    before it agrees to shard.  The round-trip is bounded by
    ``_PROBE_TIMEOUT``: a wedged pool yields the default overhead, not a
    hung scheduler.
    """
    global _MEASURED_OVERHEAD
    if _MEASURED_OVERHEAD is None:
        method = "fork" if fork_available() else "spawn"
        start = time.perf_counter()
        pool = None
        try:
            context = multiprocessing.get_context(method)
            pool = ProcessPoolExecutor(max_workers=2, mp_context=context)
            pool.submit(_noop).result(timeout=_PROBE_TIMEOUT)
            pool.shutdown(wait=True)
            _MEASURED_OVERHEAD = time.perf_counter() - start
        except (OSError, RuntimeError, ValueError,
                TimeoutError):  # pragma: no cover - no subprocess support / hang
            _MEASURED_OVERHEAD = _DEFAULT_OVERHEAD
            if pool is not None:
                _kill_pool_workers(pool)
                pool.shutdown(wait=False)
    return _MEASURED_OVERHEAD


def effective_jobs(
    jobs: int | None, cells: int, est_cell_seconds: float | None = None
) -> int:
    """Clamp a ``jobs`` request to something worth forking for.

    ``None`` or ``0`` means "one worker per usable CPU"; anything is
    capped by the number of cells (a worker without a cell is pure
    startup overhead).  When the caller knows (or has measured) the
    per-cell cost, pass *est_cell_seconds*: the request is then refused
    entirely (result ``1``) unless the projected saving —
    ``est × cells × (1 − 1/workers)`` with ``workers`` capped at the
    usable CPUs — exceeds the measured :func:`pool_overhead`.
    """
    if jobs is None or jobs <= 0:
        jobs = usable_cpus()
    jobs = max(1, min(jobs, cells))
    if jobs > 1 and est_cell_seconds is not None:
        workers = min(jobs, usable_cpus())
        if workers <= 1:
            return 1
        saving = est_cell_seconds * cells * (1.0 - 1.0 / workers)
        if saving <= pool_overhead():
            return 1
    return jobs


def fork_available() -> bool:
    """Does this platform offer the ``fork`` start method?"""
    return "fork" in multiprocessing.get_all_start_methods()


# ----------------------------------------------------------------------
# The shared-memory pool (fork and spawn)
# ----------------------------------------------------------------------

#: Worker-side state, set once by the pool initializer.
_WORKER_STATE = None
_WORKER_CONFIG = None

#: Which retry attempt this worker's pool belongs to — lets seeded
#: fault plans target "the first run only" so retries proceed cleanly.
_WORKER_ATTEMPT = 0

#: Worker-side cache of the current map call's attached item list,
#: keyed by its segment name (one live map at a time).
_WORKER_ITEMS: dict = {}


def _pool_init(state_type: type, manifest: dict, config, fault_plan=None,
               attempt: int = 0) -> None:
    """Worker initializer: rebuild the published state exactly once.

    Runs in every worker under both start methods — *state_type* pickles
    by reference and the manifest is a small picklable dict of segment
    names, so nothing heavy crosses the ``spawn`` boundary either.
    *fault_plan* (a picklable :class:`~repro.robustness.faults.FaultPlan`,
    normally ``None``) arms seeded fault injection inside the worker;
    *attempt* is the parent's retry attempt number, exposed to the
    plan's filters.
    """
    global _IN_WORKER, _WORKER_STATE, _WORKER_CONFIG, _WORKER_ATTEMPT
    _IN_WORKER = True
    faults.install(fault_plan)
    _WORKER_ATTEMPT = attempt
    _WORKER_STATE = state_type.from_manifest(manifest)
    _WORKER_CONFIG = config


def _pool_invoke(cell: Callable, items_manifest: dict, index: int):
    """One cell, executed in a pool worker against the attached state."""
    if faults.ACTIVE is not None:
        faults.fire("worker.cell", index=index, attempt=_WORKER_ATTEMPT)
    key = items_manifest.get("name") or ""
    items = _WORKER_ITEMS.get(key)
    if items is None:
        items = attach_pickle(items_manifest)
        _WORKER_ITEMS.clear()  # previous map's items are dead weight
        _WORKER_ITEMS[key] = items
    return cell(_WORKER_STATE, _WORKER_CONFIG, items[index])


class SharedStorePool:
    """A persistent worker pool attached to one published state.

    *state* is any object with ``publish_shared(registry) -> manifest``
    and a ``from_manifest(manifest)`` classmethod (a
    :class:`~repro.experiments.store.VersionStore`).  The
    constructor publishes it into a private
    :class:`~repro.experiments.shm.ShmRegistry` and starts *jobs*
    workers whose initializer rebuilds it with
    ``type(state).from_manifest(manifest)``; every subsequent
    :meth:`map` call ships only a cell callable (pickled by reference —
    use module-level functions, see :mod:`repro.experiments.cells`), the
    item list (published once as a single shm pickle) and per-task
    integer indices.

    Use as a context manager; :meth:`close` drains the workers and
    unlinks every segment, and runs on success, exception and worker
    crash alike.
    """

    def __init__(
        self,
        state,
        jobs: int,
        config=None,
        context: str | None = None,
        fault_plan=None,
        attempt: int = 0,
    ) -> None:
        if not shm_available():  # pragma: no cover - POSIX-only fallback
            raise ExperimentError("shared memory is not available on this platform")
        if jobs < 1:
            raise ExperimentError(f"a pool needs at least one worker, got {jobs}")
        method = context or ("fork" if fork_available() else "spawn")
        if method not in multiprocessing.get_all_start_methods():
            raise ExperimentError(f"start method {method!r} is unavailable")
        self.jobs = jobs
        self.attempt = attempt
        if fault_plan is None:
            # Forward the parent's armed plan so worker-side sites fire
            # under fork and spawn alike (plans are picklable).
            fault_plan = faults.active_plan()
        self._registry = ShmRegistry()
        self._pool: ProcessPoolExecutor | None = None
        try:
            if faults.ACTIVE is not None:
                faults.fire("pool.start", attempt=attempt)
            manifest = state.publish_shared(self._registry)
            self._pool = ProcessPoolExecutor(
                max_workers=jobs,
                mp_context=multiprocessing.get_context(method),
                initializer=_pool_init,
                initargs=(type(state), manifest, config, fault_plan, attempt),
            )
        except BaseException:
            self.close()
            raise

    def map(self, cell: Callable, items: Sequence) -> list:
        """``[cell(state, config, item) for item in items]`` in the pool.

        Deterministic merge: results come back in item order.  The item
        list is published once into a transient segment that is unlinked
        as soon as every result is in.
        """
        items = list(items)
        done, error = self.map_partial(cell, items, range(len(items)))
        if error is not None:
            raise error
        return [done[index] for index in range(len(items))]

    def map_partial(
        self,
        cell: Callable,
        items: Sequence,
        pending: Sequence[int],
        timeout: float | None = None,
    ) -> tuple[dict, BaseException | None]:
        """Run the *pending* indices of *items*, keeping what completes.

        The recovery primitive behind :func:`run_store_cells`: returns
        ``(done, error)`` where ``done`` maps item index to result and
        ``error`` is ``None`` on full success, a
        :class:`~repro.exceptions.WorkerCrashError` when a worker died
        (``BrokenProcessPool``), or a :class:`~repro.exceptions.
        TransientError` when a cell exceeded *timeout* (the hung workers
        are SIGKILLed so the pool can be torn down without blocking).
        Results that finished before the failure stay in ``done`` — the
        caller re-runs only what is missing.  Non-transient cell
        exceptions propagate unchanged.
        """
        items = list(items)
        pending = list(pending)
        done: dict[int, object] = {}
        if not pending:
            return done, None
        if self._pool is None:
            raise ExperimentError("the pool is closed")
        error: BaseException | None = None
        with ShmRegistry() as transient:
            manifest = transient.publish_pickle(items)
            futures = []
            for index in pending:
                try:
                    future = self._pool.submit(_pool_invoke, cell, manifest, index)
                except BrokenProcessPool as crash:
                    # A worker died before this cell was submitted: report
                    # the crash through the same path as a running cell.
                    future = Future()
                    future.set_exception(crash)
                futures.append((index, future))
            for index, future in futures:
                if error is not None:
                    future.cancel()
                    continue
                try:
                    done[index] = future.result(timeout=timeout)
                except BrokenProcessPool as crash:
                    error = WorkerCrashError(
                        f"a pool worker died while running cell {index} "
                        f"(attempt {self.attempt})"
                    )
                    error.__cause__ = crash
                except FutureTimeoutError:
                    error = TransientError(
                        f"cell {index} exceeded cell_timeout={timeout}s "
                        f"(attempt {self.attempt}); killing the pool"
                    )
                    error.reason = "cell-timeout"  # type: ignore[attr-defined]
                    _kill_pool_workers(self._pool)
                except (TransientError, OSError) as transient_error:
                    error = transient_error
        return done, error

    def close(self, kill: bool = False) -> None:
        """Drain the workers and unlink every published segment.

        ``kill=True`` SIGKILLs the workers first — the KeyboardInterrupt
        and hung-cell paths, where waiting on them could block forever.
        """
        try:
            if self._pool is not None:
                if kill:
                    _kill_pool_workers(self._pool)
                self._pool.shutdown(wait=True)
                self._pool = None
        finally:
            self._registry.unlink()

    def __enter__(self) -> "SharedStorePool":
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        interrupted = exc_type is not None and issubclass(
            exc_type, (KeyboardInterrupt, SystemExit)
        )
        self.close(kill=interrupted)


def _probe_deadline(timeout: float | None):
    """A context manager bounding one in-process cell with ``SIGALRM``.

    Guards the autotune probe: a hung first cell raises
    :class:`~repro.exceptions.TransientError` instead of stalling
    :func:`run_store_cells` forever.  Only armable on the main thread of
    a POSIX process (``signal`` rules); elsewhere the probe runs
    unguarded — same behavior as before the guard existed.
    """
    import contextlib

    @contextlib.contextmanager
    def deadline():
        usable = (
            timeout is not None
            and hasattr(signal, "setitimer")
            and threading.current_thread() is threading.main_thread()
        )
        if not usable:
            yield
            return

        def on_alarm(signum, frame):
            raise TransientError(
                f"autotune probe cell exceeded cell_timeout={timeout}s"
            )

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    return deadline()


def _degradation_reason(error: BaseException) -> str:
    tagged = getattr(error, "reason", None)
    if tagged:
        return tagged
    if isinstance(error, WorkerCrashError):
        return "worker-crash"
    return "transient"


def _pooled_with_recovery(
    store,
    cell: Callable,
    items: list,
    *,
    jobs: int,
    config,
    context: str | None,
    policy: RetryPolicy,
    events: list | None,
    run_serial: Callable[[int], object],
) -> list:
    """Pool execution with bounded retry and serial degradation.

    Attempts the pending cells up to ``policy.attempts`` times — each
    attempt re-publishes the state into fresh segments (the old pool may
    have died with them attached) and re-submits **only** the cells that
    have no result yet.  Transient failures (worker crash, cell timeout,
    pool-start I/O error) consume one attempt after an exponential
    backoff; anything else propagates.  A spent budget degrades the
    remaining cells to in-process serial execution (*run_serial*, by
    original index) and records a :class:`DegradationEvent` out of band.
    The merged result list is ordered by item index, so recovered,
    degraded and fault-free runs are byte-identical.
    """
    done: dict[int, object] = {}
    pending = list(range(len(items)))
    last_error: BaseException | None = None
    for attempt in range(policy.attempts):
        if attempt:
            time.sleep(policy.delay(attempt))
        try:
            pool = SharedStorePool(
                store,
                jobs=min(jobs, len(pending)),
                config=config,
                context=context,
                attempt=attempt,
            )
        except (TransientError, OSError) as error:
            last_error = error
            continue
        crashed = False
        try:
            results, error = pool.map_partial(
                cell, items, pending, timeout=policy.cell_timeout
            )
            done.update(results)
            if error is None:
                return [done[index] for index in range(len(items))]
            last_error = error
            crashed = True
            pending = [index for index in range(len(items)) if index not in done]
        finally:
            pool.close(kill=crashed)
    assert last_error is not None
    record_event(
        DegradationEvent(
            reason=_degradation_reason(last_error),
            attempts=policy.attempts,
            cells=tuple(pending),
            error=repr(last_error),
        ),
        events,
    )
    for index in pending:
        done[index] = run_serial(index)
    return [done[index] for index in range(len(items))]


def run_store_cells(
    store,
    cell: Callable,
    items: Sequence,
    *,
    jobs: int | None = 1,
    config=None,
    context: str | None = None,
    est_cell_seconds: float | None = None,
    force: bool = False,
    events: list | None = None,
) -> list:
    """``[cell(store, config, item) for item in items]``, shm-sharded.

    *store* is any state :class:`SharedStorePool` can publish; *cell*
    must be a module-level function of ``(store, config, item)``
    (picklable by reference, so the pool works under ``spawn`` too).
    Serial and parallel runs produce identical results — cells are
    deterministic functions of the store's immutable artifacts.

    Scheduling is overhead-aware: without *est_cell_seconds* the first
    cell is timed in-process and used as the estimate; the pool only
    starts when :func:`effective_jobs` projects a net saving.  *force*
    skips that economics check (parity tests on small workloads) but
    never the correctness fallbacks (nested calls, missing shm).

    Execution is fault-tolerant (see the module docstring): worker
    crashes and cell timeouts are retried under
    ``config.retries``/``config.cell_timeout`` and degrade to serial
    when the budget is spent; pass *events* to collect this run's
    :class:`~repro.robustness.retry.DegradationEvent` records.
    """
    items = list(items)
    if not items:
        return []
    policy = RetryPolicy.from_config(config)

    def run_one(index: int):
        if faults.ACTIVE is not None:
            faults.fire("cell.serial", index=index)
        return cell(store, config, items[index])

    def serial(indices: Sequence[int]) -> list:
        return [run_one(index) for index in indices]

    if _IN_WORKER or not shm_available():
        return serial(range(len(items)))
    requested = effective_jobs(jobs, len(items))
    if requested <= 1:
        return serial(range(len(items)))

    def pooled(workers: int, selected: list, offset: int) -> list:
        return _pooled_with_recovery(
            store,
            cell,
            selected,
            jobs=workers,
            config=config,
            context=context,
            policy=policy,
            events=events,
            run_serial=lambda index: run_one(offset + index),
        )

    if force:
        return pooled(requested, items, 0)

    head: list = []
    rest = items
    offset = 0
    if est_cell_seconds is None:
        # The autotune probe runs the first cell in-process to price the
        # workload; the deadline guard keeps a hung probe from stalling
        # the scheduler (the retry budget covers transient probe faults).
        start = time.perf_counter()
        attempt = 0
        while True:
            try:
                with _probe_deadline(policy.cell_timeout):
                    head = serial([0])
                break
            except (TransientError, OSError) as error:
                if isinstance(error, FileNotFoundError) or attempt >= policy.retries:
                    raise
                attempt += 1
                time.sleep(policy.delay(attempt))
        est_cell_seconds = time.perf_counter() - start
        rest = items[1:]
        offset = 1
        if not rest:
            return head
    worthwhile = effective_jobs(jobs, len(rest), est_cell_seconds=est_cell_seconds)
    if worthwhile <= 1:
        return head + serial(range(offset, len(items)))
    return head + pooled(worthwhile, rest, offset)
