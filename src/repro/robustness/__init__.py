"""Fault-tolerant execution: seeded fault injection and recovery policy.

Two halves of one contract:

* :mod:`repro.robustness.faults` — deterministic, picklable fault plans
  (worker SIGKILL, per-cell hangs, transient I/O errors, bit-flips and
  truncations in backend reads) injected at named hook points in the
  worker pool, the cell runner, and the disk backend.  Zero overhead when
  disabled.  The pool hands its workers the store itself (inherited
  under ``fork``, pickled once per worker under ``spawn``), so a
  restarted pool needs no re-publication and a killed worker leaves
  nothing behind.
* :mod:`repro.robustness.retry` — the recovery machinery those faults
  exercise: bounded retry with exponential backoff, per-cell timeouts,
  and graceful degradation to serial execution recorded as structured
  :class:`DegradationEvent`\\ s (out of band — never in report bytes).

The differential oracle's ``--axis faults`` replays every pinned
scenario under seeded plans from both halves and asserts the final
reports stay byte-identical to the fault-free run with zero leaked
``/dev/shm`` segments.
"""

from ..exceptions import CorruptStoreError, TransientError, WorkerCrashError
from .faults import (
    ACTION_KINDS,
    KINDS,
    PAYLOAD_KINDS,
    FaultClock,
    FaultPlan,
    FaultSpec,
    active_plan,
    filter_bytes,
    fire,
    inject,
    install,
)
from .retry import (
    NON_RETRYABLE,
    RETRYABLE,
    DegradationEvent,
    RetryPolicy,
    call_with_retry,
    drain_events,
    is_transient,
    record_event,
)

__all__ = [
    "ACTION_KINDS",
    "KINDS",
    "NON_RETRYABLE",
    "PAYLOAD_KINDS",
    "RETRYABLE",
    "CorruptStoreError",
    "DegradationEvent",
    "FaultClock",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "TransientError",
    "WorkerCrashError",
    "active_plan",
    "call_with_retry",
    "drain_events",
    "filter_bytes",
    "fire",
    "inject",
    "install",
    "is_transient",
    "record_event",
]
