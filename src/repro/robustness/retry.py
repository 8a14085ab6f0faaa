"""Bounded retry, exponential backoff, and degradation bookkeeping.

The recovery contract of the execution layer (see ``docs/robustness.md``):

* **Transient failures are retried** — a bounded number of times, with
  exponential backoff — because they are properties of the *run*, not
  the *input*.  What counts as transient is defined by type:
  :class:`~repro.exceptions.TransientError` (and its subclass
  :class:`~repro.exceptions.WorkerCrashError`) plus raw ``OSError``,
  minus ``FileNotFoundError`` (a missing file won't appear by itself).
* **Exhausted budgets degrade, not fail** — the pool runner falls back
  to serial in-process execution and records a structured
  :class:`DegradationEvent` *out of band*.  Events never enter report
  or figure bytes: byte-identity with the fault-free run is the
  oracle's acceptance criterion, so degradation must be observable
  without being load-bearing.

Events accumulate in a per-process log (:func:`record_event` /
:func:`drain_events`); callers that want them attached to a specific
run pass an ``events=`` list to :func:`repro.experiments.parallel.
run_store_cells`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..exceptions import ConfigError, TransientError

#: Exception types treated as transient by default.
RETRYABLE: tuple[type[BaseException], ...] = (TransientError, OSError)

#: Retryable subtypes that are *not* actually transient.
NON_RETRYABLE: tuple[type[BaseException], ...] = (FileNotFoundError,)


def is_transient(error: BaseException,
                 retry_on: tuple[type[BaseException], ...] = RETRYABLE,
                 no_retry: tuple[type[BaseException], ...] = NON_RETRYABLE) -> bool:
    """Should *error* be retried under the default taxonomy?"""
    return isinstance(error, retry_on) and not isinstance(error, no_retry)


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry, how long to wait, when to give up.

    ``retries`` counts *re*-tries: the total number of attempts is
    ``retries + 1``.  Backoff is exponential with a cap —
    ``min(cap, base_delay * 2**(attempt-1))`` before attempt 1, 2, ... —
    and attempt 0 never waits.
    """

    retries: int = 2
    cell_timeout: float | None = None
    base_delay: float = 0.05
    cap: float = 2.0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ConfigError(f"retries must be >= 0, got {self.retries}")
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ConfigError(
                f"cell_timeout must be positive or None, got {self.cell_timeout}")
        if self.base_delay < 0 or self.cap < 0:
            raise ConfigError("backoff delays must be non-negative")

    @classmethod
    def from_config(cls, config: Any, **overrides: Any) -> "RetryPolicy":
        """Build a policy from any object with ``retries``/``cell_timeout``
        attributes (an :class:`~repro.align.AlignConfig`, or ``None``)."""
        fields = {
            "retries": getattr(config, "retries", cls.retries),
            "cell_timeout": getattr(config, "cell_timeout", cls.cell_timeout),
        }
        fields.update(overrides)
        return cls(**fields)

    @property
    def attempts(self) -> int:
        return self.retries + 1

    def delay(self, attempt: int) -> float:
        """Seconds to sleep before *attempt* (0-based; attempt 0 is free)."""
        if attempt <= 0:
            return 0.0
        return min(self.cap, self.base_delay * 2 ** (attempt - 1))


@dataclass(frozen=True)
class DegradationEvent:
    """A structured record of one graceful-degradation decision.

    ``reason`` is a short machine-readable tag (``"worker-crash"``,
    ``"cell-timeout"``, ``"pool-start"``); ``cells`` lists the item
    indices that were re-run serially; ``error`` is ``repr()`` of the
    final exception that exhausted the budget.
    """

    reason: str
    attempts: int
    cells: tuple[int, ...] = ()
    error: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "reason": self.reason,
            "attempts": self.attempts,
            "cells": list(self.cells),
            "error": self.error,
        }


#: Per-process degradation log (most recent last).  Out-of-band by
#: design: nothing in the report pipeline reads it.
EVENTS: list[DegradationEvent] = []


def record_event(event: DegradationEvent,
                 sink: list[DegradationEvent] | None = None) -> DegradationEvent:
    """Append *event* to the process log and to *sink* (when given)."""
    EVENTS.append(event)
    if sink is not None:
        sink.append(event)
    return event


def drain_events() -> list[DegradationEvent]:
    """Return and clear the per-process degradation log."""
    drained = list(EVENTS)
    EVENTS.clear()
    return drained


def call_with_retry(fn: Callable[[], Any], *,
                    policy: RetryPolicy | None = None,
                    retries: int | None = None,
                    retry_on: tuple[type[BaseException], ...] = RETRYABLE,
                    no_retry: tuple[type[BaseException], ...] = NON_RETRYABLE,
                    sleep: Callable[[float], None] = time.sleep,
                    on_retry: Callable[[int, BaseException], None] | None = None,
                    ) -> Any:
    """Call *fn* until it succeeds or the retry budget is spent.

    Only transient errors (``retry_on`` minus ``no_retry``) are retried;
    anything else propagates immediately.  ``sleep`` is injectable so
    tests can assert the backoff schedule without waiting it out.
    """
    if policy is None:
        policy = RetryPolicy() if retries is None else RetryPolicy(retries=retries)
    last: BaseException | None = None
    for attempt in range(policy.attempts):
        if attempt:
            sleep(policy.delay(attempt))
        try:
            return fn()
        except BaseException as error:  # reprolint: disable=broad-except  # noqa: BLE001 - filtered below
            if not (isinstance(error, retry_on) and not isinstance(error, no_retry)):
                raise
            last = error
            if on_retry is not None:
                on_retry(attempt, error)
    assert last is not None
    raise last


def describe_attempts(errors: Sequence[BaseException]) -> str:
    """A compact one-line history of retry errors, for log messages."""
    return "; ".join(f"attempt {n}: {error!r}" for n, error in enumerate(errors))
