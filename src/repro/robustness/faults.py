"""Deterministic, seeded fault injection for the execution layer.

The recovery machinery of this repo — bounded retry-with-backoff around
the worker pool (:mod:`repro.experiments.parallel`), checksum
verification and quarantine-and-rebuild in the persistence layer
(:mod:`repro.experiments.persist` / :meth:`VersionStore.load`) — is only
trustworthy if its failure paths are *exercised*, reproducibly, against
the same byte-identity oracle that pins the happy path.  This module is
the injection half of that contract:

* :class:`FaultSpec` — one fault: a *site* (a named hook point such as
  ``"worker.cell"`` or ``"backend.read"``), a *kind* (``sigkill`` /
  ``hang`` / ``oserror`` / ``bitflip`` / ``truncate``) and a matching
  window (item index, backend key substring, nth occurrence, how many
  occurrences, which pool attempts).
* :class:`FaultPlan` — an immutable, picklable bundle of specs.  Plans
  cross the process boundary in the pool's ``initargs``, so worker-side
  faults (SIGKILL at cell N, per-cell hangs) fire inside real workers
  under fork *and* spawn.
* :class:`FaultClock` — the per-process occurrence counters.  Every
  process (parent or worker) counts its own events; determinism comes
  from the specs' windows being expressed in event coordinates (site,
  index, key, nth, attempt), never in wall-clock time.

Hook points are two functions with a **zero-cost disabled path**: call
sites guard on the module-level :data:`ACTIVE` tuple being ``None``
(one attribute load + ``is None`` per event), so production runs pay
nothing measurable — the ``robustness/retry_overhead`` bench gates the
harness's clean-path cost per cell at ≤ 5 % of a real cell.

Sites currently wired in:

``worker.cell``
    Fired by the pool worker entry (:func:`repro.experiments.parallel.
    _pool_invoke`) with ``index`` = the cell's *original* item index and
    ``attempt`` = the pool's retry attempt.  Kinds: ``sigkill``
    (``os.kill(getpid(), SIGKILL)`` — no Python cleanup runs), ``hang``
    (sleep ``seconds``), ``oserror``.
``cell.serial``
    Fired by the serial in-process cell loop (and the autotune probe)
    of :func:`~repro.experiments.parallel.run_store_cells`.
``pool.start``
    Fired by :class:`~repro.experiments.parallel.SharedStorePool` before
    it builds its executor, with ``attempt``.  Kind ``oserror`` makes
    pool construction itself a retryable failure.
``backend.read``
    Fired by :meth:`DiskBackend._read_file` with ``key`` = the logical
    store key.  ``oserror`` raises a transient ``EIO``;
    ``bitflip``/``truncate`` corrupt the returned bytes via
    :func:`filter_bytes` (the checksum layer must catch them).
"""

from __future__ import annotations

import errno
import os
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator


#: Fault kinds that act at a :func:`fire` point.
ACTION_KINDS = ("sigkill", "hang", "oserror")

#: Fault kinds that corrupt payload bytes at a :func:`filter_bytes` point.
PAYLOAD_KINDS = ("bitflip", "truncate")

KINDS = ACTION_KINDS + PAYLOAD_KINDS


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault with a deterministic matching window.

    Parameters
    ----------
    site:
        The hook point this fault arms (see the module docstring).
    kind:
        One of :data:`KINDS`.
    index:
        Only fire for this item/cell index (``None`` = any index).
    key:
        Only fire for backend keys containing this substring
        (``None`` = any key).
    nth:
        Skip the first *nth* matching events at the site (per process).
    times:
        Affect this many matching events after *nth* (``None`` =
        every one — a *persistent* fault, e.g. durable corruption).
    attempts:
        Pool attempt numbers the fault is live in (``None`` = all).
        The default ``(0,)`` makes worker faults one-shot across
        retries: the re-run after recovery proceeds cleanly.
    seconds:
        Sleep duration of the ``hang`` kind.
    seed:
        Seeds the ``bitflip`` byte position (deterministic per payload
        length).
    """

    site: str
    kind: str
    index: int | None = None
    key: str | None = None
    nth: int = 0
    times: int | None = 1
    attempts: tuple[int, ...] | None = (0,)
    seconds: float = 60.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {KINDS}")

    def matches(self, site: str, index: int | None, key: str | None,
                attempt: int | None) -> bool:
        """Does an event at *site* fall inside this spec's filters?

        The occurrence window (``nth``/``times``) is applied by the
        clock, not here — matching and counting are separate so the
        counters only advance on events the spec actually selects.
        """
        if self.site != site:
            return False
        if self.index is not None and index != self.index:
            return False
        if self.key is not None and (key is None or self.key not in key):
            return False
        if self.attempts is not None and attempt is not None \
                and attempt not in self.attempts:
            return False
        return True


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, picklable bundle of :class:`FaultSpec` faults.

    Plans carry no mutable state — occurrence counting lives in a
    per-process :class:`FaultClock` — so the same plan object can be
    shipped to every pool worker and re-armed across retry attempts
    without cross-process coordination.
    """

    specs: tuple[FaultSpec, ...] = ()
    name: str = "fault-plan"

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def clock(self) -> "FaultClock":
        return FaultClock(counts=[0] * len(self.specs))


@dataclass
class FaultClock:
    """Per-process occurrence counters, one per spec of the active plan."""

    counts: list[int] = field(default_factory=list)

    def admit(self, slot: int, spec: FaultSpec) -> bool:
        """Count one matching event for *spec*; is it inside the window?"""
        n = self.counts[slot]
        self.counts[slot] = n + 1
        if n < spec.nth:
            return False
        if spec.times is not None and n >= spec.nth + spec.times:
            return False
        return True


#: The installed ``(plan, clock)`` pair, or ``None`` (the fast path).
#: Call sites guard on this directly — ``faults.ACTIVE is not None`` —
#: so disabled runs pay one attribute load per hook point.
ACTIVE: tuple[FaultPlan, FaultClock] | None = None


def active_plan() -> FaultPlan | None:
    """The installed plan (``None`` when injection is disabled)."""
    return ACTIVE[0] if ACTIVE is not None else None


def install(plan: FaultPlan | None) -> None:
    """Install *plan* process-globally (``None`` disables injection).

    Used by the pool worker initializer; in-process callers should
    prefer the :func:`inject` context manager, which restores the
    previous plan on exit.
    """
    global ACTIVE
    ACTIVE = None if plan is None else (plan, plan.clock())


@contextmanager
def inject(plan: FaultPlan | None) -> Iterator[FaultPlan | None]:
    """Context manager: arm *plan* for the block, restore the previous
    plan (and its clock) afterwards — exceptions included."""
    global ACTIVE
    previous = ACTIVE
    install(plan)
    try:
        yield plan
    finally:
        ACTIVE = previous


def _perform(spec: FaultSpec) -> None:
    if spec.kind == "sigkill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif spec.kind == "hang":
        time.sleep(spec.seconds)
    elif spec.kind == "oserror":
        raise OSError(errno.EIO, f"injected transient I/O error ({spec.site})")


def fire(site: str, *, index: int | None = None, key: str | None = None,
         attempt: int | None = None) -> None:
    """One event at *site*: perform every armed action fault that admits it.

    A no-op when no plan is installed; payload kinds never act here
    (they only transform bytes in :func:`filter_bytes`).
    """
    if ACTIVE is None:
        return
    plan, clock = ACTIVE
    for slot, spec in enumerate(plan.specs):
        if spec.kind not in ACTION_KINDS:
            continue
        if spec.matches(site, index, key, attempt) and clock.admit(slot, spec):
            _perform(spec)


def filter_bytes(site: str, key: str | None, payload: bytes) -> bytes:
    """Pass *payload* through every armed payload fault at *site*.

    ``bitflip`` XORs one deterministically chosen byte (position seeded
    by ``spec.seed`` and the payload length); ``truncate`` drops the
    second half.  Both leave empty payloads alone.
    """
    if ACTIVE is None:
        return payload
    plan, clock = ACTIVE
    for slot, spec in enumerate(plan.specs):
        if spec.kind not in PAYLOAD_KINDS:
            continue
        if not spec.matches(site, None, key, None) or not clock.admit(slot, spec):
            continue
        if not payload:
            continue
        if spec.kind == "bitflip":
            position = (spec.seed * 2654435761 + len(payload)) % len(payload)
            corrupted = bytearray(payload)
            corrupted[position] ^= 0xFF
            payload = bytes(corrupted)
        else:  # truncate
            payload = payload[: len(payload) // 2]
    return payload
