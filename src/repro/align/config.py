"""Composable, validated alignment configuration.

One frozen :class:`AlignConfig` object replaces the ``method= / theta= /
engine= / splitter= / probe= / jobs=`` keyword fan-out that used to be
re-threaded by hand through the CLI, every figure experiment and the
version store.  Build it once, derive variants with :meth:`AlignConfig.
evolve`, and pass the object down.

Validation is strict and happens at construction: an unknown method or
engine, a theta outside ``[0, 1]``, a bad probe rule or a negative jobs
count raise the :class:`~repro.exceptions.AlignError` hierarchy instead
of failing somewhere deep in a run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

from ..exceptions import (
    ConfigError,
    ThresholdError,
)
from ..similarity.string_distance import character_set, qgrams, split_words

#: The named literal characterizers for the overlap method; a config may
#: reference them by name (the CLI does) or pass any callable directly.
SPLITTERS: dict[str, Callable[[str], frozenset]] = {
    "words": split_words,
    "chars": character_set,
    "qgrams": qgrams,
}

#: Prefix-probe rules of the overlap heuristic (see DESIGN.md §5.4).
PROBE_RULES: tuple[str, ...] = ("paper", "safe")

_FIELD_NAMES: frozenset[str] | None = None


@dataclass(frozen=True)
class AlignConfig:
    """A validated, immutable description of how to align two versions.

    Parameters
    ----------
    method:
        A method name from the registry (:mod:`repro.align.registry`) —
        one of the paper's family ``trivial``/``deblank``/``hybrid``/
        ``overlap``, a baseline such as ``similarity_flooding``, or any
        third-party method registered via ``register_method``.
    theta:
        Similarity threshold of the overlap method, in ``[0, 1]``.
    engine:
        Refinement implementation: ``"reference"`` or ``"dense"``.
    probe:
        Prefix-probe rule of the overlap heuristic (``"paper"``/``"safe"``).
    splitter:
        Literal characterizer for the overlap method: a callable
        ``str -> frozenset`` or one of the names in :data:`SPLITTERS`
        (names are resolved at construction).
    jobs:
        Worker processes for batch/experiment execution (``0`` = one per
        CPU, ``1`` = serial).  Never affects results, only wall-clock.
    k:
        Round bound of the k-bisimulation family
        (``kbisim``/``kbisim_deblank``): the partition refines for at
        most ``k`` rounds, stopping early once it stabilizes.  ``k=0``
        is the label partition; any ``k`` at or above the graph's
        diameter reproduces the full bisimulation fixpoint.  Ignored by
        every other method.
    incremental:
        When ``True``, :meth:`~repro.align.session.Aligner.align_chain`
        computes each version's deblanking fixpoint once, in canonical
        colors (:mod:`repro.core.maintain`), instead of refining every
        pair from scratch: maintained from its predecessor's under the
        chain's deltas when the caller supplies them, canonized from
        scratch otherwise.  Never affects results, only wall-clock — the
        differential oracle's incremental axis pins byte-identical
        reports.
    backend:
        Path of a persisted version-store archive
        (:mod:`repro.experiments.persist`).  When set, figure
        experiments *load* their :class:`~repro.experiments.store.
        VersionStore` from the archive instead of regenerating the
        dataset — byte-identical results, restart-surviving artifacts.
        ``None`` (the default) keeps everything in memory.
    retries:
        Retry budget for transient execution failures (worker crashes,
        transient backend I/O errors, pool start failures): the number
        of *re*-tries, so ``retries + 1`` attempts total before the
        runner degrades to serial in-process execution.  Never affects
        results, only resilience — the differential oracle's faults
        axis pins byte-identical reports under injected faults.
    cell_timeout:
        Seconds a single experiment cell may run in a pool worker
        before the parent kills the pool and retries (``None`` = no
        timeout).  Also guards the autotune overhead probe.
    """

    method: str = "hybrid"
    theta: float = 0.65
    engine: str = "reference"
    probe: str = "paper"
    splitter: Callable[[str], frozenset] = split_words
    jobs: int = 1
    k: int = 3
    incremental: bool = False
    backend: str | None = None
    retries: int = 2
    cell_timeout: float | None = None

    def __post_init__(self) -> None:
        from ..core.dense import resolve_refine_engine
        from .registry import get_method

        get_method(self.method)  # UnknownMethodError on a bad name
        resolve_refine_engine(self.engine)  # UnknownEngineError likewise
        if isinstance(self.theta, bool) or not isinstance(self.theta, (int, float)):
            raise ThresholdError(f"theta must be a number, got {self.theta!r}")
        if not 0.0 <= self.theta <= 1.0:
            raise ThresholdError(
                f"theta must be within [0, 1], got {self.theta!r}"
            )
        if self.probe not in PROBE_RULES:
            raise ConfigError(
                f"unknown probe rule {self.probe!r}; expected one of {PROBE_RULES}"
            )
        if isinstance(self.splitter, str):
            try:
                resolved = SPLITTERS[self.splitter]
            except KeyError:
                raise ConfigError(
                    f"unknown splitter {self.splitter!r}; "
                    f"expected one of {tuple(sorted(SPLITTERS))} or a callable"
                ) from None
            object.__setattr__(self, "splitter", resolved)
        elif not callable(self.splitter):
            raise ConfigError(
                f"splitter must be callable or a name from "
                f"{tuple(sorted(SPLITTERS))}, got {self.splitter!r}"
            )
        if isinstance(self.jobs, bool) or not isinstance(self.jobs, int):
            raise ConfigError(f"jobs must be an integer, got {self.jobs!r}")
        if self.jobs < 0:
            raise ConfigError(f"jobs must be >= 0, got {self.jobs!r}")
        if isinstance(self.k, bool) or not isinstance(self.k, int):
            raise ConfigError(f"k must be an integer, got {self.k!r}")
        if self.k < 0:
            raise ConfigError(f"k must be >= 0, got {self.k!r}")
        if not isinstance(self.incremental, bool):
            raise ConfigError(
                f"incremental must be a boolean, got {self.incremental!r}"
            )
        if self.backend is not None:
            import os

            if isinstance(self.backend, os.PathLike):
                object.__setattr__(self, "backend", os.fspath(self.backend))
            elif not isinstance(self.backend, str):
                raise ConfigError(
                    f"backend must be a path string or None, got {self.backend!r}"
                )
        if isinstance(self.retries, bool) or not isinstance(self.retries, int):
            raise ConfigError(f"retries must be an integer, got {self.retries!r}")
        if self.retries < 0:
            raise ConfigError(f"retries must be >= 0, got {self.retries!r}")
        if self.cell_timeout is not None:
            if isinstance(self.cell_timeout, bool) or not isinstance(
                    self.cell_timeout, (int, float)):
                raise ConfigError(
                    f"cell_timeout must be a number or None, got {self.cell_timeout!r}"
                )
            if self.cell_timeout <= 0:
                raise ConfigError(
                    f"cell_timeout must be positive or None, got {self.cell_timeout!r}"
                )

    # ------------------------------------------------------------------
    def evolve(self, **changes: object) -> "AlignConfig":
        """A new config with *changes* applied (and re-validated).

        >>> AlignConfig().evolve(method="overlap", theta=0.5).theta
        0.5
        """
        global _FIELD_NAMES
        if _FIELD_NAMES is None:
            _FIELD_NAMES = frozenset(f.name for f in dataclasses.fields(AlignConfig))
        unknown = set(changes) - _FIELD_NAMES
        if unknown:
            raise ConfigError(
                f"unknown config field(s) {tuple(sorted(unknown))}; "
                f"expected a subset of {tuple(sorted(_FIELD_NAMES))}"
            )
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    @property
    def splitter_name(self) -> str:
        """The splitter's registry name, or its ``__name__`` for customs."""
        for name, callable_ in SPLITTERS.items():
            if self.splitter is callable_:
                return name
        return getattr(self.splitter, "__name__", repr(self.splitter))

    def to_dict(self) -> dict:
        """A JSON-friendly rendering (the splitter by name)."""
        return {
            "method": self.method,
            "theta": self.theta,
            "engine": self.engine,
            "probe": self.probe,
            "splitter": self.splitter_name,
            "jobs": self.jobs,
            "k": self.k,
            "incremental": self.incremental,
            "backend": self.backend,
            "retries": self.retries,
            "cell_timeout": self.cell_timeout,
        }
