"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class GraphError(ReproError):
    """A structural problem with a triple graph (unknown node, bad edge...)."""


class RDFWellFormednessError(GraphError):
    """An operation would violate the RDF graph conventions of the paper.

    The conventions (paper Section 2.1): no two nodes of one RDF graph share
    a URI or literal label, literal labels occur only in object position and
    predicates are always URI-labeled.
    """


class ParseError(ReproError):
    """Raised by the N-Triples parser on malformed input."""

    def __init__(self, message: str, line_number: int | None = None) -> None:
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class PartitionError(ReproError):
    """A partition is used with a graph it does not cover, or is malformed."""


class AlignmentError(ReproError):
    """An alignment query could not be answered (e.g. node on wrong side)."""


class SchemaError(ReproError):
    """A relational schema or instance violates its declared constraints."""


class ExperimentError(ReproError):
    """An experiment was configured with invalid parameters."""


# ----------------------------------------------------------------------
# Session API errors (repro.align)
# ----------------------------------------------------------------------
class AlignError(ReproError):
    """Base class for invalid input to the alignment session API.

    Everything a *caller* can get wrong when driving :mod:`repro.align` —
    a bad configuration value, an unregistered method, a malformed report
    payload — derives from this class, so ``except AlignError`` separates
    user mistakes from library bugs.
    """


class ConfigError(AlignError):
    """An :class:`repro.align.AlignConfig` field has an invalid value."""


class UnknownMethodError(ConfigError, ExperimentError):
    """The requested alignment method is not in the method registry.

    Also an :class:`ExperimentError`, because the legacy facade raised
    that type for unknown methods and callers may still catch it.
    """


class UnknownEngineError(ConfigError, ExperimentError):
    """The requested refinement engine does not exist.

    Also an :class:`ExperimentError` for backward compatibility with the
    pre-session error type of :func:`repro.core.dense.resolve_refine_engine`.
    """


class ThresholdError(ConfigError):
    """The similarity threshold ``theta`` is outside ``[0, 1]``."""


class ReportError(AlignError):
    """An alignment report payload does not match the declared schema."""


# ----------------------------------------------------------------------
# Fault-tolerant execution (repro.robustness)
# ----------------------------------------------------------------------
class TransientError(AlignError):
    """A recoverable failure: retrying the operation may well succeed.

    Raised (or wrapped) by the execution layer for failures that are a
    property of the *run*, not the *input* — a transient I/O error from
    a persistence backend, a cell exceeding its timeout, a worker pool
    that failed to start.  The retry machinery in
    :mod:`repro.robustness.retry` catches exactly this class (plus raw
    ``OSError``), so anything that should be retried must derive from it.
    """


class WorkerCrashError(TransientError):
    """A pool worker died mid-cell (SIGKILL, OOM, hard crash).

    Transient by classification: the parent starts a fresh pool and
    re-runs only the lost cells (bounded by the retry budget), then
    degrades to serial in-process execution — the cell itself is
    deterministic, so the crash says nothing about the input.
    """


class CorruptStoreError(AlignError, ExperimentError):
    """Persisted store data failed verification (checksum/size mismatch).

    Raised by :class:`~repro.experiments.persist.DiskBackend` when a
    block's CRC32 or byte count disagrees with its manifest entry, and
    by :meth:`~repro.experiments.store.VersionStore.load` when a corrupt
    artifact cannot be rebuilt from source.  Also an
    :class:`ExperimentError` so pre-robustness callers that catch the
    store's legacy error type keep working.
    """
