"""repro — RDF graph alignment with bisimulation.

A from-scratch reproduction of Buneman & Staworko, *RDF Graph Alignment
with Bisimulation*, PVLDB 9(12), 2016.  See README.md for a tour and
DESIGN.md for the system inventory and experiment index.

Public API highlights:

* :mod:`repro.align` — the session API: :class:`repro.Aligner`,
  :class:`repro.AlignConfig`, the method registry and serializable
  :class:`repro.AlignmentReport` results,
* :mod:`repro.model` — labels, triple graphs, RDF graphs, disjoint unions,
* :mod:`repro.core` — bisimulation refinement, Trivial/Deblank/Hybrid,
* :mod:`repro.similarity` — σEdit, weighted partitions, Overlap,
* :mod:`repro.datasets` — synthetic evolving datasets with ground truth,
* :mod:`repro.experiments` — one module per paper figure (9–16).
"""

from .align import (
    AlignConfig,
    Aligner,
    AlignmentReport,
    AlignmentResult,
    MethodSpec,
    register_method,
)
from .exceptions import (
    AlignError,
    AlignmentError,
    ConfigError,
    CorruptStoreError,
    ExperimentError,
    GraphError,
    ParseError,
    PartitionError,
    RDFWellFormednessError,
    ReportError,
    ReproError,
    SchemaError,
    ThresholdError,
    TransientError,
    UnknownEngineError,
    UnknownMethodError,
    WorkerCrashError,
)
from .model import (
    BLANK,
    BlankNode,
    CombinedGraph,
    Literal,
    RDFGraph,
    TripleGraph,
    URI,
    blank,
    combine,
    lit,
    uri,
)
from .oplus import oplus

__version__ = "1.0.0"

__all__ = [
    "AlignConfig",
    "AlignError",
    "Aligner",
    "AlignmentError",
    "AlignmentReport",
    "AlignmentResult",
    "BLANK",
    "ConfigError",
    "CorruptStoreError",
    "MethodSpec",
    "ReportError",
    "ThresholdError",
    "TransientError",
    "WorkerCrashError",
    "UnknownEngineError",
    "UnknownMethodError",
    "register_method",
    "BlankNode",
    "CombinedGraph",
    "ExperimentError",
    "GraphError",
    "Literal",
    "ParseError",
    "PartitionError",
    "RDFGraph",
    "RDFWellFormednessError",
    "ReproError",
    "SchemaError",
    "TripleGraph",
    "URI",
    "__version__",
    "blank",
    "combine",
    "lit",
    "oplus",
    "uri",
]
