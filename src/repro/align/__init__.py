"""The alignment session API: configs, registry, sessions, reports.

The public surface of this package::

    from repro.align import AlignConfig, Aligner

    aligner = Aligner(AlignConfig(method="overlap", engine="dense"))
    result = aligner.align("v1.nt", "v2.nt")
    aligner.report(v1, v2).save("report.json")

* :class:`AlignConfig` — a frozen, validated configuration with
  :meth:`~AlignConfig.evolve` for derived variants;
* :class:`Aligner` — a reusable session holding a config plus cached
  state (memoized literal splits, parsed files; each graph caches its
  own CSR block);
* :class:`MethodSpec` / :func:`register_method` — the pluggable method
  registry every method list in the system derives from;
* :class:`AlignmentReport` — the stable, versioned, serializable result
  schema (``to_json``/``from_json`` round-trip).
"""

from .config import PROBE_RULES, SPLITTERS, AlignConfig
from .methods import MethodContext, run_method
from .registry import (
    MethodSpec,
    get_method,
    iter_methods,
    method_names,
    method_order,
    refines,
    register_method,
    unregister_method,
)
from .report import SCHEMA, SCHEMA_VERSION, AlignmentReport
from .results import AlignmentResult, BaselineResult, PairAlignment
from .session import Aligner

__all__ = [
    "AlignConfig",
    "Aligner",
    "AlignmentReport",
    "AlignmentResult",
    "BaselineResult",
    "MethodContext",
    "MethodSpec",
    "PROBE_RULES",
    "PairAlignment",
    "SCHEMA",
    "SCHEMA_VERSION",
    "SPLITTERS",
    "get_method",
    "iter_methods",
    "method_names",
    "method_order",
    "refines",
    "register_method",
    "run_method",
    "unregister_method",
]
