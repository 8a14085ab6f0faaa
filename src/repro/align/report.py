"""Serializable alignment reports: a stable, versioned result schema.

An :class:`AlignmentReport` is the portable rendering of one alignment
run — the aligned pairs, the unaligned node sets, summary statistics and
optional diagnostics — detached from the in-memory graphs so CLI runs and
batch experiments can persist results (``rdf-align align --report r.json``),
reload them (:meth:`AlignmentReport.from_json`) and diff two runs
(:meth:`AlignmentReport.diff`).

Schema stability contract: the payload carries ``schema`` and ``version``
markers; :meth:`AlignmentReport.validate` checks a payload against the
current schema and :meth:`AlignmentReport.from_dict` refuses payloads
that do not conform (:class:`~repro.exceptions.ReportError`).  Nodes are
rendered as the ``repr`` of their identifier in their own version (for
:class:`~repro.model.rdf.RDFGraph` inputs that is the term itself, e.g.
``URI('uoe')`` or ``_:b4``), and every sequence is sorted — two runs that
align the same nodes produce byte-identical JSON.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..exceptions import ReportError, UnknownMethodError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..model.graph import NodeId
    from .config import AlignConfig
    from .results import AlignmentResult, BaselineResult

#: Schema identity of the JSON payload.
SCHEMA = "repro/alignment-report"
SCHEMA_VERSION = 1

#: Required top-level keys and their types (the validation contract).
_REQUIRED: dict[str, type] = {
    "schema": str,
    "version": int,
    "method": str,
    "engine": str,
    "parameters": dict,
    "stats": dict,
    "pairs": list,
    "unaligned_source": list,
    "unaligned_target": list,
}

_STAT_KEYS = (
    "matched_entities",
    "pair_count",
    "unaligned_source",
    "unaligned_target",
    "nodes",
    "edges",
)


@dataclass(frozen=True)
class AlignmentReport:
    """One alignment run as stable, serializable data."""

    method: str
    engine: str
    parameters: dict
    stats: dict
    pairs: tuple[tuple[str, str], ...]
    unaligned_source: tuple[str, ...]
    unaligned_target: tuple[str, ...]
    diagnostics: dict | None = None
    version: int = SCHEMA_VERSION

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_result(
        cls,
        result: "AlignmentResult | BaselineResult",
        config: "AlignConfig | None" = None,
    ) -> "AlignmentReport":
        """Build a report from any method result (partition or baseline).

        *config*, when given, records the run parameters (theta, probe,
        splitter name) in the report; the session API always passes it.
        """
        graph = result.graph
        alignment = result.alignment
        # Each node's term is rendered once, however many pairs hold it.
        rendered: dict[NodeId, str] = {}

        def render(node: "NodeId") -> str:
            text = rendered.get(node)
            if text is None:
                text = rendered[node] = repr(graph.original(node))
            return text

        pairs = tuple(
            sorted((render(s), render(t)) for s, t in alignment.pairs())
        )
        unaligned_source = tuple(
            sorted(render(n) for n in alignment.unaligned_source())
        )
        unaligned_target = tuple(
            sorted(render(n) for n in alignment.unaligned_target())
        )
        stats = {
            "matched_entities": alignment.matched_class_count(),
            "pair_count": len(pairs),
            "unaligned_source": len(unaligned_source),
            "unaligned_target": len(unaligned_target),
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
        }
        parameters: dict = {}
        if config is not None:
            parameters = {
                "theta": config.theta,
                "probe": config.probe,
                "splitter": config.splitter_name,
            }
            try:
                from .registry import get_method

                if get_method(result.method).uses_k:
                    parameters["k"] = config.k
            except UnknownMethodError:  # unregistered ad-hoc result
                pass
        diagnostics: dict | None = None
        trace = getattr(result, "trace", None)
        if trace is not None:
            diagnostics = {
                "literal_matches": trace.literal_matches,
                "rounds": list(trace.rounds),
                "stopped_by_round_limit": trace.stopped_by_round_limit,
                "weight_truncations": trace.weight_truncations,
            }
        details = getattr(result, "details", None)
        if details:
            diagnostics = dict(diagnostics or {})
            diagnostics.update(details)
        return cls(
            method=result.method,
            engine=result.engine,
            parameters=parameters,
            stats=stats,
            pairs=pairs,
            unaligned_source=unaligned_source,
            unaligned_target=unaligned_target,
            diagnostics=diagnostics,
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The JSON payload (plain lists/dicts, schema markers included)."""
        payload = {
            "schema": SCHEMA,
            "version": self.version,
            "method": self.method,
            "engine": self.engine,
            "parameters": dict(self.parameters),
            "stats": dict(self.stats),
            "pairs": [list(pair) for pair in self.pairs],
            "unaligned_source": list(self.unaligned_source),
            "unaligned_target": list(self.unaligned_target),
        }
        if self.diagnostics is not None:
            payload["diagnostics"] = dict(self.diagnostics)
        return payload

    def to_json(self, indent: int | None = 2) -> str:
        """Deterministic JSON: sorted keys, stable sequence order."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @staticmethod
    def validate(payload: object) -> list[str]:
        """Check *payload* against the schema; return readable problems."""
        if not isinstance(payload, dict):
            return [f"payload must be an object, got {type(payload).__name__}"]
        problems = []
        for key, expected in _REQUIRED.items():
            if key not in payload:
                problems.append(f"missing key {key!r}")
            elif not isinstance(payload[key], expected):
                problems.append(
                    f"key {key!r} must be {expected.__name__}, "
                    f"got {type(payload[key]).__name__}"
                )
        if problems:
            return problems
        if payload["schema"] != SCHEMA:
            problems.append(
                f"schema is {payload['schema']!r}, expected {SCHEMA!r}"
            )
        if payload["version"] > SCHEMA_VERSION:
            problems.append(
                f"version {payload['version']} is newer than the supported "
                f"{SCHEMA_VERSION}"
            )
        for index, pair in enumerate(payload["pairs"]):
            if (
                not isinstance(pair, (list, tuple))
                or len(pair) != 2
                or not all(isinstance(term, str) for term in pair)
            ):
                problems.append(f"pairs[{index}] is not a [source, target] pair")
                break
        for key in ("unaligned_source", "unaligned_target"):
            if not all(isinstance(term, str) for term in payload[key]):
                problems.append(f"{key} must contain only strings")
        missing_stats = [k for k in _STAT_KEYS if k not in payload["stats"]]
        if missing_stats:
            problems.append(f"stats is missing {missing_stats}")
        return problems

    @classmethod
    def from_dict(cls, payload: dict) -> "AlignmentReport":
        """Rebuild a report, refusing payloads that fail :meth:`validate`."""
        problems = cls.validate(payload)
        if problems:
            raise ReportError(
                "not a valid alignment report: " + "; ".join(problems)
            )
        return cls(
            method=payload["method"],
            engine=payload["engine"],
            parameters=dict(payload["parameters"]),
            stats=dict(payload["stats"]),
            pairs=tuple((pair[0], pair[1]) for pair in payload["pairs"]),
            unaligned_source=tuple(payload["unaligned_source"]),
            unaligned_target=tuple(payload["unaligned_target"]),
            diagnostics=(
                dict(payload["diagnostics"])
                if payload.get("diagnostics") is not None
                else None
            ),
            version=payload["version"],
        )

    @classmethod
    def from_json(cls, text: str) -> "AlignmentReport":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ReportError(f"not JSON: {error}") from None
        return cls.from_dict(payload)

    def save(self, path: str | os.PathLike) -> None:
        from ..io.atomic import atomic_write_text

        atomic_write_text(path, self.to_json() + "\n")

    @classmethod
    def load(cls, path: str | os.PathLike) -> "AlignmentReport":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def summary(self) -> str:
        """The CLI's one-line rendering of the run."""
        return (
            f"method={self.method} "
            f"matched_entities={self.stats['matched_entities']} "
            f"unaligned_source={self.stats['unaligned_source']} "
            f"unaligned_target={self.stats['unaligned_target']}"
        )

    def diff(self, other: "AlignmentReport") -> dict:
        """What changed between two runs (pairs gained/lost, stat deltas)."""
        mine, theirs = set(self.pairs), set(other.pairs)
        return {
            "added_pairs": sorted(theirs - mine),
            "removed_pairs": sorted(mine - theirs),
            "stats": {
                key: other.stats.get(key, 0) - self.stats.get(key, 0)
                for key in sorted(set(self.stats) | set(other.stats))
            },
        }
