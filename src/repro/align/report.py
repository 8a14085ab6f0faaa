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

The pair list is written class by class.  A partition-induced alignment
has the crossover property (paper Section 3.1), so it is one biclique per
matched class, and
:meth:`~repro.partition.alignment.PartitionAlignment.sorted_pairs` lists
it in rendered order from one sort of the matched targets by class and
one of the matched sources: no pair is sorted and no container per pair
or per class is built.  :meth:`AlignmentReport.to_json` encodes the rows
one string at a time with the encoder ``json.dumps`` uses and splices
them between the small fields, so its bytes are those of
``json.dumps(report.to_dict(), indent=indent, sort_keys=True)`` without
building that payload.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _encode_string
from typing import TYPE_CHECKING, Callable, Sequence, cast

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
        # Every node is either paired or unaligned, so each union id
        # (``0 .. n-1``) is rendered exactly once, up front.
        render = cast(
            "Callable[[NodeId], str]", list(map(repr, graph.originals())).__getitem__
        )
        pairs = tuple(
            (render(s), render(t)) for s, t in alignment.sorted_pairs(render)
        )
        unaligned_source = tuple(sorted(map(render, alignment.unaligned_source())))
        unaligned_target = tuple(sorted(map(render, alignment.unaligned_target())))
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
    def _head(self) -> dict:
        """Every payload field except the three row lists."""
        head = {
            "schema": SCHEMA,
            "version": self.version,
            "method": self.method,
            "engine": self.engine,
            "parameters": dict(self.parameters),
            "stats": dict(self.stats),
        }
        if self.diagnostics is not None:
            head["diagnostics"] = dict(self.diagnostics)
        return head

    def to_dict(self) -> dict:
        """The JSON payload (plain lists/dicts, schema markers included)."""
        payload = self._head()
        payload["pairs"] = [list(pair) for pair in self.pairs]
        payload["unaligned_source"] = list(self.unaligned_source)
        payload["unaligned_target"] = list(self.unaligned_target)
        return payload

    def to_json(self, indent: int | str | None = 2) -> str:
        """Deterministic JSON: sorted keys, stable sequence order.

        The bytes of ``json.dumps(self.to_dict(), indent=indent,
        sort_keys=True)``, written without building the payload: the rows
        are encoded one string at a time and spliced in.
        """
        return self._encode(_indent_text(indent), 0)

    def _encode(self, indent: str | None, level: int) -> str:
        """This report as ``json.dumps`` writes it *level* deep."""
        comma, newline = _layout(indent)
        outer, inner, row, cell = (newline(level + depth) for depth in range(4))
        fields = {
            key: _dumps_at(value, indent, level + 1)
            for key, value in self._head().items()
        }
        pair_separator = comma + cell
        fields["pairs"] = _rows(
            [
                f"[{cell}{_encode_string(source)}{pair_separator}"
                f"{_encode_string(target)}{row}]"
                for source, target in self.pairs
            ],
            comma, inner, row,
        )
        for key in ("unaligned_source", "unaligned_target"):
            fields[key] = _rows(
                list(map(_encode_string, getattr(self, key))), comma, inner, row
            )
        body = (comma + inner).join(
            f"{_encode_string(key)}: {fields[key]}" for key in sorted(fields)
        )
        return f"{{{inner}{body}{outer}}}"

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


def reports_to_json(reports: "Sequence[AlignmentReport]") -> str:
    """A list of reports as ``json.dumps([r.to_dict() for r in reports],
    indent=2, sort_keys=True)`` writes it, through the row encoder."""
    comma, newline = _layout("  ")
    return _rows(
        [report._encode("  ", 1) for report in reports],
        comma, newline(0), newline(1),
    )


def _indent_text(indent: int | str | None) -> str | None:
    """The indent string ``json.dumps`` makes of its *indent* argument."""
    if indent is None or isinstance(indent, str):
        return indent
    return " " * indent


def _dumps_at(value: object, indent: str | None, depth: int) -> str:
    """``json.dumps(value, indent=indent, sort_keys=True)`` as it reads
    *depth* levels into a document.

    ``json.dumps`` escapes every control character inside strings, so a
    NUL in its output can only be indent: the value is rendered with NUL
    as the indent, every line is shifted *depth* levels, and only then
    does the real indent go in, whatever characters it holds.
    """
    if indent is None:
        return json.dumps(value, sort_keys=True)
    text = json.dumps(value, indent="\0", sort_keys=True)
    return text.replace("\n", "\n" + "\0" * depth).replace("\0", indent)


def _layout(indent: str | None) -> tuple[str, Callable[[int], str]]:
    """``json.dumps``'s item separator and line break at a nesting depth."""
    if indent is None:
        return ", ", lambda depth: ""
    return ",", lambda depth: "\n" + indent * depth


def _rows(items: list[str], comma: str, outer: str, inner: str) -> str:
    """Encoded *items* as a JSON array whose items sit at *inner*."""
    if not items:
        return "[]"
    return f"[{inner}{(comma + inner).join(items)}{outer}]"
