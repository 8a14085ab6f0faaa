"""A minimal Turtle writer *and reader* with prefix support.

Turtle output is for human inspection of generated datasets (the canonical
interchange format of this library is N-Triples, which round-trips).  The
writer groups triples by subject, compacts URIs against a caller-supplied
prefix map and emits ``a`` for ``rdf:type``.

The reader (:func:`loads`/:func:`load`/:func:`load_path`) parses the
pragmatic Turtle subset the writer emits — and what hand-written ontology
files typically use:

* ``@prefix`` / ``@base`` directives (and their SPARQL-style ``PREFIX`` /
  ``BASE`` spellings),
* full IRIs ``<...>``, prefixed names ``ex:local``, the ``a`` keyword,
* blank node labels ``_:b``,
* literals with language tags and datatypes,
* predicate lists (``;``), object lists (``,``) and ``#`` comments.

Not supported (rejected with a :class:`~repro.exceptions.ParseError`):
anonymous blank nodes ``[...]``, collections ``(...)``, triple-quoted
literals and numeric/boolean literal shorthand.
"""

from __future__ import annotations

import os
import re
from typing import Iterator, Mapping, TextIO

from ..exceptions import ParseError
from ..model.labels import Literal, URI
from ..model.namespaces import RDF
from ..model.rdf import BlankNode, RDFGraph, Term
from .ntriples import _escape_literal, _EscapeScanner, escape_iri

_RDF_TYPE = RDF["type"]


def _compact(term: URI, prefixes: Mapping[str, str]) -> str:
    for prefix, base in prefixes.items():
        if term.value.startswith(base):
            local = term.value[len(base):]
            # Not ``ex:a.``: that reads as ``ex:a`` and the terminator.
            if local[-1:] not in ("", ".") and all(c.isalnum() or c in "-_." for c in local):
                return f"{prefix}:{local}"
    return f"<{escape_iri(term.value)}>"


def _format(term: Term, prefixes: Mapping[str, str]) -> str:
    if isinstance(term, URI):
        return _compact(term, prefixes)
    if isinstance(term, BlankNode):
        return f"_:{term.name}"
    if isinstance(term, Literal):
        rendered = f'"{_escape_literal(term.value)}"'
        if term.language is not None:
            rendered += f"@{term.language}"
        elif term.datatype is not None:
            rendered += "^^" + _compact(URI(term.datatype), prefixes)
        return rendered
    raise TypeError(f"not an RDF term: {term!r}")


def dumps(graph: RDFGraph, prefixes: Mapping[str, str] | None = None) -> str:
    """Serialize *graph* as Turtle.

    *prefixes* maps prefix names to base URIs, e.g. ``{"rdf": RDF.prefix}``.
    """
    prefixes = dict(prefixes or {})
    lines = [
        f"@prefix {name}: <{escape_iri(base)}> ." for name, base in sorted(prefixes.items())
    ]
    if lines:
        lines.append("")

    by_subject: dict[str, list[tuple[str, str]]] = {}
    for subject, predicate, obj in graph.triples():
        subject_text = _format(subject, prefixes)
        if predicate == _RDF_TYPE:
            predicate_text = "a"
        else:
            predicate_text = _format(predicate, prefixes)
        by_subject.setdefault(subject_text, []).append(
            (predicate_text, _format(obj, prefixes))
        )

    for subject_text in sorted(by_subject):
        pairs = sorted(by_subject[subject_text])
        parts = [f"{subject_text} "]
        for index, (predicate_text, object_text) in enumerate(pairs):
            separator = " ;\n    " if index < len(pairs) - 1 else " .\n"
            parts.append(f"{predicate_text} {object_text}{separator}")
        lines.append("".join(parts))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Reader
# ----------------------------------------------------------------------
class _Scanner(_EscapeScanner):
    """A cursor over a whole Turtle document (statements span lines).

    Escapes are decoded by the N-Triples scanner's rules, read in place.
    """

    __slots__ = ("text", "pos", "line")

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.line = 1

    def error(self, message: str) -> ParseError:
        column = self.pos - self.text.rfind("\n", 0, self.pos)
        return ParseError(f"{message} (column {column})", self.line)

    def skip_space(self) -> None:
        """Advance past whitespace and ``#`` comments."""
        text = self.text
        while self.pos < len(text):
            char = text[self.pos]
            if char == "\n":
                self.line += 1
                self.pos += 1
            elif char in " \t\r":
                self.pos += 1
            elif char == "#":
                end = text.find("\n", self.pos)
                self.pos = len(text) if end < 0 else end
            else:
                return

    def at_end(self) -> bool:
        self.skip_space()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, char: str) -> bool:
        if self.peek() == char:
            self.pos += 1
            return True
        return False

    def expect(self, char: str) -> None:
        if not self.take(char):
            raise self.error(f"expected {char!r}, got {self.peek()!r}")

    # -- tokens ---------------------------------------------------------
    def read_iriref(self) -> str:
        self.expect("<")
        end = self.text.find(">", self.pos)
        if end < 0:
            raise self.error("unterminated IRI")
        raw = self.text[self.pos:end]
        if "\n" in raw:
            # An IRIREF cannot span lines; without this check a missing
            # ">" would silently swallow the following statements.
            raise self.error("unterminated IRI (newline before '>')")
        if "\\" not in raw:
            self.pos = end + 1
            return raw
        # Read in place, so errors carry the document's line and column.
        # ``>`` is neither an escape character nor a hex digit, so an escape
        # cut short by the closing ``>`` fails rather than reading past it.
        chunks: list[str] = []
        while self.pos < end:
            char = self.text[self.pos]
            self.pos += 1
            if char == "\\":
                chunks.append(self._read_escape())
            else:
                chunks.append(char)
        self.pos = end + 1
        return "".join(chunks)

    def read_name(self) -> str:
        """A bare name: prefix label, local name or keyword."""
        start = self.pos
        text = self.text
        while self.pos < len(text) and (
            text[self.pos].isalnum() or text[self.pos] in "-_."
        ):
            self.pos += 1
        name = text[start:self.pos]
        # A trailing dot is the statement terminator, not part of the name.
        while name.endswith("."):
            name = name[:-1]
            self.pos -= 1
        return name

    def read_blank_label(self, position: str) -> str:
        """The label after ``_:``.  Its trailing dots end the statement, as in
        ``_:b.``, except where no terminator can stand (after a subject, or
        before ``.``, ``,`` or ``;``): the writer's ``_:b. ex:p _:c. .``."""
        name, start, line = self.read_name(), self.pos, self.line
        while self.peek() == ".":
            self.pos += 1
        end = self.pos
        self.skip_space()
        if position != "subject" and self.peek() not in (".", ",", ";"):
            end = start
        self.pos, self.line = end, line
        return name + self.text[start:end]

    def read_quoted(self) -> str:
        self.expect('"')
        chunks: list[str] = []
        text = self.text
        while True:
            if self.pos >= len(text):
                raise self.error("unterminated literal")
            char = text[self.pos]
            if char == '"':
                self.pos += 1
                return "".join(chunks)
            if char == "\n":
                raise self.error("newline inside literal (use \\n)")
            if char == "\\":
                self.pos += 1
                chunks.append(self._read_escape())
            else:
                chunks.append(char)
                self.pos += 1


class _TurtleParser:
    """Recursive-descent parser over :class:`_Scanner` tokens."""

    def __init__(self, text: str) -> None:
        self.scanner = _Scanner(text)
        self.prefixes: dict[str, str] = {}
        self.base = ""

    def parse(self) -> Iterator[tuple[Term, Term, Term]]:
        scanner = self.scanner
        while not scanner.at_end():
            if scanner.peek() == "@":
                self._directive()
                continue
            checkpoint = scanner.pos
            word = scanner.read_name()
            # A directive keyword is never followed by ":" — that would be
            # a prefixed name whose label happens to be "prefix"/"base".
            if word.upper() in ("PREFIX", "BASE") and scanner.peek() != ":":
                self._sparql_directive(word.upper())
                continue
            scanner.pos = checkpoint  # not a directive: a subject
            yield from self._statement()

    # -- directives -----------------------------------------------------
    def _directive(self) -> None:
        scanner = self.scanner
        scanner.expect("@")
        keyword = scanner.read_name()
        if keyword == "prefix":
            self._prefix_binding()
            scanner.skip_space()
            scanner.expect(".")
        elif keyword == "base":
            scanner.skip_space()
            self.base = scanner.read_iriref()
            scanner.skip_space()
            scanner.expect(".")
        else:
            raise scanner.error(f"unknown directive @{keyword}")

    def _sparql_directive(self, keyword: str) -> None:
        scanner = self.scanner
        if keyword == "PREFIX":
            self._prefix_binding()
        else:
            scanner.skip_space()
            self.base = scanner.read_iriref()

    def _prefix_binding(self) -> None:
        scanner = self.scanner
        scanner.skip_space()
        label = scanner.read_name()
        scanner.expect(":")
        scanner.skip_space()
        self.prefixes[label] = scanner.read_iriref()

    # -- statements -----------------------------------------------------
    def _statement(self) -> Iterator[tuple[Term, Term, Term]]:
        scanner = self.scanner
        subject = self._term(position="subject")
        while True:
            scanner.skip_space()
            predicate = self._verb()
            while True:
                obj = self._term(position="object")
                yield (subject, predicate, obj)
                scanner.skip_space()
                if not scanner.take(","):
                    break
            scanner.skip_space()
            if scanner.take(";"):
                scanner.skip_space()
                if scanner.take("."):  # tolerate "; ." tails
                    return
                continue
            scanner.expect(".")
            return

    def _resolve_iri(self, raw: str) -> str:
        """Resolve against ``@base`` (by concatenation; relative only)."""
        if not self.base or re.match(r"^[A-Za-z][A-Za-z0-9+.\-]*:", raw):
            return raw
        return self.base + raw

    def _verb(self) -> Term:
        scanner = self.scanner
        checkpoint = scanner.pos
        if scanner.peek() not in '<"_':
            word = scanner.read_name()
            if word == "a" and scanner.peek() != ":":
                return _RDF_TYPE
            scanner.pos = checkpoint
        term = self._term(position="predicate")
        if not isinstance(term, URI):
            raise scanner.error(f"predicate must be an IRI, got {term!r}")
        return term

    def _term(self, position: str) -> Term:
        scanner = self.scanner
        scanner.skip_space()
        char = scanner.peek()
        if char == "<":
            return URI(self._resolve_iri(scanner.read_iriref()))
        if char == "_":
            scanner.expect("_")
            scanner.expect(":")
            name = scanner.read_blank_label(position)
            if not name:
                raise scanner.error("empty blank node label")
            if position == "predicate":
                raise scanner.error("blank node not allowed as predicate")
            return BlankNode(name)
        if char == '"':
            if position != "object":
                raise scanner.error(f"literal not allowed as {position}")
            value = scanner.read_quoted()
            language: str | None = None
            datatype: str | None = None
            if scanner.take("@"):
                language = scanner.read_name()
                if not language:
                    raise scanner.error("empty language tag")
            elif scanner.text[scanner.pos:scanner.pos + 2] == "^^":
                scanner.pos += 2
                datatype_term = self._term(position="predicate")
                datatype = datatype_term.value  # type: ignore[union-attr]
            return Literal(value, language=language, datatype=datatype)
        if char in "([":
            raise scanner.error(
                f"{char!r} syntax (collections/anonymous blanks) is not "
                "supported by this reader"
            )
        # A prefixed name.
        label = scanner.read_name()
        if not scanner.take(":"):
            raise scanner.error(f"unexpected token {label or scanner.peek()!r}")
        local = scanner.read_name()
        try:
            namespace = self.prefixes[label]
        except KeyError:
            raise scanner.error(f"undeclared prefix {label!r}") from None
        return URI(namespace + local)


def iter_triples(text: str) -> Iterator[tuple[Term, Term, Term]]:
    """Yield term triples from a Turtle document string."""
    return _TurtleParser(text).parse()


def loads(text: str) -> RDFGraph:
    """Parse a Turtle document (the writer's subset) into an :class:`RDFGraph`."""
    graph = RDFGraph()
    for subject, predicate, obj in iter_triples(text):
        graph.add(subject, predicate, obj)
    return graph


def load(stream: TextIO) -> RDFGraph:
    """Parse a Turtle document from a file object."""
    return loads(stream.read())


def load_path(path: str | os.PathLike) -> RDFGraph:
    """Parse the Turtle file at *path*."""
    with open(path, "r", encoding="utf-8") as handle:
        return load(handle)
