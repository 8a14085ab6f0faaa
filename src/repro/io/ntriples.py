"""N-Triples reader and writer.

The environment has no rdflib, so this module implements the W3C N-Triples
format from scratch — enough of it to store and exchange the evolving-graph
versions the alignment algorithms consume:

* URIs ``<http://...>`` with ``\\u``/``\\U`` escapes,
* blank nodes ``_:name``,
* literals ``"..."`` with string escapes, optional language tag ``@en`` or
  datatype ``^^<uri>``,
* ``#`` comment lines and blank lines.

The parser is line-oriented (as the format requires) and reports precise
line numbers on malformed input.  :func:`load` matches each line against
one anchored regex covering the common shapes (an IRI or blank subject, an
IRI predicate, an IRI, blank or escape-free literal object), interns each
distinct term once per document and appends each triple's dense ids to
the graph's edge columns.  Every other line -- escapes, unusual spacing,
malformed input -- goes through the character scanner behind
:func:`parse_line`, the only reporter of errors.
"""

from __future__ import annotations

import io
import os
import re
import sys
from typing import TextIO

from ..exceptions import ParseError
from ..model.labels import Literal, URI
from ..model.rdf import BlankNode, RDFGraph, Term

_ESCAPES = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")

#: The fast path's line shape, matched in full against a stripped line;
#: each group is one term's N-Triples text.  Its character classes are the
#: scanner's: a blank label is ``isalnum()`` or ``-_.`` (CPython's ``\w``
#: is ``isalnum()`` plus ``_``) and must end where the scanner's greedy
#: read ends, hence ``(?![\w.-])``; a language tag is ``isalnum()`` or
#: ``-``; IRIs and literal bodies hold no backslash, so a line with an
#: escape goes to the scanner.  The scanner skips only spaces and tabs
#: between terms and needs none.
_BLANK_LABEL = r"_:[\w.-]+(?![\w.-])"
_IRI = r"<[^>\\]*>"
_FAST_TRIPLE = re.compile(
    rf"({_IRI}|{_BLANK_LABEL})"
    rf"[ \t]*({_IRI})"
    rf"[ \t]*({_IRI}|{_BLANK_LABEL}|\"[^\"\\]*\"(?:@(?:[^\W_]|-)+|\^\^{_IRI})?)"
    r"[ \t]*\."
)

_REVERSE_ESCAPES = {
    "\\": "\\\\",
    '"': '\\"',
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
}

#: The characters the IRIREF grammar forbids in an IRI: U+0000-U+0020,
#: ``<>"{}|^``, backtick and backslash.  The writers emit each as a
#: ``\u`` escape, which every N-Triples and Turtle reader resolves.
_IRI_FORBIDDEN = re.compile(r'[\x00-\x20<>"{}|^`\\]')
_IRI_ESCAPES = {
    code: f"\\u{code:04X}"
    for code in (*range(0x21), *map(ord, '<>"{}|^`\\'))
}


class _EscapeScanner:
    """Backslash-escape decoding, shared by the N-Triples and Turtle scanners.

    A subclass provides ``text``, ``pos`` and ``error`` (which places the
    message at ``pos``), so both formats accept exactly the same escapes.
    """

    __slots__ = ()

    text: str
    pos: int

    def error(self, message: str) -> ParseError:
        raise NotImplementedError

    def _read_escape(self) -> str:
        if self.pos >= len(self.text):
            raise self.error("dangling backslash")
        char = self.text[self.pos]
        self.pos += 1
        if char in _ESCAPES:
            return _ESCAPES[char]
        if char == "u":
            return self._read_hex(4)
        if char == "U":
            return self._read_hex(8)
        raise self.error(f"unknown escape \\{char}")

    def _read_hex(self, width: int) -> str:
        digits = self.text[self.pos:self.pos + width]
        if len(digits) < width:
            raise self.error("truncated unicode escape")
        escape = f"\\{'u' if width == 4 else 'U'}{digits}"
        # Exactly hex digits: ``int(_, 16)`` would also take a sign, ``0x``,
        # ``_``, spaces and non-ASCII digits, and ``chr`` fails past U+10FFFF.
        if not _HEX_DIGITS.issuperset(digits):
            raise self.error(f"bad unicode escape {escape}")
        code_point = int(digits, 16)
        if code_point > sys.maxunicode:
            raise self.error(f"unicode escape {escape} out of range")
        self.pos += width
        return chr(code_point)


class _LineScanner(_EscapeScanner):
    """A cursor over one N-Triples line."""

    __slots__ = ("text", "pos", "line_number")

    def __init__(self, text: str, line_number: int) -> None:
        self.text = text
        self.pos = 0
        self.line_number = line_number

    def error(self, message: str) -> ParseError:
        return ParseError(f"{message} (column {self.pos + 1})", self.line_number)

    def skip_whitespace(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        if self.at_end():
            raise self.error("unexpected end of line")
        return self.text[self.pos]

    def expect(self, char: str) -> None:
        if self.at_end() or self.text[self.pos] != char:
            raise self.error(f"expected {char!r}")
        self.pos += 1

    # -- terms ---------------------------------------------------------
    def read_uri(self) -> URI:
        self.expect("<")
        start = self.pos
        end = self.text.find(">", start)
        if end < 0:
            raise self.error("unterminated URI")
        self.pos = end + 1
        return URI(_unescape_iri(self.text, start, end, self.line_number))

    def read_blank(self) -> BlankNode:
        self.expect("_")
        self.expect(":")
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] in "-_."
        ):
            self.pos += 1
        if self.pos == start:
            raise self.error("empty blank node label")
        return BlankNode(self.text[start:self.pos])

    def read_literal(self) -> Literal:
        self.expect('"')
        chunks: list[str] = []
        while True:
            if self.at_end():
                raise self.error("unterminated literal")
            char = self.text[self.pos]
            if char == '"':
                self.pos += 1
                break
            if char == "\\":
                self.pos += 1
                chunks.append(self._read_escape())
            else:
                chunks.append(char)
                self.pos += 1
        value = "".join(chunks)
        language: str | None = None
        datatype: str | None = None
        if not self.at_end() and self.text[self.pos] == "@":
            self.pos += 1
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "-"
            ):
                self.pos += 1
            if self.pos == start:
                raise self.error("empty language tag")
            language = self.text[start:self.pos]
        elif self.text[self.pos:self.pos + 2] == "^^":
            self.pos += 2
            datatype = self.read_uri().value
        return Literal(value, language=language, datatype=datatype)

    def read_term(self, *, allow_literal: bool, allow_blank: bool) -> Term:
        self.skip_whitespace()
        char = self.peek()
        if char == "<":
            return self.read_uri()
        if char == "_":
            if not allow_blank:
                raise self.error("blank node not allowed here")
            return self.read_blank()
        if char == '"':
            if not allow_literal:
                raise self.error("literal not allowed here")
            return self.read_literal()
        raise self.error(f"unexpected character {char!r}")


def _unescape_iri(text: str, start: int, end: int, line_number: int) -> str:
    """The IRI body ``text[start:end]`` with its escapes resolved.

    The escapes are read in place, in a scanner cut at the closing ``>``,
    so an error's column counts from the start of the line and a
    truncated escape cannot read past the IRI.
    """
    raw = text[start:end]
    if "\\" not in raw:
        return raw
    inner = _LineScanner(text[:end], line_number)
    inner.pos = start
    chunks: list[str] = []
    while not inner.at_end():
        char = inner.text[inner.pos]
        inner.pos += 1
        if char == "\\":
            chunks.append(inner._read_escape())
        else:
            chunks.append(char)
    return "".join(chunks)


def parse_line(line: str, line_number: int = 1) -> tuple[Term, Term, Term] | None:
    """Parse one N-Triples line into a term triple (or None for comments)."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    scanner = _LineScanner(stripped, line_number)
    subject = scanner.read_term(allow_literal=False, allow_blank=True)
    predicate = scanner.read_term(allow_literal=False, allow_blank=False)
    obj = scanner.read_term(allow_literal=True, allow_blank=True)
    scanner.skip_whitespace()
    scanner.expect(".")
    scanner.skip_whitespace()
    if not scanner.at_end():
        raise scanner.error("trailing content after '.'")
    return subject, predicate, obj


def loads(text: str) -> RDFGraph:
    """Parse an N-Triples document from a string into an :class:`RDFGraph`."""
    return load(io.StringIO(text))


def load(stream: TextIO) -> RDFGraph:
    """Parse an N-Triples document from a file object.

    A line matching the fast-path shape in full is read from its regex
    groups; each distinct term text becomes one node for the whole
    document, added when first seen, so nodes keep the scanner path's
    first-seen subject, predicate, object order.  Its triple goes into
    the graph's edge columns as dense ids
    (:meth:`~repro.model.graph.TripleGraph.add_edge_ids`).  Any other line
    goes through :func:`parse_line` and
    :meth:`~repro.model.rdf.RDFGraph.add`, so edges too are inserted in
    document order.
    """
    graph = RDFGraph()
    ids: dict[str, int] = {}
    term, dense_id, add_edge_ids = graph.term, graph.dense_id, graph.add_edge_ids
    fast_triple = _FAST_TRIPLE.fullmatch
    for line_number, line in enumerate(stream, start=1):
        match = fast_triple(line.strip())
        if match is None:
            triple = parse_line(line, line_number)
            if triple is not None:
                graph.add(*triple)
            continue
        subject_text, predicate_text, object_text = match.groups()
        subject = ids.get(subject_text)
        if subject is None:
            subject = ids[subject_text] = dense_id(term(_fast_term(subject_text)))
        predicate = ids.get(predicate_text)
        if predicate is None:
            predicate = ids[predicate_text] = dense_id(term(_fast_term(predicate_text)))
        obj = ids.get(object_text)
        if obj is None:
            obj = ids[object_text] = dense_id(term(_fast_term(object_text)))
        add_edge_ids(subject, predicate, obj)
    return graph


def _fast_term(text: str) -> Term:
    """The term spelled by one fast-path group (escape-free, shape checked)."""
    head = text[0]
    if head == "<":
        return URI(text[1:-1])
    if head == "_":
        return BlankNode(text[2:])
    close = text.index('"', 1)
    suffix = text[close + 1:]
    if not suffix:
        return Literal(text[1:close])
    if suffix[0] == "@":
        return Literal(text[1:close], language=suffix[1:])
    return Literal(text[1:close], datatype=suffix[3:-1])


def load_path(path: str | os.PathLike) -> RDFGraph:
    """Parse the N-Triples file at *path*."""
    with open(path, "r", encoding="utf-8") as handle:
        return load(handle)


def _escape_literal(value: str) -> str:
    return "".join(_REVERSE_ESCAPES.get(char, char) for char in value)


def escape_iri(value: str) -> str:
    """*value* with every character IRIREF forbids as a ``\\u`` escape.

    Raw, ``>``, backslash and newline would end the IRI, start an escape
    or break the line, and other RDF tools reject the rest.  An IRI that
    needs no escape costs one regex scan.
    """
    if _IRI_FORBIDDEN.search(value) is None:
        return value
    return value.translate(_IRI_ESCAPES)


def format_term(term: Term) -> str:
    """Render one term in N-Triples syntax."""
    if isinstance(term, URI):
        return f"<{escape_iri(term.value)}>"
    if isinstance(term, BlankNode):
        return f"_:{term.name}"
    if isinstance(term, Literal):
        rendered = f'"{_escape_literal(term.value)}"'
        if term.language is not None:
            rendered += f"@{term.language}"
        elif term.datatype is not None:
            rendered += f"^^<{escape_iri(term.datatype)}>"
        return rendered
    raise TypeError(f"not an RDF term: {term!r}")


def format_triple(triple: tuple[Term, Term, Term]) -> str:
    """Render one triple as an N-Triples line (without newline)."""
    subject, predicate, obj = triple
    return f"{format_term(subject)} {format_term(predicate)} {format_term(obj)} ."


def dumps(graph: RDFGraph, *, sort: bool = True) -> str:
    """Serialize *graph* to an N-Triples string.

    With ``sort=True`` (default) the lines are sorted so that output is
    deterministic — important for diffable archives of graph versions.
    """
    lines = [format_triple(triple) for triple in graph.triples()]
    if sort:
        lines.sort()
    return "\n".join(lines) + ("\n" if lines else "")


def dump(graph: RDFGraph, stream: TextIO, *, sort: bool = True) -> None:
    """Serialize *graph* to a file object."""
    stream.write(dumps(graph, sort=sort))


def dump_path(graph: RDFGraph, path: str | os.PathLike, *, sort: bool = True) -> None:
    """Serialize *graph* to the file at *path* (atomic: temp + rename)."""
    from .atomic import atomic_open

    with atomic_open(path) as handle:
        dump(graph, handle, sort=sort)
