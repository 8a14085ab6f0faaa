"""Node labels for triple graphs.

The paper (Section 2.1) assumes a set of labels ``I = U ∪ L ∪ {⊥}``
consisting of URI labels ``U``, literal values ``L`` and one special *blank*
value used to label every blank node.  ``U`` and ``L`` are disjoint and
neither contains the blank value; this module encodes that structure in the
type system:

* :class:`URI` — a URI reference label,
* :class:`Literal` — a literal value (with optional language tag or
  datatype, mirroring real RDF literals),
* :data:`BLANK` — the unique blank label (an instance of
  :class:`BlankLabel`).

Labels are immutable value objects: two labels are equal iff they have the
same kind and the same content, regardless of identity.

URI and literal labels are tagged tuples, ``(TAG_URI, value)`` and
``(TAG_LITERAL, value, language, datatype)`` with ``None`` for an absent
language or datatype, and define no ``__hash__`` or ``__eq__``: hashing and
comparing them, and every tuple that holds them, runs in C.  A label equals
the plain tuple of its fields.  The tags differ per kind and avoid 1 and 2,
the union's side markers, so no label equals a ``(side, node)`` pair.
Labels order like tuples, but code orders them by :func:`label_sort_key`.
Pickles and copies rebuild a term through its constructor, so a pickle of
the former dataclass terms fails to load instead of building half a term.
"""

from __future__ import annotations

from enum import Enum
from operator import itemgetter
from typing import Any, Union


class NodeKind(Enum):
    """The three kinds of nodes an RDF graph distinguishes."""

    URI = "uri"
    LITERAL = "literal"
    BLANK = "blank"


#: Kind tags, item 0 of every term tuple; never 1 or 2 (the union's sides).
TAG_URI = 0
TAG_LITERAL = 3
TAG_BLANK = 4


def _field(index: int) -> Any:
    """A read-only property for item *index* of a term tuple, read in C."""
    return property(itemgetter(index))


class URI(tuple[int, str]):
    """A URI label, the tuple ``(TAG_URI, value)``.

    >>> URI("http://example.org/a") == URI("http://example.org/a")
    True
    """

    __slots__ = ()

    value: str = _field(1)

    def __new__(cls, value: str) -> URI:
        return super().__new__(cls, (TAG_URI, value))

    def __getnewargs__(self) -> tuple[str]:  # type: ignore[override]
        return self[1:]

    @property
    def kind(self) -> NodeKind:
        return NodeKind.URI

    def __str__(self) -> str:
        return self.value

    def __repr__(self) -> str:
        return f"URI({self.value!r})"

    def sort_key(self) -> tuple[int, str, str, str]:
        """A total order over labels (URIs < literals < blank)."""
        return (0, self.value, "", "")


class Literal(tuple[int, str, str | None, str | None]):
    """A literal label: a string value plus optional language/datatype.

    The tuple ``(TAG_LITERAL, value, language, datatype)``.  The paper
    treats literals as opaque unique strings; we additionally keep the RDF
    language tag and datatype IRI so that N-Triples files round-trip
    faithfully.  Two literals are equal only if value, language and datatype
    all coincide, which preserves the paper's "no two nodes have the same
    literal label" invariant for real-world data.
    """

    __slots__ = ()

    value: str = _field(1)
    language: str | None = _field(2)
    datatype: str | None = _field(3)

    def __new__(
        cls, value: str, language: str | None = None, datatype: str | None = None
    ) -> Literal:
        if language is not None and datatype is not None:
            raise ValueError("a literal cannot carry both a language tag and a datatype")
        return super().__new__(cls, (TAG_LITERAL, value, language, datatype))

    def __getnewargs__(self) -> tuple[str, str | None, str | None]:  # type: ignore[override]
        return self[1:]

    @property
    def kind(self) -> NodeKind:
        return NodeKind.LITERAL

    def __str__(self) -> str:
        return self.value

    def __repr__(self) -> str:
        extras = ""
        if self.language is not None:
            extras = f", language={self.language!r}"
        elif self.datatype is not None:
            extras = f", datatype={self.datatype!r}"
        return f"Literal({self.value!r}{extras})"

    def sort_key(self) -> tuple[int, str, str, str]:
        return (1, self.value, self.language or "", self.datatype or "")


class BlankLabel:
    """The unique blank label ``⊥``.

    All blank nodes carry this same label; their identity is *not* given by
    the label (blank node identifiers are local to one graph version).  Use
    the module-level singleton :data:`BLANK`.
    """

    _instance: "BlankLabel | None" = None

    def __new__(cls) -> "BlankLabel":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    @property
    def kind(self) -> NodeKind:
        return NodeKind.BLANK

    def __str__(self) -> str:
        return "⊥"

    def __repr__(self) -> str:
        return "BLANK"

    def __hash__(self) -> int:
        return hash("repro.model.labels.BLANK")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BlankLabel)

    def sort_key(self) -> tuple[int, str, str, str]:
        return (2, "", "", "")


#: The singleton blank label shared by every blank node.
BLANK = BlankLabel()

#: Any node label.
Label = Union[URI, Literal, BlankLabel]


def is_uri(label: Label) -> bool:
    """Return ``True`` iff *label* is a URI label."""
    return isinstance(label, URI)


def is_literal(label: Label) -> bool:
    """Return ``True`` iff *label* is a literal label."""
    return isinstance(label, Literal)


def is_blank(label: Label) -> bool:
    """Return ``True`` iff *label* is the blank label."""
    return isinstance(label, BlankLabel)


def label_sort_key(label: Label) -> tuple[int, str, str, str]:
    """Deterministic total order on labels, for reproducible output."""
    return label.sort_key()
