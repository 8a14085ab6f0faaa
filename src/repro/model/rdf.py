"""RDF graphs: triple graphs obeying the RDF conventions.

The paper defines an RDF graph (one *version* of the evolving database) as a
triple graph in which

* no two nodes have the same URI label,
* no two nodes have the same literal label,
* literal labels occur only in object position, and
* predicates are URI-labeled (never blank, never literal).

:class:`RDFGraph` enforces these invariants *by construction*: URI and
literal nodes are keyed by their label (so the same URI can never create two
nodes), blank nodes are explicit :class:`BlankNode` handles with local
names, and :meth:`RDFGraph.add` validates positions.

A blank node handle is a tagged tuple like the labels, ``(TAG_BLANK, name)``
(see :mod:`repro.model.labels`); code orders handles by ``repr``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union

from ..exceptions import RDFWellFormednessError
from .graph import NodeId, TripleGraph
from .labels import BLANK, TAG_BLANK, Label, Literal, URI, _field, is_blank


class BlankNode(tuple[int, str]):
    """A blank node handle with a graph-local name: ``(TAG_BLANK, name)``.

    The *name* exists purely to distinguish blank nodes within a single
    version (like ``_:b1`` in N-Triples); it is **not** persistent across
    versions — which is exactly the problem the deblanking alignment solves.
    """

    __slots__ = ()

    name: str = _field(1)

    def __new__(cls, name: str) -> BlankNode:
        return super().__new__(cls, (TAG_BLANK, name))

    def __getnewargs__(self) -> tuple[str]:  # type: ignore[override]
        return self[1:]

    def __repr__(self) -> str:
        return f"_:{self.name}"


#: A term accepted by :meth:`RDFGraph.add`.
Term = Union[URI, Literal, BlankNode]


def uri(value: str) -> URI:
    """Convenience factory for a URI term."""
    return URI(value)


def lit(value: str, language: str | None = None, datatype: str | None = None) -> Literal:
    """Convenience factory for a literal term."""
    return Literal(value, language=language, datatype=datatype)


def blank(name: str) -> BlankNode:
    """Convenience factory for a blank node with local *name*."""
    return BlankNode(name)


class RDFGraph(TripleGraph):
    """A single version of an RDF database.

    Node identifiers are the terms themselves: a URI node's identifier is
    its :class:`~repro.model.labels.URI` label, a literal node's identifier
    is its :class:`~repro.model.labels.Literal` label and a blank node's
    identifier is its :class:`BlankNode` handle (labeled :data:`BLANK`).
    This gives label-uniqueness for free and keeps hand-written graphs
    readable.

    >>> g = RDFGraph()
    >>> g.add(uri("ss"), uri("address"), blank("b1"))
    >>> g.add(blank("b1"), uri("zip"), lit("EH8"))
    >>> g.label(blank("b1"))
    BLANK
    """

    __slots__ = ()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def term(self, term: Term) -> NodeId:
        """Ensure *term* has a node in the graph and return its identifier."""
        if isinstance(term, BlankNode):
            return self.add_node(term, BLANK)
        if isinstance(term, (URI, Literal)):
            return self.add_node(term, term)
        raise RDFWellFormednessError(
            f"{term!r} is not an RDF term (expected URI, Literal or BlankNode)"
        )

    def add(self, subject: Term, predicate: Term, obj: Term) -> None:
        """Add the triple ``(subject, predicate, obj)``, validating positions.

        Raises :class:`RDFWellFormednessError` when a literal is used as
        subject or predicate, or a blank node as predicate.
        """
        if isinstance(subject, Literal):
            raise RDFWellFormednessError(f"literal {subject!r} cannot be a subject")
        if not isinstance(predicate, URI):
            raise RDFWellFormednessError(
                f"predicate must be a URI, got {predicate!r}"
            )
        self.add_edge(self.term(subject), self.term(predicate), self.term(obj))

    def add_all(self, triples: Iterable[tuple[Term, Term, Term]]) -> None:
        """Add many triples at once."""
        for subject, predicate, obj in triples:
            self.add(subject, predicate, obj)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def triples(self) -> Iterator[tuple[Term, Term, Term]]:
        """Iterate over triples as terms (node ids *are* terms here)."""
        return self.edges()  # type: ignore[return-value]

    def has_uri(self, value: str) -> bool:
        """Does the graph contain a node labeled with this URI?"""
        return URI(value) in self

    def validate(self) -> None:
        """Check all RDF well-formedness conditions, raising on violation.

        Construction via :meth:`add` already guarantees them; this is a
        belt-and-braces check for graphs built through the lower-level
        :class:`TripleGraph` API (e.g. by the N-Triples parser).
        """
        seen_labels: set[Label] = set()
        for node in self.nodes():
            label = self.label(node)
            if is_blank(label):
                continue
            if label in seen_labels:
                raise RDFWellFormednessError(f"duplicate non-blank label {label!r}")
            seen_labels.add(label)
        for subject, predicate, obj in self.edges():
            if isinstance(self.label(subject), Literal):
                raise RDFWellFormednessError(
                    f"literal {subject!r} used in subject position"
                )
            if not isinstance(self.label(predicate), URI):
                raise RDFWellFormednessError(
                    f"predicate {predicate!r} is not URI-labeled"
                )


def graph_from_triples(triples: Iterable[tuple[Term, Term, Term]]) -> RDFGraph:
    """Build an :class:`RDFGraph` from an iterable of term triples."""
    graph = RDFGraph()
    graph.add_all(triples)
    return graph
