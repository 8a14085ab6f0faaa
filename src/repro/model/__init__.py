"""Data model: labels, triple graphs, RDF graphs and disjoint unions."""

from .csr import CSRGraph
from .graph import Edge, GraphStats, NodeId, OutPair, TripleGraph
from .labels import (
    BLANK,
    BlankLabel,
    Label,
    Literal,
    NodeKind,
    URI,
    is_blank,
    is_literal,
    is_uri,
    label_sort_key,
)
from .namespaces import Namespace
from .rdf import BlankNode, RDFGraph, Term, blank, graph_from_triples, lit, uri
from .union import SOURCE, TARGET, CombinedGraph, combine, combine_many

__all__ = [
    "BLANK",
    "BlankLabel",
    "BlankNode",
    "CSRGraph",
    "CombinedGraph",
    "Edge",
    "GraphStats",
    "Label",
    "Literal",
    "Namespace",
    "NodeId",
    "NodeKind",
    "OutPair",
    "RDFGraph",
    "SOURCE",
    "TARGET",
    "Term",
    "TripleGraph",
    "URI",
    "blank",
    "combine",
    "combine_many",
    "graph_from_triples",
    "is_blank",
    "is_literal",
    "is_uri",
    "label_sort_key",
    "lit",
    "uri",
]
