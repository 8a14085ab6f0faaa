"""Columnar triple graphs (repro.model.graph): storage parity and work counts.

Every way of building a graph -- ``add()`` one triple at a time, the
N-Triples loader, ``copy()`` and a pickle round trip -- must agree with
a dict-of-sets reference built from the same triples, and the indexes
built on first use must stay current as edges keep arriving.  The work
counts pin that parsing tracks one object per node, and that the union
and its snapshot track none per node or edge.
"""

from __future__ import annotations

import gc
import itertools
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.synthetic import SyntheticConfig, SyntheticGenerator
from repro.io import ntriples
from repro.model import BLANK, BlankNode, RDFGraph, blank, combine, lit, uri

_SUBJECT_POOL = [uri("a"), uri("b"), uri("c"), blank("x"), blank("y")]
_PREDICATE_POOL = [uri("p"), uri("q"), uri("a")]
#: The last literal needs escapes, so its lines take the loader's scanner.
_OBJECT_POOL = _SUBJECT_POOL + [
    lit("v"),
    lit("v", language="en"),
    lit("5", datatype="http://x/int"),
    lit('say "hi"\n'),
]

_TRIPLES = st.tuples(
    st.sampled_from(_SUBJECT_POOL),
    st.sampled_from(_PREDICATE_POOL),
    st.sampled_from(_OBJECT_POOL),
)
#: ``("add", triple)``, ``("again", k)`` (re-add the k-th added triple,
#: a duplicate) or a read that builds one of the derived views mid-way.
_ACTIONS = st.lists(
    st.one_of(
        _TRIPLES.map(lambda triple: ("add", triple)),
        st.integers(min_value=0, max_value=30).map(lambda k: ("again", k)),
        st.sampled_from([("read", "out"), ("read", "occurrences"), ("read", "csr")]),
    ),
    max_size=30,
)


class DictGraph:
    """The reference: term triples in dicts and sets, in insertion order."""

    def __init__(self, triples):
        self.labels = {}
        self.edges = set()
        self.out = {}
        self.occurrences = {}
        for triple in triples:
            subject, predicate, obj = triple
            for term in triple:
                if term not in self.labels:
                    self.labels[term] = BLANK if isinstance(term, BlankNode) else term
            if triple not in self.edges:
                self.edges.add(triple)
                self.out.setdefault(subject, set()).add((predicate, obj))
                self.occurrences.setdefault(predicate, set()).add(subject)
                self.occurrences.setdefault(obj, set()).add(subject)


def _resolve(actions):
    """*actions* with each ``again`` replaced by the triple it repeats."""
    resolved, added = [], []
    for kind, value in actions:
        if kind == "again":
            if not added:
                continue
            kind, value = "add", added[value % len(added)]
        if kind == "add":
            added.append(value)
        resolved.append((kind, value))
    return resolved


def _apply(graph, actions):
    for kind, value in actions:
        if kind == "add":
            graph.add(*value)
        elif value == "out":
            if graph.num_nodes:
                graph.out(next(graph.nodes()))
        elif value == "occurrences":
            graph.occurrence_index()
        else:
            graph.csr()


def _assert_matches(graph, reference):
    assert list(graph.labels().items()) == list(reference.labels.items())
    assert [graph.dense_id(node) for node in reference.labels] == list(
        range(len(reference.labels))
    )
    assert set(graph.edges()) == reference.edges
    assert graph.num_edges == len(reference.edges)
    assert list(graph.out_index().items()) == list(reference.out.items())
    assert graph.occurrence_index() == reference.occurrences
    for triple in itertools.product(_SUBJECT_POOL, _PREDICATE_POOL, _OBJECT_POOL):
        assert graph.has_edge(*triple) == (triple in reference.edges)
    csr = graph.csr()
    for dense, node in enumerate(graph.nodes()):
        start, end = csr.out_slice(dense)
        pairs = list(zip(csr.out_predicates[start:end], csr.out_objects[start:end]))
        expected = {(graph.dense_id(p), graph.dense_id(o)) for p, o in graph.out(node)}
        assert len(pairs) == len(expected) and set(pairs) == expected


def _assert_mutation_drops_the_block(graph):
    stale = graph.csr()
    graph.add(uri("fresh"), uri("p"), lit("new"))
    fresh = graph.csr()
    assert fresh is not stale and fresh.num_pairs == stale.num_pairs + 1
    assert graph.out(uri("fresh")) == {(uri("p"), lit("new"))}
    assert graph.occurrences(lit("new")) == {uri("fresh")}


class TestStorageParity:
    @settings(max_examples=150, deadline=None)
    @given(actions=_ACTIONS, cut=st.integers(min_value=0, max_value=30))
    def test_every_build_matches_the_dict_reference(self, actions, cut):
        actions = _resolve(actions)
        first, second = actions[:cut], actions[cut:]
        base = RDFGraph()
        _apply(base, first)
        reference = DictGraph(value for kind, value in actions if kind == "add")
        builds = {
            "add": base,
            "loads": ntriples.loads(ntriples.dumps(base, sort=False)),
            "copy": base.copy(),
            "pickle": pickle.loads(pickle.dumps(base)),
            "copy+pickle": pickle.loads(pickle.dumps(base.copy())),
        }
        for graph in builds.values():
            _apply(graph, second)
        for graph in builds.values():
            _assert_matches(graph, reference)
        for graph in builds.values():
            _assert_mutation_drops_the_block(graph)

    def test_a_pickle_carries_the_columns_not_the_indexes(self):
        graph = RDFGraph()
        graph.add(uri("a"), uri("p"), lit("x"))
        graph.out_index(), graph.occurrence_index(), graph.csr()
        clone = pickle.loads(pickle.dumps(graph))
        for name in ("_keys", "_out", "_occurrences", "_csr"):
            assert getattr(clone, name) is None
        assert list(clone.edges()) == list(graph.edges())

    def test_copy_keeps_the_type_and_is_independent(self):
        graph = RDFGraph()
        graph.add(uri("a"), uri("p"), lit("x"))
        graph.out_index()
        clone = graph.copy()
        clone.add(uri("b"), uri("p"), lit("y"))
        assert type(clone) is RDFGraph
        assert graph.num_nodes == 3 and graph.num_edges == 1
        assert uri("b") not in graph.out_index()
        assert clone.out(uri("b")) == {(uri("p"), lit("y"))}


class TestWorkCounts:
    """Objects the cyclic GC tracks, counted after a full collection."""

    def test_parse_tracks_one_object_per_node_and_the_union_none(self):
        generator = SyntheticGenerator(
            config=SyntheticConfig(shape="scale_free", seed=7, versions=2, scale=12)
        )
        texts = [ntriples.dumps(generator.graph(version)) for version in range(2)]
        # A first small union fills the interpreter's one-off caches (the
        # ABC registries behind isinstance), which are not per-graph work.
        combine(*(ntriples.loads(text[: text.index("\n") + 1]) for text in texts)).csr()
        gc.collect()
        before = len(gc.get_objects())
        graphs = [ntriples.loads(text) for text in texts]
        gc.collect()
        parsed = len(gc.get_objects()) - before
        nodes = sum(graph.num_nodes for graph in graphs)
        edges = sum(graph.num_edges for graph in graphs)
        assert nodes > 1_000 and edges > 1_000
        # One term per node, plus each graph's tables and columns.
        assert parsed <= nodes + 32
        union = combine(*graphs)
        union.csr()
        gc.collect()
        assert len(gc.get_objects()) - before - parsed <= 32
