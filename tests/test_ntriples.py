"""Unit and property tests for the N-Triples reader/writer."""

from __future__ import annotations

import io
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ParseError
from repro.io import ntriples
from repro.model import RDFGraph, blank, lit, uri
from repro.model.graph import isomorphic_by_labels


class TestParseLine:
    def test_simple_triple(self):
        triple = ntriples.parse_line('<http://a> <http://p> <http://b> .')
        assert triple == (uri("http://a"), uri("http://p"), uri("http://b"))

    def test_literal_object(self):
        triple = ntriples.parse_line('<http://a> <http://p> "hello" .')
        assert triple[2] == lit("hello")

    def test_language_tag(self):
        triple = ntriples.parse_line('<http://a> <http://p> "hi"@en-GB .')
        assert triple[2] == lit("hi", language="en-GB")

    def test_datatype(self):
        triple = ntriples.parse_line('<a> <p> "5"^^<http://int> .')
        assert triple[2] == lit("5", datatype="http://int")

    def test_blank_nodes(self):
        triple = ntriples.parse_line("_:x <p> _:y .")
        assert triple == (blank("x"), uri("p"), blank("y"))

    def test_escapes_in_literal(self):
        triple = ntriples.parse_line(r'<a> <p> "tab\there\nnl \"q\" \\" .')
        assert triple[2] == lit('tab\there\nnl "q" \\')

    def test_unicode_escapes(self):
        triple = ntriples.parse_line(r'<a> <p> "é\U0001F600" .')
        assert triple[2] == lit("é😀")

    def test_comment_and_empty_lines(self):
        assert ntriples.parse_line("# comment") is None
        assert ntriples.parse_line("   ") is None

    @pytest.mark.parametrize(
        "bad",
        [
            "<a> <p> <b>",  # missing dot
            '<a> <p> "unterminated .',
            "<a <p> <b> .",
            "<a> <p> .",
            '"lit" <p> <b> .',  # literal subject
            "<a> _:b <c> .",  # blank predicate
            "<a> <p> <b> . trailing",
            r'<a> <p> "\q" .',  # unknown escape
            r'<a> <p> "\u12" .',  # truncated escape
            "_: <p> <b> .",  # empty blank label
            '<a> <p> "x"@ .',  # empty language
            r'<a> <p> "\u-123" .',  # a sign is not a hex digit
            r'<a> <p> "\u0x12" .',  # nor is a 0x prefix
            r'<a> <p> "\UFFFFFFFF" .',  # past U+10FFFF
            r'<a> <p> "\U00110000" .',
        ],
    )
    def test_malformed_lines_raise(self, bad):
        with pytest.raises(ParseError):
            ntriples.parse_line(bad)

    @pytest.mark.parametrize(
        "line, column",
        [
            (r"<s> <p> <o\u12> .", 13),
            (r"<http://a\q> <p> <o> .", 12),
        ],
    )
    def test_iri_escape_error_counts_columns_from_line_start(self, line, column):
        with pytest.raises(ParseError, match=rf"\(column {column}\)$"):
            ntriples.parse_line(line)

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as excinfo:
            ntriples.parse_line("<a> <p> <b>", line_number=42)
        assert excinfo.value.line_number == 42
        assert "42" in str(excinfo.value)


class TestDocumentIO:
    def test_loads_skips_comments(self):
        text = "# header\n<a> <p> <b> .\n\n<a> <p> \"x\" .\n"
        graph = ntriples.loads(text)
        assert graph.num_edges == 2

    def test_load_stream(self):
        stream = io.StringIO("<a> <p> <b> .\n")
        assert ntriples.load(stream).num_edges == 1

    def test_dumps_sorted_and_deterministic(self):
        g = RDFGraph()
        g.add(uri("b"), uri("p"), lit("x"))
        g.add(uri("a"), uri("p"), lit("x"))
        out = ntriples.dumps(g)
        assert out.index("<a>") < out.index("<b>")
        assert out == ntriples.dumps(g)

    def test_dump_and_load_path(self, tmp_path, figure1_graphs):
        v1, __ = figure1_graphs
        path = tmp_path / "v1.nt"
        ntriples.dump_path(v1, path)
        loaded = ntriples.load_path(path)
        loaded.validate()
        assert isomorphic_by_labels(v1, loaded)

    def test_empty_graph_serializes_to_empty(self):
        assert ntriples.dumps(RDFGraph()) == ""


class TestRoundTrip:
    def test_figure1_round_trip(self, figure1_graphs):
        for graph in figure1_graphs:
            text = ntriples.dumps(graph)
            again = ntriples.loads(text)
            assert isomorphic_by_labels(graph, again)
            assert ntriples.dumps(again) == text

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.text(
                alphabet=st.characters(blacklist_categories=("Cs",)),
                max_size=20,
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_literal_values_round_trip(self, values):
        g = RDFGraph()
        for index, value in enumerate(values):
            g.add(uri(f"s{index}"), uri("p"), lit(value))
        again = ntriples.loads(ntriples.dumps(g))
        assert {t[2] for t in again.triples() if isinstance(t[2], type(lit("")))} == {
            lit(v) for v in values
        }

    def test_format_term_rejects_non_terms(self):
        with pytest.raises(TypeError):
            ntriples.format_term(42)  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# The regex fast path of ``load`` against the scanner
# ----------------------------------------------------------------------
def _scanner_load(text: str) -> RDFGraph:
    """Scanner-only loading, the reference for :func:`ntriples.load`:
    :func:`ntriples.parse_line` and :meth:`RDFGraph.add`, line by line."""
    graph = RDFGraph()
    for line_number, line in enumerate(io.StringIO(text), start=1):
        triple = ntriples.parse_line(line, line_number)
        if triple is not None:
            graph.add(*triple)
    return graph


def _outcome(load, text: str):
    """The graph *load* builds from *text* -- nodes and out-index in
    insertion order, edges -- or its ParseError's message.  Any other
    exception propagates and fails the test."""
    try:
        graph = load(text)
    except ParseError as error:
        return ("error", str(error))
    return (
        "graph",
        list(graph.labels().items()),
        set(graph.edges()),
        list(graph.out_index().items()),
    )


def _assert_fast_path_agrees(text: str) -> None:
    assert _outcome(ntriples.loads, text) == _outcome(_scanner_load, text)


_ANY_CHAR = st.characters(blacklist_categories=("Cs",))
_ESCAPE = st.sampled_from([r"\u0041", r"\U0001F600", r"\t", r"\\", r'\"', r"\u12", r"\q"])
#: Plain term pieces, drawn as often as the edge cases: most drawn lines
#: are well formed, so documents get past their first lines.
_PLAIN = st.text(st.sampled_from(list("abxyz019")), min_size=1, max_size=4)


def _pieces(edge_chars: str, excluded: str):
    """Term-body chunks: plain text, the given edge-case characters, any
    character but *excluded*, or an escape (valid or not)."""
    return st.lists(
        st.one_of(
            _PLAIN,
            _PLAIN,
            st.sampled_from(list(edge_chars)),
            _ANY_CHAR.filter(lambda char: char not in excluded),
            _ESCAPE,
        ),
        max_size=4,
    )


_IRI_TEXT = st.one_of(
    st.builds(lambda body: f"<http://{body}>", _PLAIN),
    st.builds(lambda chunks: "<" + "".join(chunks) + ">", _pieces(':/#. "<\r', ">\\\n")),
)
_BLANK_TEXT = st.one_of(
    st.builds(lambda label: "_:" + label, _PLAIN),
    st.builds(
        lambda chunks: "_:" + "".join(chunks),
        st.lists(st.one_of(_PLAIN, st.sampled_from(list("_-.é٣²\u0301·")), _ANY_CHAR), max_size=3),
    ),
)
_LANGUAGE_TAG = st.one_of(
    st.sampled_from(["en", "en-GB", "de-1996"]),
    st.text(st.one_of(st.sampled_from(list("en-_9ß٣")), _ANY_CHAR), max_size=4),
)
_LITERAL_TEXT = st.builds(
    lambda chunks, suffix: '"' + "".join(chunks) + '"' + suffix,
    _pieces(" <>@.^\r\t", '"\\\n'),
    st.one_of(
        st.just(""),
        st.builds(lambda tag: "@" + tag, _LANGUAGE_TAG),
        st.builds(lambda iri: "^^" + iri, _IRI_TEXT),
    ),
)
_SEPARATOR = st.sampled_from(["", " ", "\t", "  ", " \t", "\r", "\x0c", "\u00a0"])


@st.composite
def _triple_lines(draw) -> str:
    """A line in or near the common shapes, with edge-case terms and spacing."""
    terms = {"iri": _IRI_TEXT, "blank": _BLANK_TEXT, "literal": _LITERAL_TEXT}
    subject = draw(terms[draw(st.sampled_from(["iri"] * 4 + ["blank"] * 3 + ["literal"]))])
    predicate = draw(terms[draw(st.sampled_from(["iri"] * 8 + ["blank", "literal"]))])
    obj = draw(terms[draw(st.sampled_from(["iri", "blank", "literal"]))])
    separators = [draw(_SEPARATOR) for _ in range(3)]
    lead = draw(st.sampled_from(["", "", " ", "\t", "\x0b", "\u2003"]))
    tail = draw(st.sampled_from(["", "", "", " ", "\r", "\t", " # x", ".", "x"]))
    return (
        f"{lead}{subject}{separators[0]}{predicate}{separators[1]}{obj}"
        f"{separators[2]}.{tail}"
    )


@st.composite
def _byte_mutated_lines(draw) -> str:
    """A drawn line with a few of its UTF-8 bytes deleted, inserted or
    replaced, decoded back with U+FFFD for broken sequences."""
    data = bytearray(draw(_triple_lines()).encode("utf-8"))
    byte = st.one_of(st.sampled_from(list(b'<>"_:.@^\\ \t\r\n#')), st.integers(0, 255))
    for _ in range(draw(st.integers(1, 3))):
        index = draw(st.integers(0, len(data)))
        operation = draw(st.sampled_from("dir"))
        if operation == "i":
            data.insert(index, draw(byte))
        elif index < len(data):
            if operation == "d":
                del data[index]
            else:
                data[index] = draw(byte)
    return data.decode("utf-8", errors="replace")


@st.composite
def _plain_lines(draw) -> str:
    """A well-formed line over a few terms, so that lines share terms.
    The escaped spellings of ``<http://a>``, ``"v w"`` and ``<http://int>``
    send their lines to the scanner with terms equal to fast-path ones."""
    node = st.sampled_from(["<http://a>", "<http://b>", "_:a", "_:b1.", r"<http://\u0061>"])
    literal = st.sampled_from(
        ['"v"', '"v w"', '"v"@en', '"v"@en-GB', '"v"@en_GB', '"1"^^<http://int>',
         r'"v\u0020w"', r'"1"^^<http://\u0069nt>']
    )
    predicate = draw(st.sampled_from(["<http://p>", "<http://q>"]))
    obj = draw(st.one_of(node, literal))
    separator = draw(st.sampled_from([" ", "\t"]))
    end = draw(st.sampled_from([" .", "\t.", "."]))
    return f"{draw(node)}{separator}{predicate}{separator}{obj}{end}"


@st.composite
def _document_lines(draw) -> str:
    kind = draw(st.sampled_from(["plain"] * 3 + ["drawn"] * 2 + ["mutated", "other"]))
    if kind == "plain":
        return draw(_plain_lines())
    if kind == "drawn":
        return draw(_triple_lines())
    if kind == "mutated":
        return draw(_byte_mutated_lines())
    return draw(st.sampled_from(["", "# comment", "  # indented comment", " \t "]))


_DOCUMENTS = st.builds("\n".join, st.lists(_document_lines(), max_size=8))


class TestFastPath:
    """``load`` reads the common line shapes from one regex match and
    leaves every other line to the scanner: it must build the scanner's
    graph, in the scanner's insertion order, or raise its ParseError."""

    @settings(max_examples=400, deadline=None)
    @given(text=_DOCUMENTS)
    def test_differential_fuzz_against_the_scanner(self, text):
        _assert_fast_path_agrees(text)

    @pytest.mark.parametrize(
        "text, expected",
        [
            # A blank label may end in '.': the scanner reads 'b2.' greedily
            # and then misses the closing '.'.
            ("_:b1 <p> _:b2.\n", "expected '.'"),
            ("_:b1. <p> <o> .\n", (blank("b1."), uri("p"), uri("o"))),
            ("_:a<p> <o> .\n", (blank("a"), uri("p"), uri("o"))),
            ('<s> <p> "x"@en_GB .\n', "expected '.'"),
            ('<s> <p> "x".\n', (uri("s"), uri("p"), lit("x"))),
            ("<s>\r<p> <o> .\n", "unexpected character '\\r'"),
            ('<s> <p> "a\rb" .\n', (uri("s"), uri("p"), lit("a\rb"))),
            ("<s> <p> <http://a b> .\n", (uri("s"), uri("p"), uri("http://a b"))),
            (
                '<s> <p> "5"^^<http://x\\u0023int> .\n',
                (uri("s"), uri("p"), lit("5", datatype="http://x#int")),
            ),
        ],
    )
    def test_pinned_cases(self, text, expected):
        _assert_fast_path_agrees(text)
        if isinstance(expected, str):
            with pytest.raises(ParseError, match=re.escape(expected)):
                ntriples.loads(text)
        else:
            assert list(ntriples.loads(text).triples()) == [expected]

    def test_scanner_lines_keep_document_order(self):
        text = '<a> <p> <b> .\n<c> <p> "x\\ty" .\n<a> <q> <c> .\n'
        _assert_fast_path_agrees(text)
        assert list(ntriples.loads(text).out_index()) == [uri("a"), uri("c")]

    def test_common_shapes_never_reach_the_scanner(self, monkeypatch):
        def refuse(line, line_number=1):
            raise AssertionError(f"line {line_number} reached the scanner: {line!r}")

        monkeypatch.setattr(ntriples, "parse_line", refuse)
        graph = ntriples.loads(
            "<a> <p> <b> .\n"
            '_:x <p> "v"@en-GB .\n'
            '<a> <q> "5"^^<http://int> .\n'
            "_:x\t<p>\t_:y .\n"
            '<a> <p> "plain" .\n'
        )
        assert graph.num_edges == 5

    def test_each_term_is_one_object_per_document(self):
        graph = ntriples.loads("<a> <p> <b> .\n<b> <p> <a> .\n_:x <p> <a> .\n")
        keys = {node: node for node in graph.nodes()}
        for edge in graph.edges():
            assert all(keys[term] is term for term in edge)

    def test_word_classes_are_the_scanner_rules(self):
        """The regex's ``\\w`` is ``isalnum()`` plus ``_`` on every code
        point, so its blank-label and language-tag classes are the
        scanner's ``isalnum()``-based rules."""
        text = "".join(map(chr, range(sys.maxunicode + 1)))
        assert set(re.findall(r"[\w.-]", text)) == {
            char for char in text if char.isalnum() or char in "-_."
        }
        assert set(re.findall(r"[^\W_]|-", text)) == {
            char for char in text if char.isalnum() or char == "-"
        }


_URI_VALUES = st.text(_ANY_CHAR, max_size=8)
_DRAWN_URIS = st.builds(uri, _URI_VALUES)
_DRAWN_BLANKS = st.builds(
    blank,
    st.text(_ANY_CHAR.filter(lambda char: char.isalnum() or char in "-_."), min_size=1, max_size=4),
)
_DRAWN_LITERALS = st.one_of(
    st.builds(lit, st.text(_ANY_CHAR, max_size=8)),
    st.builds(
        lit,
        st.text(_ANY_CHAR, max_size=8),
        language=st.from_regex(r"[a-zA-Z]{1,3}(-[a-zA-Z0-9]{1,3})?", fullmatch=True),
    ),
    st.builds(lit, st.text(_ANY_CHAR, max_size=8), datatype=_URI_VALUES),
)


class TestDrawnRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(
        triples=st.lists(
            st.tuples(
                st.one_of(_DRAWN_URIS, _DRAWN_BLANKS),
                _DRAWN_URIS,
                st.one_of(_DRAWN_URIS, _DRAWN_BLANKS, _DRAWN_LITERALS),
            ),
            max_size=8,
        )
    )
    def test_dumps_then_loads_round_trips(self, triples):
        graph = RDFGraph()
        graph.add_all(triples)
        text = ntriples.dumps(graph)
        again = ntriples.loads(text)
        assert set(again.labels().items()) == set(graph.labels().items())
        assert set(again.triples()) == set(graph.triples())
        assert ntriples.dumps(again) == text
