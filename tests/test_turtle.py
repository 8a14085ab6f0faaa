"""Unit tests for the Turtle writer, the Turtle reader and load_graph."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ParseError
from repro.io import load_graph, ntriples, sniff_format, turtle
from repro.model import RDFGraph, blank, lit, uri
from repro.model.graph import isomorphic_by_labels
from repro.model.labels import URI
from repro.model.namespaces import RDF, XSD


def sample() -> RDFGraph:
    g = RDFGraph()
    g.add(uri("http://ex/a"), RDF["type"], uri("http://ex/Class"))
    g.add(uri("http://ex/a"), uri("http://ex/p"), lit("x", language="en"))
    g.add(uri("http://ex/a"), uri("http://ex/q"), blank("b"))
    g.add(blank("b"), uri("http://ex/p"), lit("5", datatype="http://www.w3.org/2001/XMLSchema#integer"))
    return g


#: Hand-written documents the reader accepts (the fuzz mutates them too).
LISTS_AND_COMMENTS = """
            @prefix ex: <http://ex/> .
            # a comment
            ex:a ex:p "one", "two" ;
                a ex:Thing .
            _:z ex:q <http://abs/iri> .
            """
BASE = "@base <http://ex/> .\n<a> <p> <http://other/x> .\n"
SPARQL_STYLE = "PREFIX ex: <http://ex/>\nex:a ex:p ex:b .\n"


class TestTurtleWriter:
    def test_prefix_compaction(self):
        out = turtle.dumps(sample(), {"ex": "http://ex/"})
        assert "@prefix ex: <http://ex/> ." in out
        assert "ex:a" in out
        assert "<http://ex/a>" not in out

    def test_rdf_type_becomes_a(self):
        out = turtle.dumps(sample(), {"ex": "http://ex/"})
        assert " a ex:Class" in out.replace("\n", " ")

    def test_language_and_datatype(self):
        out = turtle.dumps(sample(), {"xsd": "http://www.w3.org/2001/XMLSchema#"})
        assert '"x"@en' in out
        assert '"5"^^xsd:integer' in out

    def test_subject_grouping_uses_semicolons(self):
        out = turtle.dumps(sample(), {"ex": "http://ex/"})
        subject_lines = [chunk for chunk in out.split("\n\n") if "ex:a " in chunk]
        assert subject_lines, out
        assert ";" in subject_lines[0]

    def test_blank_nodes_rendered(self):
        out = turtle.dumps(sample())
        assert "_:b" in out

    def test_no_prefixes_is_fine(self):
        out = turtle.dumps(sample())
        assert "<http://ex/a>" in out

    def test_empty_graph(self):
        assert turtle.dumps(RDFGraph()) == ""

    def test_uri_not_compacted_when_local_name_unsafe(self):
        g = RDFGraph()
        g.add(uri("http://ex/a b"), uri("http://ex/p"), lit("x"))
        out = turtle.dumps(g, {"ex": "http://ex/"})
        assert "<http://ex/a\\u0020b>" in out


class TestTurtleReader:
    @pytest.mark.parametrize(
        "prefixes",
        [None, {"ex": "http://ex/", "xsd": "http://www.w3.org/2001/XMLSchema#"}],
    )
    def test_writer_output_round_trips(self, prefixes):
        graph = sample()
        back = turtle.loads(turtle.dumps(graph, prefixes))
        assert set(back.triples()) == set(graph.triples())

    def test_escapes_round_trip(self):
        g = RDFGraph()
        g.add(uri("http://ex/a"), uri("http://ex/p"), lit('tab\t "quote" \\ nl\n'))
        back = turtle.loads(turtle.dumps(g))
        assert set(back.triples()) == set(g.triples())

    def test_object_lists_and_comments(self):
        graph = turtle.loads(LISTS_AND_COMMENTS)
        triples = set(graph.triples())
        assert (uri("http://ex/a"), uri("http://ex/p"), lit("one")) in triples
        assert (uri("http://ex/a"), uri("http://ex/p"), lit("two")) in triples
        assert (uri("http://ex/a"), RDF["type"], uri("http://ex/Thing")) in triples
        assert (blank("z"), uri("http://ex/q"), uri("http://abs/iri")) in triples

    def test_base_resolution(self):
        graph = turtle.loads(BASE)
        triples = set(graph.triples())
        assert (uri("http://ex/a"), uri("http://ex/p"), uri("http://other/x")) in triples

    def test_sparql_style_directives(self):
        graph = turtle.loads(SPARQL_STYLE)
        assert (uri("http://ex/a"), uri("http://ex/p"), uri("http://ex/b")) in set(
            graph.triples()
        )

    @pytest.mark.parametrize("label", ["prefix", "base", "PREFIX", "Base"])
    def test_prefix_label_named_like_a_directive(self, label):
        """`prefix:x` as a subject is a prefixed name, not a directive."""
        graph = turtle.loads(
            f"@prefix {label}: <http://ex/> .\n"
            f"{label}:x {label}:p {label}:y .\n"
        )
        assert (uri("http://ex/x"), uri("http://ex/p"), uri("http://ex/y")) in set(
            graph.triples()
        )

    def test_undeclared_prefix_rejected(self):
        with pytest.raises(ParseError):
            turtle.loads("ex:a ex:p ex:b .")

    def test_unsupported_syntax_rejected(self):
        with pytest.raises(ParseError):
            turtle.loads("@prefix ex: <http://ex/> .\nex:a ex:p [ ex:q ex:b ] .")

    def test_unterminated_literal_rejected(self):
        with pytest.raises(ParseError):
            turtle.loads('@prefix ex: <http://ex/> .\nex:a ex:p "oops .')

    def test_literal_predicate_rejected(self):
        with pytest.raises(ParseError):
            turtle.loads('<http://ex/a> "p" <http://ex/b> .')


#: Documents the reader must refuse; they also seed the whole-document fuzz.
MALFORMED = [
    # -- malformed prefix directives -------------------------------
    "@prefix ex <http://ex/> .",            # missing colon
    "@prefix ex: \"not-an-iri\" .",          # IRI expected
    "@prefix ex: <http://ex/>",              # missing final dot
    "@prefixes ex: <http://ex/> .",          # unknown directive
    "@base <http://ex/>",                    # missing final dot
    # -- IRIs and names --------------------------------------------
    "<http://ex/a <http://ex/p> <http://ex/o> .",   # unterminated IRI
    "<http://ex/a> <http://ex/p> ??? .",            # junk token
    # -- literals --------------------------------------------------
    '<http://ex/a> <http://ex/p> "oops .',          # unterminated
    '<http://ex/a> <http://ex/p> "bad\nbreak" .',   # raw newline
    '<http://ex/a> <http://ex/p> "dangling\\',      # dangling escape
    '<http://ex/a> <http://ex/p> "bad \\q escape" .',
    '<http://ex/a> <http://ex/p> "bad \\uZZZZ" .',  # bad unicode
    '<http://ex/a> <http://ex/p> "x"@ .',           # empty language
    '"subject" <http://ex/p> <http://ex/o> .',      # literal subject
    # -- blank nodes -----------------------------------------------
    "_: <http://ex/p> <http://ex/o> .",             # empty label
    "<http://ex/a> _:p <http://ex/o> .",            # blank predicate
    # -- unsupported container syntax ------------------------------
    "<http://ex/a> <http://ex/p> ( 1 2 ) .",        # collection
    "<http://ex/a> <http://ex/p> [ ] .",            # anonymous blank
    # -- statement structure ---------------------------------------
    "<http://ex/a> <http://ex/p> <http://ex/o>",    # missing dot
    "<http://ex/a> <http://ex/p> .",                # missing object
    # -- unicode escapes: exactly 4/8 hex digits, at most U+10FFFF --
    '<s> <p> "a\\UFFFFFFFF" .',                    # out of range
    '<s> <p> "a\\u-123" .',                        # sign
    "<s> <p> <o\\u-123> .",                        # sign, in an IRI
    '<s> <p> "a\\u0x12" .',                        # 0x prefix
    '<s> <p> "a\\u+123" .',                        # sign
    '<s> <p> "a\\U0000_041" .',                    # digit separator
]


class TestReaderErrorPaths:
    """Malformed input must fail loudly with a ParseError, never parse
    wrongly or crash with an unrelated exception (the PR-4 reader only
    had happy-path coverage)."""

    @pytest.mark.parametrize("document", MALFORMED)
    def test_malformed_documents_rejected(self, document):
        with pytest.raises(ParseError):
            turtle.loads(document)

    def test_escape_error_carries_line_and_column(self):
        # The column is the escape's first digit's, counted from the start
        # of its line, as in N-Triples.
        document = "<http://ex/a> <http://ex/p>\n\n  <http://ex/o\\u00zz> ."
        with pytest.raises(ParseError, match=r"^line 3: .*\(column 17\)$"):
            turtle.loads(document)

    @settings(max_examples=300, deadline=None)
    @given(
        letter=st.sampled_from("uU"),
        drawn=st.lists(
            st.sampled_from("0123456789abcdefABCDEF") | st.characters(),
            min_size=8,
            max_size=8,
        ),
        in_iri=st.booleans(),
    )
    def test_unicode_escapes_agree_with_ntriples(self, letter, drawn, in_iri):
        # Both readers either build the same term or raise ParseError.
        escape = "\\" + letter + "".join(drawn[: 4 if letter == "u" else 8])
        obj = f"<http://ex/o{escape}>" if in_iri else f'"a{escape}b"'
        document = f"<http://ex/s> <http://ex/p> {obj} .\n"
        outcomes = []
        for reader in (turtle, ntriples):
            try:
                outcomes.append(set(reader.loads(document).triples()))
            except ParseError:
                outcomes.append(ParseError)
        assert outcomes[0] == outcomes[1]

    def test_error_carries_the_line_number(self):
        document = (
            "@prefix ex: <http://ex/> .\n"
            "ex:a ex:p ex:b .\n"
            'ex:a ex:p "unterminated .\n'
        )
        with pytest.raises(ParseError) as excinfo:
            turtle.loads(document)
        assert excinfo.value.line_number == 3
        assert "line 3" in str(excinfo.value)

    def test_undeclared_prefix_names_the_label(self):
        with pytest.raises(ParseError) as excinfo:
            turtle.loads("@prefix ex: <http://ex/> .\nex:a mystery:p ex:b .")
        assert "mystery" in str(excinfo.value)

    def test_bad_list_error_is_actionable(self):
        with pytest.raises(ParseError) as excinfo:
            turtle.loads("<http://ex/a> <http://ex/p> ( <http://ex/x> ) .")
        assert "not" in str(excinfo.value).lower()

    def test_valid_document_after_error_line_is_not_reached(self):
        """The parser stops at the first malformed statement."""
        document = (
            "<http://ex/a> <http://ex/p> <http://ex/o> .\n"
            "<http://ex/broken .\n"
            "<http://ex/b> <http://ex/p> <http://ex/o> .\n"
        )
        with pytest.raises(ParseError):
            turtle.loads(document)


class TestLoadGraph:
    @pytest.fixture
    def files(self, tmp_path):
        graph = sample()
        nt = tmp_path / "g.nt"
        ttl = tmp_path / "g.ttl"
        mystery_turtle = tmp_path / "g1.rdf"
        mystery_ntriples = tmp_path / "g2.rdf"
        ntriples.dump_path(graph, nt)
        ttl.write_text(turtle.dumps(graph, {"ex": "http://ex/"}), encoding="utf-8")
        mystery_turtle.write_text(ttl.read_text(encoding="utf-8"), encoding="utf-8")
        mystery_ntriples.write_text(nt.read_text(encoding="utf-8"), encoding="utf-8")
        return graph, {
            "nt": nt,
            "ttl": ttl,
            "mystery_turtle": mystery_turtle,
            "mystery_ntriples": mystery_ntriples,
        }

    def test_sniff_format(self, files):
        _, paths = files
        assert sniff_format(paths["nt"]) == "ntriples"
        assert sniff_format(paths["ttl"]) == "turtle"
        assert sniff_format(paths["mystery_turtle"]) == "turtle"
        assert sniff_format(paths["mystery_ntriples"]) == "ntriples"

    def test_load_graph_all_formats(self, files):
        graph, paths = files
        for path in paths.values():
            assert set(load_graph(path).triples()) == set(graph.triples())

    def test_aligner_accepts_turtle_paths(self, files):
        from repro.align import AlignConfig, Aligner

        _, paths = files
        result = Aligner(AlignConfig(method="hybrid")).align(
            paths["nt"], paths["ttl"]
        )
        assert result.unaligned_counts() == (0, 0)


# ----------------------------------------------------------------------
# Whole documents: drawn round trips and byte-mutation fuzz
# ----------------------------------------------------------------------
_PREFIXES = {"ex": "http://ex/", "xsd": XSD.prefix}
_CHAR = st.characters(blacklist_categories=("Cs",))
#: Every character IRIREF forbids: the writers must escape each of them.
_IRI_FORBIDDEN = [chr(code) for code in range(0x21)] + list('<>"{}|^`\\')
#: A prefix base holding forbidden characters: its directive escapes them.
_ODD_BASE = "http://o d/" + "".join(_IRI_FORBIDDEN[-9:]) + "\n\t/"
#: IRIs the writer can compact (names under ``ex:`` and the odd base, some
#: ending in dots), rdf:type, and arbitrary IRIs it must write in full.
_IRIS = st.one_of(
    st.builds("http://ex/".__add__, st.text(st.sampled_from("ab09-_. #é"), max_size=5)),
    st.builds(_ODD_BASE.__add__, st.text(st.sampled_from("ab-_."), max_size=3)),
    st.just(RDF["type"].value),
    st.text(st.one_of(st.sampled_from(_IRI_FORBIDDEN), _CHAR), max_size=8),
)
_URIS = st.builds(uri, _IRIS)
_BLANKS = st.builds(
    blank,
    st.text(_CHAR.filter(lambda char: char.isalnum() or char in "-_."), min_size=1, max_size=4),
)
#: Literal text leans on the characters the writer must escape.
_TEXT = st.text(st.one_of(st.sampled_from('"\\\n\r\t\'#.;,<>@^'), _CHAR), max_size=8)
_LITERALS = st.one_of(
    st.builds(lit, _TEXT),
    st.builds(
        lit,
        _TEXT,
        language=st.from_regex(r"[a-zA-Z]{1,3}(-[a-zA-Z0-9]{1,3})?", fullmatch=True),
    ),
    st.builds(lit, _TEXT, datatype=_IRIS),
)
_TRIPLES = st.lists(
    st.tuples(st.one_of(_URIS, _BLANKS), _URIS, st.one_of(_URIS, _BLANKS, _LITERALS)),
    max_size=8,
)


def _graph(triples) -> RDFGraph:
    graph = RDFGraph()
    graph.add_all(triples)
    return graph


class TestDrawnRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(
        triples=_TRIPLES,
        prefixes=st.sampled_from([None, _PREFIXES, {**_PREFIXES, "odd": _ODD_BASE}]),
    )
    def test_dumps_then_loads_round_trips(self, triples, prefixes):
        graph = _graph(triples)
        document = turtle.dumps(graph, prefixes)
        back = turtle.loads(document)
        assert isomorphic_by_labels(back, graph)
        via_ntriples = ntriples.loads(ntriples.dumps(graph))
        assert set(back.triples()) == set(via_ntriples.triples())
        assert set(back.labels().items()) == set(via_ntriples.labels().items())
        for term in {term for triple in triples for term in triple}:
            iri = term.value if isinstance(term, URI) else getattr(term, "datatype", None)
            if iri is not None:
                # Outside its escapes, a written IRI holds no forbidden character.
                unescaped = re.sub(r"\\u[0-9A-F]{4}", "", ntriples.escape_iri(iri))
                assert not set(unescaped) & set(_IRI_FORBIDDEN)
        for directive in re.findall(r"^@prefix \S+: <(.*)> \.$", document, re.M):
            assert not set(re.sub(r"\\u[0-9A-F]{4}", "", directive)) & set(_IRI_FORBIDDEN)

    @pytest.mark.parametrize(
        "triple",
        [
            (uri("http://ex/a."), uri("http://ex/p"), uri("http://ex/o")),
            (uri("http://ex/s"), uri("http://ex/p"), uri("http://ex/a.")),
            (uri("http://ex/s"), uri("http://ex/p"), lit("x", datatype="http://ex/t.")),
            (blank("b."), uri("http://ex/p"), uri("http://ex/o")),
            (uri("http://ex/s"), uri("http://ex/p"), blank("b.")),
            (blank("."), uri("http://ex/p"), blank("..")),
        ],
        ids=["subject", "object", "datatype", "blank-subject", "blank-object", "blank-dots"],
    )
    def test_names_ending_in_a_dot(self, triple):
        """Turtle reads ``ex:a.`` and ``_:b.`` as a name before the
        terminator; a name that ends in a dot must survive the round trip."""
        graph = _graph([triple, (uri("http://ex/s"), uri("http://ex/q"), lit("z"))])
        for prefixes in (None, _PREFIXES):
            back = turtle.loads(turtle.dumps(graph, prefixes))
            assert set(back.triples()) == set(graph.triples())

    @pytest.mark.parametrize("value", ["a>b", "a\\b", "a\nb", "a\\u0041"])
    def test_iris_holding_reader_delimiters(self, value):
        """``>``, a backslash and a newline cannot stand raw in an IRI."""
        graph = _graph([(uri(value), uri("http://ex/p"), lit("x", datatype=value))])
        for writer in (turtle, ntriples):
            assert set(writer.loads(writer.dumps(graph)).triples()) == set(graph.triples())

    def test_prefix_base_holding_forbidden_characters(self):
        graph = _graph([(uri(_ODD_BASE + "s"), uri("http://ex/p"), uri(_ODD_BASE + "o"))])
        document = turtle.dumps(graph, {"odd": _ODD_BASE})
        assert document.startswith(
            "@prefix odd: <http://o\\u0020d/\\u003C\\u003E\\u0022\\u007B\\u007D"
            "\\u007C\\u005E\\u0060\\u005C\\u000A\\u0009/> .\n"
        )
        assert "odd:s" in document
        assert set(turtle.loads(document).triples()) == set(graph.triples())

    def test_a_dot_after_a_blank_object_still_terminates(self):
        graph = turtle.loads("<s> <p> _:b.\n<s> <q> _:c.")
        assert set(graph.triples()) == {
            (uri("s"), uri("p"), blank("b")),
            (uri("s"), uri("q"), blank("c")),
        }


@st.composite
def _mutated_documents(draw) -> str:
    """A valid document with a few of its UTF-8 bytes deleted, inserted or
    replaced, decoded back with U+FFFD for broken sequences."""
    seed = draw(
        st.one_of(
            st.sampled_from(
                [LISTS_AND_COMMENTS, BASE, SPARQL_STYLE, *MALFORMED,
                 turtle.dumps(sample(), _PREFIXES)]
            ),
            st.builds(
                lambda triples, prefixes: turtle.dumps(_graph(triples), prefixes),
                _TRIPLES,
                st.sampled_from([None, _PREFIXES]),
            ),
        )
    )
    data = bytearray(seed.encode("utf-8"))
    byte = st.one_of(st.sampled_from(list(b'<>"_:.,;@^\\#()[] \t\r\naA')), st.integers(0, 255))
    for _ in range(draw(st.integers(1, 4))):
        index = draw(st.integers(0, len(data)))
        operation = draw(st.sampled_from("dirt"))
        if operation == "i":
            data.insert(index, draw(byte))
        elif operation == "t":  # cut the document short
            del data[index:]
        elif index < len(data):
            if operation == "d":
                del data[index]
            else:
                data[index] = draw(byte)
    return data.decode("utf-8", errors="replace")


class TestMutatedDocuments:
    @settings(max_examples=500, deadline=None)
    @given(text=_mutated_documents())
    def test_loads_returns_a_graph_or_raises_parse_error(self, text):
        try:
            graph = turtle.loads(text)
        except ParseError:
            return
        assert isinstance(graph, RDFGraph)
