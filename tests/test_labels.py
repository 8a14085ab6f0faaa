"""Unit tests for node labels (repro.model.labels)."""

from __future__ import annotations

import copy
import pickle
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.labels import (
    BLANK,
    BlankLabel,
    Literal,
    NodeKind,
    URI,
    is_blank,
    is_literal,
    is_uri,
    label_sort_key,
)
from repro.model.rdf import BlankNode
from repro.model.union import SOURCE, TARGET


class TestURI:
    def test_equality_is_by_value(self):
        assert URI("http://x/a") == URI("http://x/a")
        assert URI("http://x/a") != URI("http://x/b")

    def test_hashable_and_usable_as_dict_key(self):
        d = {URI("a"): 1}
        assert d[URI("a")] == 1

    def test_kind(self):
        assert URI("a").kind is NodeKind.URI

    def test_str_and_repr(self):
        assert str(URI("http://x")) == "http://x"
        assert "http://x" in repr(URI("http://x"))

    def test_immutable(self):
        with pytest.raises(AttributeError):
            URI("a").value = "b"  # type: ignore[misc]


class TestLiteral:
    def test_equality_includes_language_and_datatype(self):
        assert Literal("a") == Literal("a")
        assert Literal("a", language="en") != Literal("a")
        assert Literal("a", datatype="http://x#int") != Literal("a")
        assert Literal("a", language="en") != Literal("a", language="fr")

    def test_language_and_datatype_are_mutually_exclusive(self):
        with pytest.raises(ValueError):
            Literal("a", language="en", datatype="http://x#string")

    def test_kind(self):
        assert Literal("a").kind is NodeKind.LITERAL

    def test_repr_mentions_extras(self):
        assert "language" in repr(Literal("a", language="en"))
        assert "datatype" in repr(Literal("a", datatype="http://x"))
        assert "language" not in repr(Literal("a"))

    def test_uri_and_literal_never_equal(self):
        assert URI("a") != Literal("a")
        assert Literal("a") != URI("a")


class TestBlankLabel:
    def test_singleton(self):
        assert BlankLabel() is BLANK

    def test_equality(self):
        assert BLANK == BlankLabel()
        assert BLANK != URI("a")
        assert BLANK != Literal("a")

    def test_kind(self):
        assert BLANK.kind is NodeKind.BLANK

    def test_hash_stable(self):
        assert hash(BLANK) == hash(BlankLabel())


class TestPredicates:
    def test_is_functions(self):
        assert is_uri(URI("a")) and not is_uri(Literal("a")) and not is_uri(BLANK)
        assert is_literal(Literal("a")) and not is_literal(URI("a"))
        assert is_blank(BLANK) and not is_blank(URI("a"))

    def test_sort_key_total_order(self):
        labels = [BLANK, Literal("b"), URI("z"), Literal("a"), URI("a")]
        ordered = sorted(labels, key=label_sort_key)
        assert ordered == [URI("a"), URI("z"), Literal("a"), Literal("b"), BLANK]


# ----------------------------------------------------------------------
# Value semantics: the tagged-tuple terms against the frozen dataclasses
# they replaced, kept here verbatim (bar the names) as the reference.
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class _ReferenceURI:
    value: str

    @property
    def kind(self) -> NodeKind:
        return NodeKind.URI

    def __str__(self) -> str:
        return self.value

    def __repr__(self) -> str:
        return f"URI({self.value!r})"

    def sort_key(self) -> tuple[int, str, str, str]:
        return (0, self.value, "", "")


@dataclass(frozen=True, slots=True)
class _ReferenceLiteral:
    value: str
    language: str | None = field(default=None)
    datatype: str | None = field(default=None)

    def __post_init__(self) -> None:
        if self.language is not None and self.datatype is not None:
            raise ValueError("a literal cannot carry both a language tag and a datatype")

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


@dataclass(frozen=True, slots=True)
class _ReferenceBlankNode:
    name: str

    def __repr__(self) -> str:
        return f"_:{self.name}"


_CLASSES = {
    "uri": (URI, _ReferenceURI),
    "literal": (Literal, _ReferenceLiteral),
    "blank": (BlankNode, _ReferenceBlankNode),
}

# A small alphabet so that drawn terms often coincide; "" is drawn too,
# and an empty language must stay distinct from an absent one.
_TEXT = st.text(alphabet="ab'\"\\é", max_size=3)
_OPTIONAL = st.none() | _TEXT

#: ``(kind, constructor args)``; a literal carries a language or a
#: datatype, never both.
_SPECS = st.one_of(
    st.tuples(st.just("uri"), st.tuples(_TEXT)),
    st.tuples(
        st.just("literal"),
        st.tuples(_TEXT, _OPTIONAL, st.none()) | st.tuples(_TEXT, st.none(), _OPTIONAL),
    ),
    st.tuples(st.just("blank"), st.tuples(_TEXT)),
)


def _build(spec) -> tuple:
    kind, args = spec
    term_class, reference_class = _CLASSES[kind]
    return term_class(*args), reference_class(*args)


class TestValueSemantics:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_SPECS, min_size=2, max_size=8))
    def test_equality_and_hash_agree_with_the_reference(self, specs):
        built = [_build(spec) for spec in specs]
        for term, reference in built:
            for other, other_reference in built:
                assert (term == other) == (reference == other_reference)
                assert (term != other) == (reference != other_reference)
                if term == other:
                    assert hash(term) == hash(other)
        assert len({term for term, _ in built}) == len({ref for _, ref in built})

    @settings(max_examples=200, deadline=None)
    @given(_SPECS, _SPECS)
    def test_no_two_kinds_are_ever_equal(self, first, second):
        (term, _), (other, _) = _build(first), _build(second)
        if first[0] != second[0]:
            assert term != other and other != term

    @settings(max_examples=200, deadline=None)
    @given(
        _SPECS,
        st.sampled_from([SOURCE, TARGET]),
        st.one_of(_TEXT, st.integers(), _SPECS.map(lambda spec: _build(spec)[0])),
    )
    def test_no_term_equals_a_union_id(self, spec, side, drawn):
        term, _ = _build(spec)
        # The term's own fields are the ids most likely to collide: a tag
        # equal to a side marker would make ``BlankNode(n) == (side, n)``.
        for node in (drawn, term, *spec[1]):
            assert term != (side, node)
            assert (side, node) not in {term}

    @settings(max_examples=300, deadline=None)
    @given(_SPECS)
    def test_rendering_and_fields_match_the_reference(self, spec):
        term, reference = _build(spec)
        assert repr(term) == repr(reference)
        assert str(term) == str(reference)
        for name in ("value", "language", "datatype", "name", "kind"):
            if hasattr(reference, name):
                assert getattr(term, name) == getattr(reference, name)
        if hasattr(reference, "sort_key"):
            assert term.sort_key() == reference.sort_key()
            assert label_sort_key(term) == reference.sort_key()

    @settings(max_examples=100, deadline=None)
    @given(_SPECS)
    def test_pickle_and_copy_rebuild_an_equal_term(self, spec):
        term, _ = _build(spec)
        copies = [
            pickle.loads(pickle.dumps(term, protocol=protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        copies += [copy.copy(term), copy.deepcopy(term)]
        for rebuilt in copies:
            assert rebuilt == term
            assert type(rebuilt) is type(term)
            assert repr(rebuilt) == repr(term)

    @pytest.mark.parametrize("term_class", [URI, Literal, BlankNode])
    def test_hash_and_equality_run_in_c(self, term_class):
        assert term_class.__hash__ is tuple.__hash__
        assert term_class.__eq__ is tuple.__eq__

    def test_every_field_is_read_only(self):
        for term, name in (
            (URI("a"), "value"),
            (Literal("a"), "value"),
            (Literal("a"), "language"),
            (Literal("a"), "datatype"),
            (BlankNode("b"), "name"),
        ):
            with pytest.raises(AttributeError):
                setattr(term, name, "x")

    def test_value_and_name_are_required(self):
        # An archive pickled before terms were tuples rebuilds each term
        # as ``cls.__new__(cls)`` and must fail, not build half a term.
        for term_class in (URI, Literal, BlankNode):
            with pytest.raises(TypeError):
                term_class.__new__(term_class)
