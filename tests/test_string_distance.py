"""Unit and property tests for string distances (repro.similarity.string_distance)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.similarity.string_distance import (
    bounded_normalized_levenshtein,
    character_set,
    levenshtein,
    levenshtein_banded,
    normalized_levenshtein,
    qgrams,
    split_words,
)

short_text = st.text(alphabet="abcde ", max_size=14)


def reference_levenshtein(first: str, second: str) -> int:
    """The classic two-row dynamic program, the bit-vector form's oracle."""
    previous = list(range(len(second) + 1))
    for row, char_first in enumerate(first, start=1):
        current = [row]
        for col, char_second in enumerate(second, start=1):
            current.append(
                min(
                    previous[col - 1] + (char_first != char_second),
                    previous[col] + 1,
                    current[col - 1] + 1,
                )
            )
        previous = current
    return previous[-1]


#: Small alphabets (so strings share characters) including non-ASCII
#: ones, and lengths past one 64-bit word.
_ALPHABETS = st.sampled_from(["ab", "abc d", "aéü\U0001F600 ", "xyzXYZ\u00df\u03a3"])


@st.composite
def string_pairs(draw):
    alphabet = draw(_ALPHABETS)
    text = st.text(alphabet=alphabet, max_size=150)
    first = draw(text)
    kind = draw(st.sampled_from(["independent", "equal", "edited", "empty"]))
    if kind == "equal":
        return first, first
    if kind == "empty":
        return first, ""
    if kind == "edited":
        chars = list(first)
        for _ in range(draw(st.integers(0, 8))):
            position = draw(st.integers(0, len(chars)))
            char = draw(st.sampled_from(alphabet))
            if position < len(chars) and draw(st.booleans()):
                chars[position] = char
            else:
                chars.insert(position, char)
        return first, "".join(chars)
    return first, draw(text)


class TestLevenshtein:
    @pytest.mark.parametrize(
        "first,second,expected",
        [
            ("", "", 0),
            ("a", "", 1),
            ("", "abc", 3),
            ("abc", "abc", 0),
            ("abc", "ac", 1),
            ("kitten", "sitting", 3),
            ("flaw", "lawn", 2),
            ("Sławek", "Sławomir", 4),
        ],
    )
    def test_known_distances(self, first, second, expected):
        assert levenshtein(first, second) == expected

    @given(pair=string_pairs())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_dynamic_program(self, pair):
        first, second = pair
        assert levenshtein(first, second) == reference_levenshtein(first, second)
        assert levenshtein(second, first) == reference_levenshtein(second, first)

    @pytest.mark.parametrize("length", [63, 64, 65, 128, 200])
    def test_word_boundaries(self, length):
        first = "ab" * length
        assert levenshtein(first[:length], first[1 : length + 1]) == reference_levenshtein(
            first[:length], first[1 : length + 1]
        )
        assert levenshtein("a" * length, "b" + "a" * (length - 1)) == 1
        assert levenshtein("a" * length, "") == length

    @given(first=short_text, second=short_text)
    def test_symmetry(self, first, second):
        assert levenshtein(first, second) == levenshtein(second, first)

    @given(text=short_text)
    def test_identity(self, text):
        assert levenshtein(text, text) == 0

    @given(first=short_text, second=short_text, third=short_text)
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, first, second, third):
        assert levenshtein(first, third) <= levenshtein(first, second) + levenshtein(
            second, third
        )

    @given(first=short_text, second=short_text)
    def test_length_difference_lower_bound(self, first, second):
        assert levenshtein(first, second) >= abs(len(first) - len(second))


class TestBanded:
    @given(first=short_text, second=short_text, cutoff=st.integers(0, 12))
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_plain_within_cutoff(self, first, second, cutoff):
        exact = levenshtein(first, second)
        banded = levenshtein_banded(first, second, cutoff)
        if exact <= cutoff:
            assert banded == exact
        else:
            assert banded == cutoff + 1

    def test_negative_cutoff(self):
        assert levenshtein_banded("a", "b", -1) == 1
        assert levenshtein_banded("a", "a", -1) == 0


class TestNormalized:
    def test_paper_example(self):
        """Example 5: "abc" vs "ac" differ by one char over length 3."""
        assert normalized_levenshtein("abc", "ac") == pytest.approx(1 / 3)

    def test_paper_example_a_ac(self):
        """The raw normalized distance of "a" vs "ac" is 1/2 (Example 5)."""
        assert normalized_levenshtein("a", "ac") == pytest.approx(1 / 2)

    def test_empty_strings(self):
        assert normalized_levenshtein("", "") == 0.0
        assert normalized_levenshtein("", "ab") == 1.0

    @given(first=short_text, second=short_text)
    def test_in_unit_interval(self, first, second):
        assert 0.0 <= normalized_levenshtein(first, second) <= 1.0

    @given(first=short_text, second=short_text, theta=st.floats(0.05, 0.95))
    @settings(max_examples=80, deadline=None)
    def test_bounded_variant_consistent(self, first, second, theta):
        exact = normalized_levenshtein(first, second)
        bounded = bounded_normalized_levenshtein(first, second, theta)
        if exact <= theta:
            assert bounded == pytest.approx(exact)
        else:
            assert bounded == 1.0


class TestCharacterizers:
    def test_split_words(self):
        assert split_words("University of Edinburgh") == {
            "university",
            "of",
            "edinburgh",
        }

    def test_split_words_strips_punctuation(self):
        assert split_words("a-b, c_d!") == {"a", "b", "c", "d"}

    def test_split_words_empty(self):
        assert split_words("") == frozenset()
        assert split_words("!!!") == frozenset()

    def test_character_set(self):
        assert character_set("Abc a") == {"a", "b", "c"}

    def test_qgrams(self):
        assert qgrams("abc") == {"#a", "ab", "bc", "c#"}
        assert qgrams("") == {"##"}
        assert qgrams("a") == {"#a", "a#"}

    def test_qgram_width(self):
        grams = qgrams("abcd", q=3)
        assert "#ab" in grams and "cd#" in grams
