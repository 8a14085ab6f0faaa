"""String edit distance (Levenshtein) and literal tokenization.

`σEdit` uses the *normalized* string edit distance on unaligned literal
pairs: ``lev(s, t) / max(|s|, |t|)`` (Example 5: "abc" vs "ac" gives 1/3).
The overlap heuristic characterizes literals by their word set via
:func:`split_words` (Algorithm 2's ``split`` function).

Three Levenshtein variants are provided and benchmarked against each
other in ``benchmarks/test_micro_similarity.py``:

* :func:`levenshtein` — Hyyrö's bit-vector form of Myers' algorithm over
  Python ints: one column of the dynamic program per character of the
  shorter string, each column a handful of big-int operations, so long
  strings cost no extra Python-level steps;
* :func:`levenshtein_banded` — diagonal band when only distances below a
  cutoff matter (O(cutoff·max(|s|,|t|)) time),
* early-exit length test built into :func:`bounded_normalized_levenshtein`.

The classic two-row dynamic program stays in the tests as the reference
that :func:`levenshtein` must equal.
"""

from __future__ import annotations

import re

_WORD_PATTERN = re.compile(r"[^\W_]+", re.UNICODE)


def levenshtein(first: str, second: str) -> int:
    """The unit-cost string edit distance (insert/delete/substitute).

    >>> levenshtein("abc", "ac")
    1

    Bit ``i`` of the vectors describes row ``i`` of the current column of
    the dynamic program over the longer string (the *pattern*): whether
    the vertical or horizontal difference to the neighbouring cell is +1
    or -1 (Hyyrö, 2003).  The last row's horizontal difference moves the
    distance, which starts at the pattern length.
    """
    if first == second:
        return 0
    # The loop runs over the shorter string; the longer one is the pattern.
    if len(first) < len(second):
        first, second = second, first
    if not second:
        return len(first)
    matches: dict[str, int] = {}
    bit = 1
    for char in first:
        matches[char] = matches.get(char, 0) | bit
        bit <<= 1
    full = bit - 1
    last = bit >> 1
    vertical_up, vertical_down = full, 0
    distance = len(first)
    for char in second:
        match = matches.get(char, 0)
        column = match | vertical_down
        diagonal = (((match & vertical_up) + vertical_up) ^ vertical_up) | match
        horizontal_up = vertical_down | (full & ~(diagonal | vertical_up))
        horizontal_down = vertical_up & diagonal
        if horizontal_up & last:
            distance += 1
        elif horizontal_down & last:
            distance -= 1
        # Row 0 of every column is one more than the last: shift in a +1.
        horizontal_up = ((horizontal_up << 1) | 1) & full
        horizontal_down = (horizontal_down << 1) & full
        vertical_up = horizontal_down | (full & ~(column | horizontal_up))
        vertical_down = horizontal_up & column
    return distance


def levenshtein_banded(first: str, second: str, cutoff: int) -> int:
    """Levenshtein distance, or ``cutoff + 1`` if it exceeds *cutoff*.

    Only cells within *cutoff* of the main diagonal can contribute to a
    distance ≤ cutoff, so the dynamic program is restricted to that band.
    """
    if cutoff < 0:
        return 1 if first != second else 0
    if first == second:
        return 0
    if abs(len(first) - len(second)) > cutoff:
        return cutoff + 1
    if len(first) < len(second):
        first, second = second, first
    columns = len(second)
    big = cutoff + 1
    if columns == 0:
        return len(first) if len(first) <= cutoff else big
    previous = [col if col <= cutoff else big for col in range(columns + 1)]
    for row, char_first in enumerate(first, start=1):
        current = [big] * (columns + 1)
        if row <= cutoff:
            current[0] = row
        window_low = max(1, row - cutoff)
        window_high = min(columns, row + cutoff)
        row_best = current[0]
        for col in range(window_low, window_high + 1):
            substitution = previous[col - 1] + (char_first != second[col - 1])
            deletion = previous[col] + 1
            insertion = current[col - 1] + 1
            best = substitution
            if deletion < best:
                best = deletion
            if insertion < best:
                best = insertion
            if best > big:
                best = big
            current[col] = best
            if best < row_best:
                row_best = best
        if row_best > cutoff:
            return big
        previous = current
    distance = previous[columns]
    return distance if distance <= cutoff else big


def normalized_levenshtein(first: str, second: str) -> float:
    """``lev(s, t) / max(|s|, |t|)`` in [0, 1]; two empty strings give 0.

    >>> normalized_levenshtein("abc", "ac")
    0.3333333333333333
    """
    longest = max(len(first), len(second))
    if longest == 0:
        return 0.0
    return levenshtein(first, second) / longest


def bounded_normalized_levenshtein(first: str, second: str, threshold: float) -> float:
    """Normalized distance, or 1.0 as soon as it provably exceeds *threshold*.

    Uses the banded dynamic program with cutoff ``⌊threshold·max_len⌋`` so
    that clearly-dissimilar pairs are rejected in linear time.
    """
    longest = max(len(first), len(second))
    if longest == 0:
        return 0.0
    cutoff = int(threshold * longest)
    distance = levenshtein_banded(first, second, cutoff)
    if distance > cutoff:
        return 1.0
    return distance / longest


def split_words(text: str) -> frozenset[str]:
    """Split a literal value into its set of words (Algorithm 2's ``split``).

    Words are maximal alphanumeric runs, lowercased; the characterizing
    set drives the overlap heuristic's inverted index.

    >>> sorted(split_words("University of Edinburgh"))
    ['edinburgh', 'of', 'university']
    """
    return frozenset(match.group(0).lower() for match in _WORD_PATTERN.finditer(text))


def character_set(text: str) -> frozenset[str]:
    """Characterize a literal by its set of (lowercased) characters.

    An alternative to :func:`split_words` for data whose literals are
    single tokens — word sets of such literals are disjoint after any edit,
    so the overlap filter would reject every candidate.  The paper's toy
    example (Figure 7: "abc" vs "ac") is in this regime.
    """
    return frozenset(text.lower()) - frozenset(" \t\n")


def qgrams(text: str, q: int = 2) -> frozenset[str]:
    """Positional-free padded q-grams — a middle ground characterizer.

    >>> sorted(qgrams("abc"))
    ['#a', 'ab', 'bc', 'c#']
    """
    padded = "#" + text.lower() + "#"
    if len(padded) <= q:
        return frozenset((padded,))
    return frozenset(padded[i:i + q] for i in range(len(padded) - q + 1))
