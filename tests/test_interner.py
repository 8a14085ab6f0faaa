"""Unit tests for the color interner (repro.partition.interner)."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.model.labels import URI
from repro.partition.interner import BLANK_KEY, ColorInterner


class TestInterner:
    def test_same_key_same_color(self):
        interner = ColorInterner()
        assert interner.intern(("a", 1)) == interner.intern(("a", 1))

    def test_distinct_keys_distinct_colors(self):
        interner = ColorInterner()
        assert interner.intern(("a",)) != interner.intern(("b",))

    def test_colors_are_dense_ints(self):
        interner = ColorInterner()
        colors = [interner.intern(("k", i)) for i in range(5)]
        assert colors == list(range(5))

    def test_key_roundtrip(self):
        interner = ColorInterner()
        color = interner.intern(("recolor", 0, ((1, 2),)))
        assert interner.key(color) == ("recolor", 0, ((1, 2),))

    def test_contains_and_len(self):
        interner = ColorInterner()
        interner.intern("x")
        assert "x" in interner and "y" not in interner
        assert len(interner) == 1
        assert list(interner) == ["x"]

    def test_convenience_constructors(self):
        interner = ColorInterner()
        assert interner.blank_color() == interner.intern(BLANK_KEY)
        assert interner.label_color(URI("a")) == interner.intern(("label", URI("a")))
        assert interner.node_color("n") == interner.intern(("node", "n"))
        assert interner.component_color(1, 0) != interner.component_color(2, 0)

    def test_repr(self):
        interner = ColorInterner()
        interner.intern("x")
        assert "colors=1" in repr(interner)


@given(st.lists(st.tuples(st.integers(), st.integers()), max_size=50))
def test_interner_is_injective_on_distinct_keys(keys):
    interner = ColorInterner()
    colors = {key: interner.intern(key) for key in keys}
    # Same key -> same color; distinct keys -> distinct colors.
    for key, color in colors.items():
        assert interner.intern(key) == color
        assert interner.key(color) == key
    assert len(set(colors.values())) == len(set(keys))


@given(
    st.lists(st.binary(max_size=3), max_size=30),
    st.lists(st.binary(max_size=3), max_size=30),
)
def test_intern_many_equals_repeated_intern(seed_keys, keys):
    bulk, single = ColorInterner(), ColorInterner()
    for key in seed_keys:
        bulk.intern(key)
        single.intern(key)
    assert bulk.intern_many(iter(keys)) == [single.intern(key) for key in keys]
    assert list(bulk) == list(single)
    assert all(bulk.intern(key) == single.intern(key) for key in seed_keys + keys)
