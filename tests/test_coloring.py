"""Unit tests for partitions-as-colorings (repro.partition.coloring)."""

from __future__ import annotations

import pytest

from repro.exceptions import PartitionError
from repro.model import RDFGraph, blank, lit, uri
from repro.partition.coloring import (
    Partition,
    discrete_partition,
    label_partition,
    relation_from_partition,
)
from repro.partition.interner import ColorInterner


class TestPartitionBasics:
    def test_mapping_protocol(self):
        p = Partition({"a": 0, "b": 0, "c": 1})
        assert p["a"] == 0 and p.color("c") == 1
        assert len(p) == 3 and set(p) == {"a", "b", "c"}

    def test_missing_node_raises(self):
        with pytest.raises(PartitionError):
            Partition({"a": 0})["zzz"]

    def test_classes(self):
        p = Partition({"a": 0, "b": 0, "c": 1})
        assert p.classes() == {0: frozenset({"a", "b"}), 1: frozenset({"c"})}
        assert p.num_classes == 2
        assert p.class_of("a") == {"a", "b"}
        assert p.same_class("a", "b") and not p.same_class("a", "c")

    def test_with_colors_does_not_mutate(self):
        p = Partition({"a": 0, "b": 0})
        q = p.with_colors({"b": 5})
        assert p["b"] == 0 and q["b"] == 5

    def test_with_colors_child_shares_no_dict(self):
        updates = {"b": 5, "c": 7}
        p = Partition({"a": 0, "b": 0})
        q = p.with_colors(updates)
        assert dict(p.items()) == {"a": 0, "b": 0}
        assert dict(q.items()) == {"a": 0, "b": 5, "c": 7}
        assert q._colors is not p._colors and q._colors is not updates
        updates["a"] = 9
        assert p["a"] == 0 and q["a"] == 0
        r = q.with_colors({"a": 1})
        assert q["a"] == 0 and r["a"] == 1 and r._colors is not q._colors

    def test_as_dict_copy(self):
        p = Partition({"a": 0})
        d = p.as_dict()
        d["a"] = 9
        assert p["a"] == 0


class TestEquivalenceAndRefinement:
    def test_equivalence_ignores_color_values(self):
        p = Partition({"a": 0, "b": 0, "c": 1})
        q = Partition({"a": 7, "b": 7, "c": 3})
        assert p.equivalent_to(q) and q.equivalent_to(p)

    def test_non_equivalent(self):
        p = Partition({"a": 0, "b": 0, "c": 1})
        q = Partition({"a": 0, "b": 1, "c": 1})
        assert not p.equivalent_to(q)

    def test_equivalence_requires_same_nodes(self):
        assert not Partition({"a": 0}).equivalent_to(Partition({"b": 0}))

    def test_finer_than_is_reflexive(self):
        p = Partition({"a": 0, "b": 0, "c": 1})
        assert p.finer_than(p)

    def test_finer_than_proper(self):
        coarse = Partition({"a": 0, "b": 0, "c": 0})
        fine = Partition({"a": 0, "b": 0, "c": 1})
        assert fine.finer_than(coarse)
        assert not coarse.finer_than(fine)

    def test_finer_than_incomparable(self):
        p = Partition({"a": 0, "b": 0, "c": 1})
        q = Partition({"a": 0, "b": 1, "c": 1})
        assert not p.finer_than(q) and not q.finer_than(p)


class TestDerivedPartitions:
    def test_label_partition_groups_blanks(self):
        g = RDFGraph()
        g.add(blank("b1"), uri("p"), lit("x"))
        g.add(blank("b2"), uri("p"), lit("x"))
        interner = ColorInterner()
        part = label_partition(g, interner)
        assert part.same_class(blank("b1"), blank("b2"))
        assert not part.same_class(uri("p"), blank("b1"))

    def test_label_partition_shares_colors_across_equal_labels(self):
        g = RDFGraph()
        g.add(uri("a"), uri("p"), lit("x"))
        interner = ColorInterner()
        part = label_partition(g, interner)
        assert part.num_classes == 3

    def test_discrete_partition(self):
        interner = ColorInterner()
        part = discrete_partition(["a", "b", "c"], interner)
        assert part.num_classes == 3

    def test_relation_from_partition(self):
        p = Partition({"a": 0, "b": 0, "c": 1})
        rel = relation_from_partition(p)
        assert ("a", "b") in rel and ("b", "a") in rel
        assert ("a", "a") in rel
        assert ("a", "c") not in rel
