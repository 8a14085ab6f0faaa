"""Tests for delta derivation (repro.delta)."""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

from repro.core.hybrid import hybrid_partition
from repro.core.trivial import trivial_partition
from repro.datasets import EFOGenerator
from repro.datasets.synthetic import SCENARIOS, SyntheticGenerator
from repro.delta import VersionChanges, compute_delta, diff, render_delta
from repro.io import ntriples
from repro.model import RDFGraph, blank, combine, lit, uri
from repro.partition.coloring import Partition
from repro.partition.interner import ColorInterner

from .conftest import random_rdf_graph


@pytest.fixture
def change_pair():
    source = RDFGraph()
    source.add(uri("a"), uri("p"), lit("kept"))
    source.add(uri("a"), uri("p"), lit("dropped value"))
    source.add(uri("old-name"), uri("p"), lit("anchor one two three"))
    target = RDFGraph()
    target.add(uri("a"), uri("p"), lit("kept"))
    target.add(uri("a"), uri("q"), lit("fresh value"))
    target.add(uri("new-name"), uri("p"), lit("anchor one two three"))
    return combine(source, target)


class TestComputeDelta:
    def test_renames_detected_via_hybrid(self, change_pair):
        partition = hybrid_partition(change_pair, ColorInterner())
        delta = compute_delta(change_pair, partition)
        renames = {
            (str(change.source_label), str(change.target_label))
            for change in delta.renamed_nodes
        }
        assert ("old-name", "new-name") in renames

    def test_insertions_and_deletions(self, change_pair):
        partition = hybrid_partition(change_pair, ColorInterner())
        delta = compute_delta(change_pair, partition)
        deleted = {str(change.source_label) for change in delta.deleted_nodes}
        inserted = {str(change.target_label) for change in delta.inserted_nodes}
        assert "dropped value" in deleted
        assert "fresh value" in inserted
        assert "q" in inserted  # the new predicate URI

    def test_kept_triples_modulo_alignment(self, change_pair):
        """The anchor triple survives the rename: not a change."""
        partition = hybrid_partition(change_pair, ColorInterner())
        delta = compute_delta(change_pair, partition)
        removed = {
            repr(change_pair.original(o)) for __, __p, o in delta.removed_triples
        }
        assert not any("anchor" in text for text in removed)
        assert delta.kept_triple_count >= 2  # a-p-kept and the anchor triple

    def test_trivial_alignment_sees_rename_as_delete_plus_insert(self, change_pair):
        partition = trivial_partition(change_pair, ColorInterner())
        delta = compute_delta(change_pair, partition)
        assert not delta.renamed_nodes
        deleted = {str(change.source_label) for change in delta.deleted_nodes}
        assert "old-name" in deleted

    def test_identity_delta_is_empty(self):
        g = RDFGraph()
        g.add(uri("a"), uri("p"), blank("b"))
        g.add(blank("b"), uri("q"), lit("x"))
        union = combine(g, g.copy())
        partition = hybrid_partition(union, ColorInterner())
        delta = compute_delta(union, partition)
        assert delta.is_empty
        assert delta.kept_node_count == union.num_nodes // 2
        assert delta.kept_triple_count == 2

    def test_ambiguous_nodes_reported(self):
        union_graph = RDFGraph()
        union_graph.add(uri("s"), uri("p"), lit("x"))
        union = combine(union_graph, union_graph.copy())
        # Force every node into one class: everything ambiguous.
        partition = Partition({node: 0 for node in union.nodes()})
        delta = compute_delta(union, partition)
        assert len(delta.ambiguous_nodes) == 3

    def test_summary_totals(self, change_pair):
        partition = hybrid_partition(change_pair, ColorInterner())
        delta = compute_delta(change_pair, partition)
        summary = delta.summary()
        source_nodes = len(change_pair.source_nodes)
        accounted = (
            summary["kept_nodes"]
            + summary["deleted_nodes"]
            + summary["renamed_nodes"]
            + summary["ambiguous_nodes"]
        )
        assert accounted == source_nodes


def test_delta_command_output_independent_of_hash_seed(tmp_path):
    """``rdf-align delta`` prints the same bytes under any PYTHONHASHSEED:
    which edge stands for a color key, and the order of the triple
    lists, come from rendered terms, not from set order or color ids."""
    generator = EFOGenerator(scale=0.3)
    paths = []
    for version in (0, 1):
        path = tmp_path / f"v{version + 1}.nt"
        ntriples.dump_path(generator.graph(version), path)
        paths.append(str(path))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        child = subprocess.run(
            [sys.executable, "-m", "repro", "delta", *paths],
            capture_output=True, text=True, env=env, check=True, timeout=120,
        )
        outputs.append(child.stdout)
    assert outputs[0] == outputs[1]
    assert "removed triples:" in outputs[0] and "added triples:" in outputs[0]


@pytest.mark.parametrize(
    "command",
    [["align", "--method", "overlap", "--pairs"], ["delta"]],
    ids=["align-pairs", "delta"],
)
def test_cli_output_independent_of_line_order(tmp_path, capsys, command):
    """Union ids follow file order, so no id order may reach the output:
    shuffling both files' lines leaves ``align --pairs`` and ``delta``
    byte-identical."""
    from repro.cli import main

    generator = EFOGenerator(scale=0.3)
    rng = random.Random(7)
    runs = {}
    for shuffled in (False, True):
        paths = []
        for version in (0, 1):
            lines = ntriples.dumps(generator.graph(version)).splitlines(keepends=True)
            if shuffled:
                rng.shuffle(lines)
            path = tmp_path / f"v{version + 1}-{shuffled}.nt"
            path.write_text("".join(lines), encoding="utf-8")
            paths.append(str(path))
        assert main([command[0], *paths, *command[1:]]) == 0
        runs[shuffled] = capsys.readouterr().out
    assert runs[False] == runs[True]
    assert runs[False].count("\n") > 20


class TestRenderDelta:
    def test_render_contains_sections(self, change_pair):
        partition = hybrid_partition(change_pair, ColorInterner())
        delta = compute_delta(change_pair, partition)
        out = render_delta(change_pair, delta)
        assert "delta summary:" in out
        assert "renamed:" in out
        assert "old-name -> new-name" in out

    def test_render_truncates(self, change_pair):
        partition = hybrid_partition(change_pair, ColorInterner())
        delta = compute_delta(change_pair, partition)
        out = render_delta(change_pair, delta, limit=0)
        assert "more" in out


def _version_pair():
    before = RDFGraph()
    before.add(uri("a"), uri("p"), lit("kept"))
    before.add(uri("a"), uri("p"), lit("dropped"))
    before.add(uri("old-name"), uri("p"), blank("b1"))
    before.add(blank("b1"), uri("q"), lit("anchor"))
    after = RDFGraph()
    after.add(uri("a"), uri("p"), lit("kept"))
    after.add(uri("a"), uri("r"), lit("fresh"))
    after.add(uri("new-name"), uri("p"), blank("b2"))
    after.add(blank("b2"), uri("q"), lit("anchor"))
    renames = {uri("old-name"): uri("new-name"), blank("b1"): blank("b2")}
    return before, after, renames


class TestVersionChanges:
    """The edit-script constructor (diff/apply/compose) used by
    incremental maintenance (repro.core.maintain)."""

    def test_diff_apply_round_trips_to_identical_ntriples(self):
        before, after, renames = _version_pair()
        changes = diff(before, after, renames=renames)
        assert ntriples.dumps(changes.apply(before)) == ntriples.dumps(after)

    def test_round_trip_without_rename_hints(self):
        """Identifier matching alone: renames become remove + insert,
        apply still reproduces the target bytes."""
        before, after, _ = _version_pair()
        changes = diff(before, after)
        assert not changes.renamed
        assert ntriples.dumps(changes.apply(before)) == ntriples.dumps(after)

    def test_random_graph_round_trips(self):
        rng = random.Random(20160912)
        for _ in range(10):
            before = random_rdf_graph(rng, uri_prefix="d")
            after = random_rdf_graph(rng, uri_prefix="d")
            changes = diff(before, after)
            assert ntriples.dumps(changes.apply(before)) == ntriples.dumps(after)

    def test_generator_deltas_round_trip(self):
        """The mutation_chain generator's identity-preserving deltas
        reproduce each next version byte-for-byte."""
        generator = SyntheticGenerator(config=SCENARIOS["mutation_chain"])
        graphs = generator.graphs()
        for index in range(len(graphs) - 1):
            changes = generator.version_changes(index)
            assert ntriples.dumps(changes.apply(graphs[index])) == ntriples.dumps(
                graphs[index + 1]
            )

    def test_empty_delta_is_a_no_op(self):
        before, _, _ = _version_pair()
        changes = VersionChanges()
        assert changes.is_empty
        assert ntriples.dumps(changes.apply(before)) == ntriples.dumps(before)

    def test_diff_of_identical_graphs_is_empty(self):
        before, _, _ = _version_pair()
        changes = diff(before, before.copy())
        assert changes.is_empty

    def test_compose_matches_sequential_application(self):
        rng = random.Random(4242)
        for _ in range(10):
            g1 = random_rdf_graph(rng, uri_prefix="c")
            g2 = random_rdf_graph(rng, uri_prefix="c")
            g3 = random_rdf_graph(rng, uri_prefix="c")
            first = diff(g1, g2)
            second = diff(g2, g3)
            composed = first.compose(second)
            assert ntriples.dumps(composed.apply(g1)) == ntriples.dumps(g3)

    def test_compose_with_renames(self):
        before, mid, renames = _version_pair()
        after = RDFGraph()
        after.add(uri("a"), uri("p"), lit("kept"))
        after.add(uri("a"), uri("r"), lit("fresh"))
        after.add(uri("final-name"), uri("p"), blank("b3"))
        after.add(blank("b3"), uri("q"), lit("anchor"))
        first = diff(before, mid, renames=renames)
        second = diff(
            mid, after,
            renames={uri("new-name"): uri("final-name"), blank("b2"): blank("b3")},
        )
        composed = first.compose(second)
        assert ntriples.dumps(composed.apply(before)) == ntriples.dumps(after)
        # The chained rename survives composition end to end.
        assert composed.rename_map()[uri("old-name")] == uri("final-name")

    def test_summary_counts(self):
        before, after, renames = _version_pair()
        changes = diff(before, after, renames=renames)
        summary = changes.summary()
        assert summary["renamed_nodes"] == 2
        assert summary["removed_edges"] >= 1
        assert summary["added_edges"] >= 1
