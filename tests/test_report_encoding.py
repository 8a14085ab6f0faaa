"""The report's class-by-class pair order and its row encoder.

``AlignmentReport.from_result`` takes its pairs from ``sorted_pairs`` and
``to_json`` splices encoded rows into the small fields, so neither sorts
pairs nor builds the payload.  Both are checked here against the
code they replace, kept as the reference: ``tuple(sorted((render(s),
render(t)) ...))`` for the rows and ``json.dumps(to_dict(),
indent=indent, sort_keys=True)`` for the bytes.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import assume, given, settings

from repro.align import AlignConfig, Aligner, AlignmentReport, method_names
from repro.align.report import reports_to_json
from repro.baselines.label_invention import CyclicBlankError
from repro.model import RDFGraph, blank, lit, uri
from repro.model.graph import TripleGraph

from .test_properties import evolving_pairs

INDENTS = (None, 0, 2, 4, "\t")
ENGINES = ("reference", "dense")


def reference_rows(result) -> tuple[tuple, tuple, tuple]:
    """The rows as the report built them before class-by-class order."""
    graph = result.graph
    alignment = result.alignment

    def render(node) -> str:
        return repr(graph.original(node))

    return (
        tuple(sorted((render(s), render(t)) for s, t in alignment.pairs())),
        tuple(sorted(render(n) for n in alignment.unaligned_source())),
        tuple(sorted(render(n) for n in alignment.unaligned_target())),
    )


def assert_matches_reference(result, config=None) -> AlignmentReport:
    report = AlignmentReport.from_result(result, config)
    rows = (report.pairs, report.unaligned_source, report.unaligned_target)
    assert rows == reference_rows(result)
    assert report.stats["pair_count"] == len(report.pairs)
    for indent in INDENTS:
        expected = json.dumps(report.to_dict(), indent=indent, sort_keys=True)
        assert report.to_json(indent) == expected
        assert AlignmentReport.from_json(expected) == report
    for reports in ([], [report], [report, report]):
        assert reports_to_json(reports) == json.dumps(
            [r.to_dict() for r in reports], indent=2, sort_keys=True
        )
    return report


class TestAgainstReferenceRendering:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("method", method_names())
    @settings(max_examples=12, deadline=None)
    @given(graphs=evolving_pairs())
    def test_drawn_pairs(self, graphs, method, engine):
        config = AlignConfig(method=method, engine=engine)
        try:
            result = Aligner(config).align(*graphs)
        except CyclicBlankError:  # label invention refuses blank cycles
            assume(False)
        assert_matches_reference(result, config)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_empty_alignment(self, engine):
        v1, v2 = RDFGraph(), RDFGraph()
        v1.add(uri("a"), uri("p"), lit("x"))
        v2.add(uri("b"), uri("q"), lit("y"))
        report = assert_matches_reference(
            Aligner(method="trivial", engine=engine).align(v1, v2)
        )
        assert report.pairs == () and len(report.unaligned_source) == 3
        empty = Aligner(method="trivial", engine=engine).align(RDFGraph(), RDFGraph())
        report = assert_matches_reference(empty)
        assert report.pairs == report.unaligned_source == report.unaligned_target == ()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_one_thirty_by_twenty_class(self, engine):
        v1, v2 = RDFGraph(), RDFGraph()
        for index in range(30):
            v1.add(blank(f"s{index}"), uri("p"), lit("x"))
        for index in range(20):
            v2.add(blank(f"t{index}"), uri("p"), lit("x"))
        report = assert_matches_reference(
            Aligner(method="deblank", engine=engine).align(v1, v2)
        )
        assert report.stats["matched_entities"] == 3
        assert len(report.pairs) == 30 * 20 + 2

    def test_literals_with_escapes(self):
        texts = ['say "hi"', "back\\slash", "ctl\x00\x01\x1f\x7f", "tab\tnl\n", "é漢😀 "]
        v1, v2 = RDFGraph(), RDFGraph()
        for index, text in enumerate(texts):
            v1.add(uri(f"s{index}"), uri("p"), lit(text))
            v2.add(uri(f"s{index}"), uri("p"), lit(text if index % 2 else text + "!"))
        report = assert_matches_reference(Aligner(method="trivial").align(v1, v2))
        assert report.unaligned_source and report.unaligned_target
        assert report.to_json().isascii()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_nodes_sharing_a_rendering(self, engine):
        """Two ``nan`` ids render alike but sit in different classes; the
        class listed first holds the later target, so the two runs must
        be merged, not written one after the other."""
        first, second, third = float("nan"), float("nan"), float("nan")
        source, target = TripleGraph(), TripleGraph()
        source.add_node(first, uri("b"))
        source.add_node(second, uri("a"))
        source.add_node(third, uri("b"))
        target.add_node("x", uri("a"))
        target.add_node("y", uri("b"))
        target.add_node("z", uri("b"))
        result = Aligner(method="trivial", engine=engine).align(source, target)
        report = assert_matches_reference(result)
        assert report.pairs == (
            ("nan", "'x'"), ("nan", "'y'"), ("nan", "'y'"), ("nan", "'z'"), ("nan", "'z'"),
        )

    @pytest.mark.parametrize("indent", [-1, True, 1, "\n", " \x00", "ab"])
    def test_any_indent_json_dumps_accepts(self, figure1_graphs, indent):
        report = Aligner(method="overlap").report(*figure1_graphs)
        assert report.diagnostics
        assert report.to_json(indent) == json.dumps(
            report.to_dict(), indent=indent, sort_keys=True
        )

    def test_baseline_result(self, figure1_graphs):
        config = AlignConfig(method="similarity_flooding")
        result = Aligner(config).align(*figure1_graphs)
        assert type(result.alignment).__name__ == "PairAlignment"
        assert_matches_reference(result, config)

    def test_sorted_pairs_calls_key_once_per_matched_node(self, figure1_graphs):
        result = Aligner(method="deblank").align(*figure1_graphs)
        calls: list = []

        def key(node):
            calls.append(node)
            return result.graph.sort_key(node)

        pairs = list(result.alignment.sorted_pairs(key))
        assert sorted(calls) == sorted({node for pair in pairs for node in pair})
        assert set(pairs) == set(result.alignment.pairs())
