"""The Aligner session API: sessions, caches and reports."""

from __future__ import annotations

import gc
import json
import pickle
import weakref

import pytest

from repro.align import AlignConfig, Aligner, AlignmentReport, method_names
from repro.align.report import SCHEMA, SCHEMA_VERSION
from repro.exceptions import ReportError
from repro.io import ntriples
from repro.model import RDFGraph, blank, lit, uri
from repro.model.csr import CSRGraph


@pytest.fixture(scope="module")
def gtopdb_graphs():
    from repro.datasets.gtopdb import GtoPdbGenerator

    return GtoPdbGenerator(scale=0.12, seed=2016, versions=4).graphs()


class TestSession:
    def test_align_accepts_paths(self, tmp_path, figure1_graphs):
        source, target = figure1_graphs
        source_path = tmp_path / "v1.nt"
        target_path = tmp_path / "v2.nt"
        ntriples.dump_path(source, source_path)
        ntriples.dump_path(target, target_path)
        aligner = Aligner(AlignConfig(method="hybrid"))
        from_paths = aligner.align(str(source_path), target_path)
        from_graphs = aligner.align(source, target)
        assert (
            from_paths.report(aligner.config).to_json()
            == from_graphs.report(aligner.config).to_json()
        )
        # The parsed file is cached per path.
        assert aligner.align(str(source_path), target_path).graph.source is (
            from_paths.graph.source
        )

    def test_align_rejects_junk(self):
        with pytest.raises(TypeError):
            Aligner().align(42, 43)  # type: ignore[arg-type]

    def test_align_pairs_reuses_graphs(self, gtopdb_graphs, monkeypatch):
        graphs = [graph.copy() for graph in gtopdb_graphs[:3]]
        walks = []
        build = CSRGraph.__init__

        def counting(snapshot, graph):
            walks.append(graph)
            build(snapshot, graph)

        monkeypatch.setattr(CSRGraph, "__init__", counting)
        aligner = Aligner(AlignConfig(method="deblank", engine="dense"))
        results = aligner.align_pairs(
            [(graphs[0], graphs[1]), (graphs[1], graphs[2]), (graphs[0], graphs[2])]
        )
        assert len(results) == 3
        # Three distinct graphs were walked exactly once each; the unions
        # were assembled from their blocks.
        assert sorted(map(id, walks)) == sorted(map(id, graphs))
        monkeypatch.undo()
        for result, (a, b) in zip(
            results, [(0, 1), (1, 2), (0, 2)]
        ):
            single = Aligner(aligner.config).align(
                gtopdb_graphs[a], gtopdb_graphs[b]
            )
            assert result.partition.equivalent_to(single.partition)

    def test_literal_characterization_shared_across_batch(self, figure1_graphs):
        source, target = figure1_graphs
        calls = []

        def counting_splitter(value: str) -> frozenset:
            calls.append(value)
            return frozenset(value.split())

        aligner = Aligner(AlignConfig(method="overlap", splitter=counting_splitter))
        aligner.align_many(source, [target, target])
        assert len(calls) == len(set(calls)), "a literal value was split twice"

    def test_report_shortcut(self, figure3_graphs):
        aligner = Aligner(AlignConfig(method="trivial"))
        report = aligner.report(*figure3_graphs)
        direct = aligner.align(*figure3_graphs).report(aligner.config)
        assert report == direct

    def test_session_caches_are_bounded(self):
        """A session over an open-ended graph stream must not pin every
        input forever: it keeps no in-memory graph (nor its snapshot)."""

        class Graph(RDFGraph):  # no __slots__, so it takes weak references
            pass

        aligner = Aligner(AlignConfig(method="deblank", engine="dense"))
        refs = []
        for index in range(4):
            g1, g2 = Graph(), Graph()
            g1.add(uri("a"), uri("p"), lit(f"x{index}"))
            g2.add(uri("a"), uri("p"), lit(f"x{index}"))
            aligner.align(g1, g2)
            assert g1.has_csr and g2.has_csr
            refs += [weakref.ref(g1), weakref.ref(g2)]
        del g1, g2
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)

    @pytest.mark.parametrize("method", method_names())
    def test_grown_graph_realigns_like_a_fresh_session(self, figure3_graphs, method):
        """A graph that grows in place between two alignments of one
        session gets a new snapshot, never its old one."""
        source, target = (graph.copy() for graph in figure3_graphs)
        config = AlignConfig(method=method, engine="dense")
        aligner = Aligner(config)
        aligner.align(source, target)
        source.add(uri("late"), uri("p"), lit("grown"))
        target.add(uri("late"), uri("p"), lit("grown"))
        again = aligner.align(source, target).report(config).to_json()
        fresh_graphs = [graph.copy() for graph in (source, target)]
        assert again == Aligner(config).align(*fresh_graphs).report(config).to_json()

    def test_pickles_carry_no_snapshot(self, figure3_graphs):
        source, target = (graph.copy() for graph in figure3_graphs)
        result = Aligner(AlignConfig(method="hybrid", engine="dense")).align(
            source, target
        )
        union = result.graph
        assert union.has_csr and source.has_csr
        for graph in (source, union):
            clone = pickle.loads(pickle.dumps(graph))
            assert not clone.has_csr
            assert list(clone.nodes()) == list(graph.nodes())
            assert set(clone.edges()) == set(graph.edges())
        clone = pickle.loads(pickle.dumps(union))
        assert not clone.source.has_csr and not clone.target.has_csr
        assert list(clone.csr().out_offsets) == list(union.csr().out_offsets)

    def test_path_cache_is_bounded(self, tmp_path, figure3_graphs):
        source, target = figure3_graphs
        aligner = Aligner(AlignConfig(method="trivial"))
        for index in range(aligner.PATH_CACHE_SIZE + 5):
            path = tmp_path / f"v{index}.nt"
            ntriples.dump_path(source, path)
            aligner.align(path, target)
        assert len(aligner._loaded) <= aligner.PATH_CACHE_SIZE


class TestBaselineMethods:
    def test_similarity_flooding_through_session(self, figure7_graphs):
        result = Aligner(AlignConfig(method="similarity_flooding")).align(
            *figure7_graphs
        )
        graph = result.graph
        # The renamed URI w/w2 is flooding's showcase match (test_baselines).
        assert result.alignment.aligned(
            graph.from_source(uri("w")), graph.from_target(uri("w2"))
        )
        assert result.details["rounds"] >= 1
        report = result.report()
        assert report.diagnostics["rounds"] >= 1
        assert ("URI('w')", "URI('w2')") in report.pairs

    def test_label_invention_through_session(self, figure3_graphs):
        result = Aligner(AlignConfig(method="label_invention")).align(
            *figure3_graphs
        )
        graph = result.graph
        # Equal records b2/b4 align on invented labels (test_baselines).
        assert result.alignment.aligned(
            graph.from_source(blank("b2")), graph.from_target(blank("b4"))
        )
        assert result.matched_entities() > 0
        unaligned_source, unaligned_target = result.unaligned_counts()
        assert unaligned_source >= 0 and unaligned_target >= 0

    def test_baseline_matched_entities_matches_partition_view(self, figure3_graphs):
        """Label invention's pair set is crossover-closed, so component
        counting agrees with the deblank partition's matched classes."""
        invention = Aligner(AlignConfig(method="label_invention")).align(
            *figure3_graphs
        )
        deblank = Aligner(AlignConfig(method="deblank")).align(*figure3_graphs)
        assert set(invention.alignment.pairs()) == set(deblank.alignment.pairs())
        assert invention.matched_entities() == deblank.matched_entities()


class TestAlignmentReport:
    def test_json_roundtrip(self, figure1_graphs):
        config = AlignConfig(method="overlap", theta=0.7)
        report = Aligner(config).report(*figure1_graphs)
        text = report.to_json()
        back = AlignmentReport.from_json(text)
        assert back == report
        assert back.to_json() == text

    def test_payload_schema(self, figure3_graphs):
        report = Aligner(AlignConfig(method="trivial")).report(*figure3_graphs)
        payload = report.to_dict()
        assert payload["schema"] == SCHEMA
        assert payload["version"] == SCHEMA_VERSION
        assert AlignmentReport.validate(payload) == []
        assert payload["stats"]["pair_count"] == len(payload["pairs"])

    def test_pairs_and_sets_sorted(self, figure3_graphs):
        report = Aligner(AlignConfig(method="hybrid")).report(*figure3_graphs)
        assert list(report.pairs) == sorted(report.pairs)
        assert list(report.unaligned_source) == sorted(report.unaligned_source)
        assert list(report.unaligned_target) == sorted(report.unaligned_target)

    def test_validate_flags_problems(self):
        assert AlignmentReport.validate("not a dict")
        assert AlignmentReport.validate({}) != []
        good = Aligner(AlignConfig(method="trivial"))
        payload = {
            "schema": "something/else", "version": 1, "method": "x",
            "engine": "reference", "parameters": {}, "stats": {},
            "pairs": [], "unaligned_source": [], "unaligned_target": [],
        }
        problems = AlignmentReport.validate(payload)
        assert any("schema" in p for p in problems)

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ReportError):
            AlignmentReport.from_json("{not json")
        with pytest.raises(ReportError):
            AlignmentReport.from_json(json.dumps({"schema": SCHEMA}))

    def test_save_load(self, tmp_path, figure3_graphs):
        report = Aligner(AlignConfig(method="deblank")).report(*figure3_graphs)
        path = tmp_path / "report.json"
        report.save(path)
        assert AlignmentReport.load(path) == report

    def test_diff(self, figure3_graphs):
        trivial = Aligner(AlignConfig(method="trivial")).report(*figure3_graphs)
        hybrid = Aligner(AlignConfig(method="hybrid")).report(*figure3_graphs)
        delta = trivial.diff(hybrid)
        assert delta["removed_pairs"] == []  # trivial ⊆ hybrid
        assert delta["added_pairs"]
        assert delta["stats"]["matched_entities"] >= 0

    def test_summary_matches_cli_line(self, figure3_graphs):
        report = Aligner(AlignConfig(method="trivial")).report(*figure3_graphs)
        assert report.summary().startswith("method=trivial matched_entities=")
