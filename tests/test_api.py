"""End-to-end alignment through the session API and the CLI (repro.cli)."""

from __future__ import annotations

import pytest

from repro import Aligner
from repro.align import method_order
from repro.cli import main
from repro.io import ntriples
from repro.model import blank, uri
from repro.similarity.string_distance import character_set


class TestAlignVersions:
    def test_methods_form_hierarchy(self, figure3_graphs):
        source, target = figure3_graphs
        pair_sets = {}
        for method in ("trivial", "deblank", "hybrid"):
            result = Aligner(method=method).align(source, target)
            pair_sets[method] = set(result.alignment.pairs())
        assert pair_sets["trivial"] <= pair_sets["deblank"] <= pair_sets["hybrid"]

    def test_overlap_returns_weighted(self, figure7_graphs):
        source, target = figure7_graphs
        result = Aligner(method="overlap", splitter=character_set).align(
            source, target
        )
        assert result.weighted is not None
        assert result.trace is not None
        assert result.matched_entities() > 0

    def test_figure1_story(self, figure1_graphs):
        """The paper's opening example end to end."""
        source, target = figure1_graphs
        result = Aligner(method="hybrid").align(source, target)
        graph = result.graph
        # Bisimulation aligns the address records b1/b3.
        assert result.alignment.aligned(
            graph.from_source(blank("b1")), graph.from_target(blank("b3"))
        )
        # Hybrid aligns the renamed university URI.
        assert result.alignment.aligned(
            graph.from_source(uri("ed-uni")), graph.from_target(uri("uoe"))
        )

    def test_figure1_name_record_needs_similarity(self, figure1_graphs):
        """The name record b2/b4 is beyond bisimulation (Figure 1).

        σEdit aligns it: the matching couples the first/last names
        ((0.5 + 0 + 1)/3 = 0.5), while the overlap *heuristic* cannot even
        propose the pair ("Sławek" and "Sławomir" share no words, so the
        candidate filter rejects it) — the approximation-incompleteness
        trade-off the paper describes in the introduction.
        """
        from repro.similarity.edit_distance import EditDistance

        source, target = figure1_graphs
        hybrid = Aligner(method="hybrid").align(source, target)
        graph = hybrid.graph
        b2 = graph.from_source(blank("b2"))
        b4 = graph.from_target(blank("b4"))
        assert not hybrid.alignment.aligned(b2, b4)

        edit = EditDistance(graph, base=hybrid.partition, interner=hybrid.interner)
        assert edit.distance(b2, b4) == pytest.approx(0.5)
        assert (b2, b4) in {(n, m) for n, m, __ in edit.aligned_pairs(theta=0.5)}

        overlap = Aligner(method="overlap", theta=0.7).align(source, target)
        graph = overlap.graph
        assert not overlap.alignment.aligned(
            graph.from_source(blank("b2")), graph.from_target(blank("b4"))
        )

    def test_unknown_method(self, figure3_graphs):
        from repro.exceptions import ExperimentError, UnknownMethodError

        # The precise new type, still catchable as the legacy one.
        with pytest.raises(UnknownMethodError):
            Aligner(method="bogus").align(*figure3_graphs)
        with pytest.raises(ExperimentError):
            Aligner(method="bogus").align(*figure3_graphs)

    def test_unknown_engine(self, figure3_graphs):
        from repro.exceptions import ExperimentError, UnknownEngineError

        with pytest.raises(UnknownEngineError):
            Aligner(engine="sparse").align(*figure3_graphs)
        with pytest.raises(ExperimentError):
            Aligner(engine="sparse").align(*figure3_graphs)

    def test_theta_out_of_range(self, figure3_graphs):
        from repro.exceptions import ThresholdError

        with pytest.raises(ThresholdError):
            Aligner(method="overlap", theta=1.5).align(*figure3_graphs)

    def test_unaligned_counts(self, figure3_graphs):
        result = Aligner(method="trivial").align(*figure3_graphs)
        unaligned_source, unaligned_target = result.unaligned_counts()
        assert unaligned_source > 0 and unaligned_target > 0

    def test_method_order_constant(self):
        assert method_order() == (
            "trivial", "deblank", "hybrid", "overlap",
            "bisim", "kbisim", "kbisim_deblank",
        )


class TestAlignMany:
    @pytest.mark.parametrize("method", method_order())
    @pytest.mark.parametrize("engine", ["reference", "dense"])
    def test_matches_align_versions(self, method, engine):
        from repro.datasets.gtopdb import GtoPdbGenerator

        graphs = GtoPdbGenerator(scale=0.12, seed=2016, versions=4).graphs()
        aligner = Aligner(method=method, engine=engine)
        batch = aligner.align_many(graphs[0], graphs[1:])
        assert len(batch) == 3
        for target, result in zip(graphs[1:], batch):
            single = Aligner(method=method, engine=engine).align(graphs[0], target)
            assert result.partition.equivalent_to(single.partition)
            assert result.matched_entities() == single.matched_entities()
            assert result.unaligned_counts() == single.unaligned_counts()

    def test_empty_target_list(self, figure3_graphs):
        assert Aligner().align_many(figure3_graphs[0], []) == []

    def test_bad_engine_fails_fast(self, figure3_graphs):
        from repro.exceptions import ReproError

        with pytest.raises(ReproError):
            Aligner(engine="nope").align_many(figure3_graphs[0], [figure3_graphs[1]])

    def test_overlap_batch_shares_literal_characterization(self, figure1_graphs):
        source, target = figure1_graphs
        batch = Aligner(method="overlap").align_many(source, [target, target])
        single = Aligner(method="overlap").align(source, target)
        for result in batch:
            assert result.partition.equivalent_to(single.partition)
            assert result.weighted is not None
            assert result.trace is not None


class TestCLI:
    @pytest.fixture
    def version_files(self, tmp_path, figure1_graphs):
        source, target = figure1_graphs
        source_path = tmp_path / "v1.nt"
        target_path = tmp_path / "v2.nt"
        ntriples.dump_path(source, source_path)
        ntriples.dump_path(target, target_path)
        return str(source_path), str(target_path)

    def test_align_summary(self, version_files, capsys):
        assert main(["align", *version_files, "--method", "hybrid"]) == 0
        out = capsys.readouterr().out
        assert "matched_entities=" in out

    def test_align_pairs_output(self, version_files, tmp_path, capsys):
        output = str(tmp_path / "pairs.tsv")
        assert main(["align", *version_files, "--pairs", "--output", output]) == 0
        content = open(output).read()
        assert "\t" in content

    def test_stats(self, version_files, capsys):
        assert main(["stats", version_files[0]]) == 0
        assert "edges:" in capsys.readouterr().out

    def test_generate_and_stats_roundtrip(self, tmp_path, capsys):
        out = str(tmp_path / "g.nt")
        code = main(
            ["generate", "gtopdb", "--graph-version", "1", "--scale", "0.1", "--out", out]
        )
        assert code == 0
        assert main(["stats", out]) == 0

    def test_missing_file_reports_error(self, capsys):
        assert main(["stats", "/nonexistent/file.nt"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_delta_command(self, version_files, capsys):
        assert main(["delta", *version_files, "--method", "hybrid"]) == 0
        out = capsys.readouterr().out
        assert "delta summary:" in out
        assert "renamed" in out  # ed-uni -> uoe

    def test_experiment_command(self, tmp_path, capsys):
        code = main(
            [
                "experiment",
                "figure12",
                "--scale",
                "0.15",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "figure12.txt").exists()

    def test_align_report_round_trips(self, version_files, tmp_path, capsys):
        from repro.align import AlignmentReport

        report_path = str(tmp_path / "report.json")
        code = main(
            ["align", *version_files, "--method", "hybrid", "--report", report_path]
        )
        assert code == 0
        assert "wrote report" in capsys.readouterr().out
        report = AlignmentReport.load(report_path)
        assert report.method == "hybrid"
        assert AlignmentReport.validate(report.to_dict()) == []
        assert AlignmentReport.from_json(report.to_json()) == report

    def test_align_baseline_method(self, version_files, tmp_path, capsys):
        """The registry's baselines are CLI-selectable end to end."""
        report_path = str(tmp_path / "flooding.json")
        code = main(
            [
                "align",
                *version_files,
                "--method",
                "similarity_flooding",
                "--report",
                report_path,
            ]
        )
        assert code == 0
        assert "method=similarity_flooding" in capsys.readouterr().out
        from repro.align import AlignmentReport

        report = AlignmentReport.load(report_path)
        assert report.method == "similarity_flooding"
        assert report.diagnostics["rounds"] >= 1

    def test_align_turtle_input(self, tmp_path, figure1_graphs, capsys):
        from repro.io import turtle

        source, target = figure1_graphs
        source_path = tmp_path / "v1.ttl"
        target_path = tmp_path / "v2.ttl"
        source_path.write_text(turtle.dumps(source), encoding="utf-8")
        target_path.write_text(turtle.dumps(target), encoding="utf-8")
        code = main(["align", str(source_path), str(target_path), "--pairs"])
        assert code == 0
        assert "matched_entities=" in capsys.readouterr().out

    def test_align_bad_theta_reports_error(self, version_files, capsys):
        assert main(["align", *version_files, "--theta", "1.5"]) == 1
        assert "theta" in capsys.readouterr().err
