"""Integration tests: every figure experiment runs and keeps the paper's shape.

These run at small scale so the whole suite stays fast; the benchmark
harness repeats them at the default scales.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.exceptions import ExperimentError
from repro.experiments import (
    figure09,
    figure10,
    figure11,
    figure12,
    figure13,
    figure14,
    figure15,
    figure16,
)
from repro.experiments.runner import EXPERIMENTS, experiment_module, run_experiments


class TestFigure09:
    @pytest.fixture(scope="class")
    def result(self):
        return figure09.run(scale=0.4)

    def test_shape(self, result):
        assert figure09.check_shape(result) == []

    def test_rows_per_version(self, result):
        assert len(result.rows) == 10
        assert result.rows[0]["version"] == 1

    def test_render_contains_table(self, result):
        assert "edges" in result.render()


class TestFigure10:
    @pytest.fixture(scope="class")
    def result(self):
        return figure10.run(scale=0.2, versions=6)

    def test_shape(self, result):
        assert figure10.check_shape(result) == []

    def test_matrix_is_complete(self, result):
        assert len(result.rows) == 36


class TestFigure11:
    @pytest.fixture(scope="class")
    def result(self):
        return figure11.run(scale=0.15)

    def test_shape(self, result):
        assert figure11.check_shape(result) == []

    def test_gains_nonnegative(self, result):
        assert all(row["hybrid_gain"] >= 0 for row in result.rows)
        assert all(row["overlap_gain"] >= 0 for row in result.rows)


class TestFigure12:
    @pytest.fixture(scope="class")
    def result(self):
        return figure12.run(scale=0.25)

    def test_shape(self, result):
        assert figure12.check_shape(result) == []


class TestFigure13:
    @pytest.fixture(scope="class")
    def result(self):
        return figure13.run(scale=0.25)

    def test_shape(self, result):
        assert figure13.check_shape(result) == []

    def test_hierarchy_hybrid_below_overlap(self, result):
        for row in result.rows:
            assert row["hybrid"] <= row["overlap"]

    def test_methods_below_total(self, result):
        for row in result.rows:
            assert row["overlap"] <= row["total"]


class TestFigure14:
    @pytest.fixture(scope="class")
    def result(self):
        return figure14.run(scale=0.25)

    def test_shape(self, result):
        assert figure14.check_shape(result) == []

    def test_two_methods_per_pair(self, result):
        assert len(result.rows) == 18

    def test_categories_partition_nodes(self, result):
        for row in result.rows:
            assert (
                row["exact"] + row["inclusive"] + row["missing"] + row["false"] > 0
            )


class TestFigure15:
    @pytest.fixture(scope="class")
    def result(self):
        # Below scale ≈ 0.35 the θ sweep degenerates (no overlap-only true
        # matches survive), so this test uses the smallest meaningful scale.
        return figure15.run(scale=0.35, thetas=(0.35, 0.55, 0.65, 0.75, 0.95))

    def test_shape(self, result):
        assert figure15.check_shape(result) == []

    def test_one_row_per_theta(self, result):
        assert [row["theta"] for row in result.rows] == [0.35, 0.55, 0.65, 0.75, 0.95]


class TestFigure16:
    @pytest.fixture(scope="class")
    def result(self):
        return figure16.run(scale=0.2)

    def test_shape(self, result):
        assert figure16.check_shape(result) == []

    def test_sizes_reported(self, result):
        assert all(row["triples"] > 0 for row in result.rows)

    @pytest.mark.parametrize("engine", ["reference", "dense"])
    def test_overlap_column_times_the_configured_engine(self, engine, monkeypatch):
        if engine == "dense":
            pytest.importorskip("numpy")
        from repro.align import AlignConfig
        from repro.experiments.cells import method_timings_cell
        from repro.experiments.store import VersionStore
        from repro.similarity import dense_overlap

        calls = []
        loop = dense_overlap.dense_overlap_partition

        def spy(*args, **kwargs):
            calls.append(kwargs.get("base"))
            return loop(*args, **kwargs)

        monkeypatch.setattr(dense_overlap, "dense_overlap_partition", spy)
        store = VersionStore.shared("dbpedia", scale=0.2, seed=30, versions=6)
        row = method_timings_cell(store, AlignConfig(engine=engine), 0)
        assert row["overlap_s"] >= 0
        # The dense column runs the dense loop over its own hybrid base;
        # the reference column never enters it.
        assert len(calls) == (engine == "dense")
        assert all(base is not None for base in calls)


class TestExtensions:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import extensions

        return extensions.run(scale=0.25, versions=4)

    def test_shape(self, result):
        from repro.experiments import extensions

        assert extensions.check_shape(result) == []

    def test_covers_both_experiments(self, result):
        kinds = {row["experiment"] for row in result.rows}
        assert kinds == {"predicates", "archive"}


class TestRunner:
    def test_registry_covers_all_figures(self):
        expected = [f"figure{n:02d}" for n in range(9, 17)] + ["extensions"]
        assert sorted(EXPERIMENTS) == sorted(expected)

    def test_unknown_experiment(self):
        with pytest.raises(ExperimentError):
            experiment_module("figure99")

    def test_run_experiments_saves_reports(self, tmp_path):
        results = run_experiments(
            ["figure12"], out_dir=str(tmp_path), scale=0.2, check=True
        )
        assert "figure12" in results
        text = (tmp_path / "figure12.txt").read_text()
        assert "GtoPdb" in text
        payload = json.loads((tmp_path / "figure12.json").read_text())
        assert payload["figure"] == "Figure 12"
        assert any("shape check: OK" in note for note in results["figure12"].notes)

    def test_run_experiments_probe_override_reaches_figure15(self):
        """probe is a per-figure parameter, not a config field — a raw
        override must reach figure15 instead of being silently eaten."""
        results = run_experiments(
            ["figure15"],
            scale=0.2,
            probe="paper",
            thetas=(0.45, 0.65),
            check=False,
        )
        assert results["figure15"].parameters["probe"] == "paper"

    def test_run_experiments_filters_parameters(self):
        # theta is not a figure09 parameter; it must be filtered, not crash.
        results = run_experiments(["figure09"], scale=0.2, theta=0.5, check=False)
        assert results["figure09"].rows
