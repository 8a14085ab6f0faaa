"""Tests for the differential oracle (repro.testing.differential).

The oracle's job is twofold and both directions are pinned here:

* on the six pinned scenarios (small ER, scale-free, blank-heavy,
  cycle-heavy, literal-noise, mutation-chain) every registered method ×
  engine × jobs combination satisfies all invariants — this is the
  generated-scenario equivalence surface CI runs;
* a deliberately broken method — engine-dependent output, or
  worker-process-dependent output — is *caught* as a divergence, so the
  oracle is known to have teeth.
"""

from __future__ import annotations

import json
import multiprocessing
import pathlib

import pytest

from repro.align import MethodSpec, register_method, unregister_method
from repro.align.registry import method_names
from repro.align.results import BaselineResult, PairAlignment
from repro.datasets.synthetic import SCENARIOS, SyntheticConfig
from repro.testing.differential import (
    DifferentialReport,
    Divergence,
    Refusal,
    append_bench_entry,
    main,
    run_differential,
    run_scenarios,
)

#: One small config reused by the teeth tests.
_TINY = SyntheticConfig(shape="erdos_renyi", entities=10, versions=2, seed=77)


class TestPinnedScenarios:
    """The six-scenario seed matrix must pass the full oracle."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_passes_all_invariants(self, name):
        report = run_differential(SCENARIOS[name], name=name)
        assert report.ok, "\n".join(d.render() for d in report.divergences)
        # Every registered method really was exercised on every engine.
        assert report.methods == method_names()
        assert report.engines == ("reference", "dense")
        assert report.jobs == (1, 2)
        assert report.cells >= len(report.pairs) * len(report.methods) * 2

    def test_refusals_are_consistent_not_divergent(self):
        """blank_heavy provokes label invention's cyclic-blank refusal;
        a *consistent* refusal across engines and jobs is not a bug."""
        report = run_differential(SCENARIOS["blank_heavy"], name="blank_heavy")
        assert report.ok
        assert report.refusals > 0

    def test_run_scenarios_covers_the_matrix(self):
        reports = run_scenarios(
            {"small_er": SCENARIOS["small_er"]}, jobs=(1,), engines=("reference",)
        )
        assert set(reports) == {"small_er"}
        assert reports["small_er"].ok


def _node_pick(nodes):
    return min(nodes, key=repr)


def _engine_dependent_runner(graph, config, context):
    """Broken on purpose: the dense engine 'finds' one extra pair."""
    pairs = set()
    if config.engine == "dense":
        pairs.add((_node_pick(graph.source_nodes), _node_pick(graph.target_nodes)))
    return BaselineResult(
        method="broken_engine_probe",
        graph=graph,
        alignment=PairAlignment(graph, pairs),
        engine=config.engine,
    )


def _crashing_runner(graph, config, context):
    """Broken on purpose: an arbitrary (non-ReproError) exception."""
    raise IndexError("synthetic dense-engine bug")


def _worker_dependent_runner(graph, config, context):
    """Broken on purpose: output depends on the executing process."""
    pairs = set()
    if multiprocessing.current_process().name != "MainProcess":
        pairs.add((_node_pick(graph.source_nodes), _node_pick(graph.target_nodes)))
    return BaselineResult(
        method="broken_worker_probe",
        graph=graph,
        alignment=PairAlignment(graph, pairs),
        engine=config.engine,
    )


class TestKbisimAxis:
    """The k-bisimulation boundedness sweep (``--axis kbisim``)."""

    def test_tiny_scenario_passes_kbisim_axis(self):
        report = run_differential(_TINY, name="tiny", axis="kbisim", jobs=(1, 2))
        assert report.ok, "\n".join(d.render() for d in report.divergences)
        # The sweep really ran cells (anchors + k sweep per engine).
        assert report.cells > 0

    def test_divergence_k_is_rendered_and_serialized(self):
        divergence = Divergence(
            scenario="s", invariant="kbisim_convergence", method="kbisim",
            detail="boom", pair=(0, 1), k=4,
        )
        assert "k=4" in divergence.render()
        report = DifferentialReport(
            scenario="s", config=_TINY, methods=("kbisim",),
            engines=("reference",), jobs=(1,), pairs=((0, 1),),
            divergences=[divergence],
        )
        assert report.to_dict()["divergences"][0]["k"] == 4


class TestOracleTeeth:
    """The oracle must catch the failure modes it exists for."""

    def _run_with(self, name, runner, **kwargs):
        register_method(
            MethodSpec(name=name, runner=runner, baseline=True)
        )
        try:
            return run_differential(
                _TINY, name="teeth", methods=(name,), **kwargs
            )
        finally:
            unregister_method(name)

    def test_engine_divergence_is_caught(self):
        report = self._run_with(
            "broken_engine_probe", _engine_dependent_runner, jobs=(1,)
        )
        assert not report.ok
        assert {d.invariant for d in report.divergences} == {"engine_parity"}

    def test_jobs_divergence_is_caught(self):
        # Three versions -> two pairs: with a single pair run_store_cells
        # stays on the serial path and the worker never runs.
        register_method(
            MethodSpec(
                name="broken_worker_probe",
                runner=_worker_dependent_runner,
                baseline=True,
            )
        )
        try:
            report = run_differential(
                _TINY.evolve(versions=3),
                name="teeth",
                methods=("broken_worker_probe",),
                engines=("reference",),
                jobs=(2,),
            )
        finally:
            unregister_method("broken_worker_probe")
        assert not report.ok
        assert any(
            d.invariant == "jobs_determinism" for d in report.divergences
        )

    def test_crash_is_a_divergence_not_an_abort(self):
        """An arbitrary exception in one cell must not kill the sweep —
        the {seed, config} artifact is the whole reproduction story."""
        report = self._run_with(
            "broken_crash_probe", _crashing_runner,
            engines=("reference",), jobs=(1,),
        )
        assert not report.ok
        assert {d.invariant for d in report.divergences} == {"crash"}
        assert any("IndexError" in d.detail for d in report.divergences)
        # The artifact still carries the rebuildable config.
        payload = report.to_dict()
        assert SyntheticConfig.from_dict(payload["config"]) == _TINY

    def test_artifact_payload_rebuilds_the_config(self):
        report = self._run_with(
            "broken_engine_probe", _engine_dependent_runner, jobs=(1,)
        )
        payload = report.to_dict()
        assert payload["seed"] == _TINY.seed
        assert SyntheticConfig.from_dict(payload["config"]) == _TINY
        assert payload["ok"] is False
        assert payload["divergences"]


class TestPieces:
    def test_divergence_render_mentions_everything(self):
        divergence = Divergence(
            scenario="s", invariant="engine_parity", method="overlap",
            detail="boom", pair=(0, 1),
        )
        rendered = divergence.render()
        for token in ("s", "engine_parity", "overlap", "boom", "(0, 1)"):
            assert token in rendered

    def test_refusal_render(self):
        assert "CyclicBlankError" in Refusal("CyclicBlankError", "x").render()

    def test_report_summary_counts(self):
        report = DifferentialReport(
            scenario="s", config=_TINY, methods=("hybrid",),
            engines=("reference",), jobs=(1,), pairs=((0, 1),),
        )
        assert "ok" in report.summary()


class TestBenchAppend:
    """Tolerance cases live in tests/test_bench_record.py — the harness's
    ``record_bench`` delegates to this same function; only the
    CI-specific nested-directory creation is pinned here."""

    def test_creates_nested_directories(self, tmp_path):
        target = tmp_path / "nested" / "deeper" / "bench.json"
        assert append_bench_entry(target, "t", 0.5)
        assert json.loads(target.read_text())[0]["name"] == "t"


class TestCommandLine:
    def test_main_runs_one_scenario(self, tmp_path, capsys):
        bench = tmp_path / "bench.json"
        code = main(
            [
                "--scenario", "small_er",
                "--out", str(tmp_path / "artifacts"),
                "--bench", str(bench),
                "--jobs", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "small_er: ok" in out
        entries = json.loads(bench.read_text())
        assert entries[0]["name"] == "synthetic/generate/small_er"
        # No artifacts on success.
        assert not pathlib.Path(tmp_path / "artifacts").exists()
