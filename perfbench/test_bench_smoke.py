"""Smoke test of the benchmark itself, at tiny scale.

Runs every workload end to end through :func:`run.measure` (fresh
interpreters, real CLI commands, real output checks), checks that every
metric ``BENCHMARK.json`` names is emitted, and that a wrong expected
digest turns every run into a failed one::

    PYTHONPATH=src python3 -m pytest perfbench/test_bench_smoke.py -q
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import run
import workloads

workloads.use_source_tree()

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Scales at which each workload takes well under a second per run and the
#: Figure-11 shape check still holds.
TINY = {"pair_overlap": 5, "matrix_fig11": 0.3}
SEED = 3


@pytest.fixture(autouse=True)
def few_setups(monkeypatch):
    """Tiny set-ups are fast; three are enough to compare them."""
    monkeypatch.setattr(run, "SETUP_S", 0.0)


@pytest.fixture(params=sorted(TINY), scope="module")
def tiny(request):
    """A tiny copy of the workload and its correct digest."""
    workload = dataclasses.replace(workloads.WORKLOADS[request.param], scale=TINY[request.param])
    digest_seed = SEED if workload.dataset_seed is None else workload.dataset_seed
    return workload, workload.reference_digest(digest_seed)


def _metric_names(section: str) -> set[str]:
    return {metric["name"] for metric in BENCHMARK[section]}


def test_workloads_match_benchmark_json():
    assert {workload["name"] for workload in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)
    for workload in BENCHMARK["workloads"]:
        assert workload["why"] == workloads.WORKLOADS[workload["name"]].why


def test_untraced_run_is_correct_and_emits_end_to_end_metrics(tiny):
    workload, digest = tiny
    result, provenance = run.measure(workload, SEED, seconds=0, trace=False, expected=digest)
    assert result["correct"], provenance["problems"]
    assert result["failed"] == 0 and result["attempted"] >= run.MIN_RUNS
    assert set(result["metrics"]) == _metric_names("end_to_end")
    for metric in BENCHMARK["end_to_end"]:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"] and emitted["value"] > 0
    assert provenance["src_sha256"] and provenance["nproc"] >= 1


def test_traced_run_emits_per_layer_metrics(tiny):
    workload, digest = tiny
    result, provenance = run.measure(workload, SEED, seconds=0, trace=True, expected=digest)
    assert result["correct"], provenance["problems"]
    assert set(result["metrics"]) == _metric_names("per_layer")
    assert 0 < result["metrics"]["trace.coverage"]["value"] <= 1


def test_perturbed_digest_fails_every_run(tiny):
    workload, digest = tiny
    perturbed = ("0" if digest[0] != "0" else "1") + digest[1:]
    result, _ = run.measure(workload, SEED, seconds=0, trace=False, expected=perturbed)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= run.MIN_RUNS
