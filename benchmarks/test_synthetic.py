"""Generator timings for the synthetic workload scenarios.

Each pinned differential scenario is generated once per run and its
wall-clock appended to ``results/bench.json`` by the ``benchmark``
fixture's autouse recorder (name ``test_generate_scenario[<scenario>]``),
so the performance trajectory also tracks the cost of the test-surface
generator itself — a generator slow enough to dominate the oracle would
silently shrink scenario coverage.
"""

from __future__ import annotations

import pytest

from repro.datasets.synthetic import SCENARIOS, SyntheticConfig, SyntheticGenerator

from .conftest import run_once


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_generate_scenario(benchmark, results_dir, scenario):
    config = SCENARIOS[scenario]

    def generate():
        # A fresh (unshared) generator: the timing must measure the
        # build, not the process-wide memo.
        generator = SyntheticGenerator(config=config)
        return generator.graphs()

    graphs = run_once(benchmark, generate)
    assert len(graphs) == config.versions
    assert all(graph.num_edges > 0 for graph in graphs)


def test_generate_scaled_history(benchmark, results_dir):
    """One larger history pins the scaling trend (still sub-second)."""
    config = SyntheticConfig(
        shape="scale_free", entities=300, versions=4, seed=7,
        split_fraction=0.05, merge_fraction=0.05,
    )

    def generate():
        return SyntheticGenerator(config=config).graphs()

    graphs = run_once(benchmark, generate)
    assert graphs[0].num_edges > 200
