"""Micro benchmarks for the similarity layer.

* Levenshtein variants (plain / banded / bounded-normalized),
* our Hungarian implementation vs scipy's ``linear_sum_assignment``,
* the overlap heuristic's probe rules (paper ``⌈kθ⌉`` vs classical safe),
* ``Enrich`` on a close-pair graph with one large component,
* σEdit matrix cost growth — the quadratic blow-up the overlap alignment
  exists to avoid.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from repro.model import RDFGraph, combine, lit, uri
from repro.partition.coloring import Partition
from repro.partition.interner import ColorInterner
from repro.partition.weighted import zero_weighted
from repro.similarity.edit_distance import EditDistance
from repro.similarity.enrichment import WeightedBipartiteGraph, enrich
from repro.similarity.hungarian import solve_assignment
from repro.similarity.overlap import overlap_match
from repro.similarity.string_distance import (
    bounded_normalized_levenshtein,
    levenshtein,
    levenshtein_banded,
)

WORDS = [
    "experimental factor ontology class annotation",
    "guide to pharmacology ligand receptor",
    "category of wikipedia articles about chemistry",
]


@pytest.fixture(scope="module")
def string_pairs():
    rng = random.Random(7)
    pairs = []
    for _ in range(300):
        base = rng.choice(WORDS)
        edited = list(base)
        for _ in range(rng.randint(0, 6)):
            edited[rng.randrange(len(edited))] = rng.choice("abcdefgh ")
        pairs.append((base, "".join(edited)))
    return pairs


def test_levenshtein_plain(benchmark, string_pairs):
    total = benchmark(lambda: sum(levenshtein(a, b) for a, b in string_pairs))
    assert total >= 0


def test_levenshtein_banded(benchmark, string_pairs):
    total = benchmark(
        lambda: sum(levenshtein_banded(a, b, 6) for a, b in string_pairs)
    )
    assert total >= 0


def test_levenshtein_bounded_normalized(benchmark, string_pairs):
    total = benchmark(
        lambda: sum(bounded_normalized_levenshtein(a, b, 0.2) for a, b in string_pairs)
    )
    assert total >= 0


@pytest.fixture(scope="module")
def assignment_instances():
    rng = random.Random(11)
    return [
        [[rng.random() for _ in range(20)] for _ in range(20)] for _ in range(10)
    ]


def test_hungarian_ours(benchmark, assignment_instances):
    def run():
        return sum(solve_assignment(cost)[1] for cost in assignment_instances)

    total = benchmark(run)
    assert total >= 0


def test_hungarian_scipy(benchmark, assignment_instances):
    arrays = [np.array(cost) for cost in assignment_instances]

    def run():
        total = 0.0
        for arr in arrays:
            rows, cols = linear_sum_assignment(arr)
            total += float(arr[rows, cols].sum())
        return total

    total = benchmark(run)
    assert total >= 0


def test_hungarian_agreement(assignment_instances):
    for cost in assignment_instances:
        __, ours = solve_assignment(cost)
        arr = np.array(cost)
        rows, cols = linear_sum_assignment(arr)
        assert abs(ours - float(arr[rows, cols].sum())) < 1e-9


@pytest.fixture(scope="module")
def overlap_workload():
    rng = random.Random(13)
    vocabulary = [f"word{i}" for i in range(300)]
    characterizations = {}
    source_nodes = []
    target_nodes = []
    for i in range(400):
        base = frozenset(rng.sample(vocabulary, 8))
        source = f"a{i}"
        target = f"b{i}"
        source_nodes.append(source)
        target_nodes.append(target)
        characterizations[source] = base
        # The matching target shares most objects.
        replaced = set(base)
        replaced.discard(next(iter(base)))
        replaced.add(rng.choice(vocabulary))
        characterizations[target] = frozenset(replaced)
    return source_nodes, target_nodes, characterizations


@pytest.mark.parametrize("probe", ["paper", "safe"])
def test_overlap_match_probe_rules(benchmark, overlap_workload, probe):
    source_nodes, target_nodes, characterizations = overlap_workload

    def run():
        return overlap_match(
            source_nodes,
            target_nodes,
            0.65,
            characterizations.__getitem__,
            lambda n, m: 0.1,
            probe=probe,  # type: ignore[arg-type]
        )

    result = benchmark(run)
    assert len(result) > 0


@pytest.fixture(scope="module")
def close_pair_edges():
    """A close-pair graph shaped like the first Enrich step of a scale-free
    overlap alignment: ~1,000 edges in ~200 components, one of ~300 nodes."""
    rng = random.Random(19)
    edges: dict[tuple[str, str], float] = {}

    def distance() -> float:
        return rng.uniform(0.04, 0.65)

    # The large component: a random spanning tree over 150 + 150 nodes,
    # then extra edges up to 400.
    sources = [f"big-a{i}" for i in range(150)]
    targets = [f"big-b{i}" for i in range(150)]
    edges[(sources[0], targets[0])] = distance()
    for i in range(1, 150):
        edges[(sources[i], rng.choice(targets[:i]))] = distance()
        edges[(rng.choice(sources[: i + 1]), targets[i])] = distance()
    while len(edges) < 400:
        edges[(rng.choice(sources), rng.choice(targets))] = distance()
    # 195 small components of 1–3 nodes a side.
    for component in range(195):
        side_a = [f"c{component}-a{i}" for i in range(rng.randint(1, 3))]
        side_b = [f"c{component}-b{i}" for i in range(rng.randint(1, 3))]
        for source in side_a:
            edges[(source, rng.choice(side_b))] = distance()
        for target in side_b:
            edges[(rng.choice(side_a), target)] = distance()
    return edges


def test_enrich_components(benchmark, close_pair_edges):
    """Enrich on a fresh graph per run, so no cached adjacency carries over.

    Report-only: the autouse fixture records the timing, no gate applies.
    """
    interner = ColorInterner()
    nodes = sorted({node for pair in close_pair_edges for node in pair})
    weighted = zero_weighted(
        Partition({node: interner.node_color(node) for node in nodes})
    )

    def run():
        return enrich(
            weighted,
            WeightedBipartiteGraph(close_pair_edges),
            interner,
            generation=1,
            key=repr,
        )

    enriched = benchmark(run)
    components = WeightedBipartiteGraph(close_pair_edges).components(repr)
    assert len(components) >= 196
    assert max(len(component) for component in components) == 300
    assert len({enriched.color(node) for node in nodes}) == len(components)


@pytest.mark.parametrize("unaligned", [8, 16, 32])
def test_sigma_edit_matrix_growth(benchmark, unaligned):
    """σEdit cost grows quadratically with the number of unaligned nodes."""
    rng = random.Random(17)

    def graph(prefix: str) -> RDFGraph:
        g = RDFGraph()
        for i in range(unaligned):
            subject = uri(f"{prefix}-{i}")
            g.add(subject, uri("p"), lit(f"{prefix} value {i} {rng.random():.3f}"))
            g.add(subject, uri("q"), lit("shared anchor"))
        return g

    union = combine(graph("old"), graph("new"))

    def run():
        return EditDistance(union, max_rounds=5)

    edit = benchmark(run)
    assert edit.rounds_used >= 1
