"""Tests for the synthetic workload generator (repro.datasets.synthetic).

Two metamorphic properties anchor the generator's semantics:

* **relabeling invariance** — a fresh IRI bijection cannot change the
  bisimulation structure, so the blank fixpoint's class-size multiset is
  invariant (bisimulation is defined over label *equality*, not label
  values);
* **identity chains** — a history whose mutation rates are all zero
  evolves only by blank-identifier reshuffling, so aligning consecutive
  versions must reproduce the identity alignment exactly.

Plus determinism pins (byte-identical histories from equal configs, in
any process), config validation, ground-truth sanity under split/merge,
and the VersionStore/registry integration.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.align import AlignConfig, Aligner
from repro.core.refinement import bisim_refine_fixpoint
from repro.datasets.registry import clear_shared_generators
from repro.datasets.synthetic import (
    SCENARIOS,
    SHAPE_FAMILIES,
    SHAPES,
    SyntheticConfig,
    SyntheticGenerator,
    history_stats,
    relabel_uris,
)
from repro.exceptions import ConfigError
from repro.io import ntriples
from repro.partition.coloring import label_partition
from repro.partition.interner import ColorInterner

#: Small-but-structured configs for the property tests.
_shapes = st.sampled_from(SHAPES)
_seeds = st.integers(min_value=0, max_value=10_000)


def _small_config(shape: str, seed: int, **overrides) -> SyntheticConfig:
    base = dict(shape=shape, seed=seed, entities=14, versions=3, blank_density=0.3)
    base.update(overrides)
    return SyntheticConfig(**base)


def _blank_class_sizes(graph) -> tuple[int, ...]:
    """Sorted class sizes of the blank bisimulation fixpoint."""
    blanks = graph.blanks()
    if not blanks:
        return ()
    interner = ColorInterner()
    partition = bisim_refine_fixpoint(
        graph, label_partition(graph, interner), blanks, interner
    )
    sizes: dict[int, int] = {}
    for node in blanks:
        sizes[partition[node]] = sizes.get(partition[node], 0) + 1
    return tuple(sorted(sizes.values()))


class TestConfig:
    def test_defaults_validate(self):
        config = SyntheticConfig()
        assert config.shape in SHAPES

    @pytest.mark.parametrize(
        "changes",
        [
            {"shape": "torus"},
            {"versions": 0},
            {"entities": 1},
            {"blank_density": 1.5},
            {"rename_fraction": -0.1},
            {"namespace_skew": -1},
            {"edge_factor": 0},
            {"seed": "seven"},
        ],
    )
    def test_bad_values_rejected(self, changes):
        with pytest.raises(ConfigError):
            SyntheticConfig(**changes)

    def test_evolve_validates_and_rejects_unknown(self):
        config = SyntheticConfig().evolve(shape="dag", versions=2)
        assert (config.shape, config.versions) == ("dag", 2)
        with pytest.raises(ConfigError):
            SyntheticConfig().evolve(widgets=3)

    def test_dict_round_trip(self):
        config = SCENARIOS["mutation_chain"]
        assert SyntheticConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(ConfigError):
            SyntheticConfig.from_dict([1, 2, 3])

    def test_identity_config_has_no_mutations(self):
        config = SyntheticConfig.identity(shape="chain")
        assert config.rename_fraction == 0.0
        assert config.split_fraction == 0.0
        assert config.literal_noise == 0.0


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_equal_configs_build_identical_histories(self, name):
        config = SCENARIOS[name]
        first = SyntheticGenerator(config=config)
        second = SyntheticGenerator(config=config)
        for index in range(config.versions):
            assert ntriples.dumps(first.graph(index)) == ntriples.dumps(
                second.graph(index)
            )

    def test_different_seeds_differ(self):
        base = SCENARIOS["small_er"]
        other = base.evolve(seed=base.seed + 1)
        assert ntriples.dumps(
            SyntheticGenerator(config=base).graph(0)
        ) != ntriples.dumps(SyntheticGenerator(config=other).graph(0))

    def test_shared_memoizes_per_config(self):
        clear_shared_generators()
        config = _small_config("star", 9)
        first = SyntheticGenerator.shared(config)
        second = SyntheticGenerator.shared(config)
        third = SyntheticGenerator.shared(config.evolve(seed=10))
        assert first is second
        assert third is not first

    def test_graphs_are_valid_rdf(self):
        generator = SyntheticGenerator(config=SCENARIOS["mutation_chain"])
        for graph in generator.graphs():
            graph.validate()

    def test_history_stats_shape(self):
        generator = SyntheticGenerator(config=_small_config("dag", 3))
        rows = history_stats(generator)
        assert [row["version"] for row in rows] == [1, 2, 3]
        assert all(row["edges"] > 0 for row in rows)


class TestRelabelingInvariance:
    """Metamorphic: bisimulation is blind to the URI bijection."""

    @given(shape=_shapes, seed=_seeds)
    @settings(max_examples=20, deadline=None)
    def test_blank_partition_sizes_invariant(self, shape, seed):
        graph = SyntheticGenerator(config=_small_config(shape, seed)).graph(0)
        relabeled = relabel_uris(graph)
        assert _blank_class_sizes(graph) == _blank_class_sizes(relabeled)

    @given(seed=_seeds)
    @settings(max_examples=10, deadline=None)
    def test_relabel_is_a_bijection(self, seed):
        graph = SyntheticGenerator(config=_small_config("erdos_renyi", seed)).graph(0)
        relabeled = relabel_uris(graph)
        stats, relabeled_stats = graph.stats(), relabeled.stats()
        assert stats.num_nodes == relabeled_stats.num_nodes
        assert stats.num_edges == relabeled_stats.num_edges


class TestIdentityChain:
    """Metamorphic: a mutation-free chain aligns back to the identity."""

    @given(shape=_shapes, seed=_seeds)
    @settings(max_examples=10, deadline=None)
    def test_identity_chain_yields_identity_alignment(self, shape, seed):
        config = SyntheticConfig.identity(
            shape=shape, seed=seed, entities=12, versions=3, blank_density=0.3
        )
        generator = SyntheticGenerator(config=config)
        aligner = Aligner(AlignConfig(method="hybrid"))
        for index in range(config.versions - 1):
            result = aligner.align(
                generator.graph(index), generator.graph(index + 1)
            )
            assert result.unaligned_counts() == (0, 0)
            truth = generator.ground_truth(index, index + 1)
            lifted = truth.combined_pairs(result.graph)
            assert lifted, "identity chain must carry ground truth"
            assert all(
                result.alignment.aligned(source, target)
                for source, target in lifted
            )

    def test_identity_chain_reshuffles_blank_names(self):
        generator = SyntheticGenerator(
            config=SyntheticConfig.identity(entities=12, versions=2, blank_density=0.5)
        )
        first_blanks = {node.name for node in generator.graph(0).blanks()}
        second_blanks = {node.name for node in generator.graph(1).blanks()}
        assert first_blanks and second_blanks
        assert first_blanks.isdisjoint(second_blanks)


class TestGroundTruth:
    def test_ground_truth_is_one_to_one_under_split_merge(self):
        generator = SyntheticGenerator(config=SCENARIOS["mutation_chain"])
        config = generator.config
        for source in range(config.versions):
            for target in range(source + 1, config.versions):
                truth = generator.ground_truth(source, target)
                targets = [t for _, t in truth.pairs()]
                assert len(targets) == len(set(targets))
                assert len(truth) > 0

    def test_entities_cover_both_kinds(self):
        generator = SyntheticGenerator(config=SCENARIOS["blank_heavy"])
        terms = generator.entities(0).values()
        kinds = {type(term).__name__ for term in terms}
        assert "URI" in kinds and "BlankNode" in kinds

    def test_combined_matches_graph_pair(self):
        generator = SyntheticGenerator(config=_small_config("chain", 5))
        union, truth = generator.combined(0, 1)
        assert union.num_nodes > 0
        assert len(truth.combined_pairs(union)) > 0


class TestStoreIntegration:
    def test_version_store_shared_family(self):
        from repro.experiments.store import GENERATOR_FAMILIES, VersionStore

        for shape in SHAPES:
            assert f"synthetic_{shape}" in GENERATOR_FAMILIES
        store = VersionStore.shared(
            "synthetic_scale_free", scale=1.0, seed=11, versions=3
        )
        assert store.versions == 3
        # Per-version artifacts and pairwise ground truth work unchanged.
        assert store.graph(0).csr().num_nodes > 0
        assert len(store.ground_truth(0, 1)) > 0
        again = VersionStore.shared(
            "synthetic_scale_free", scale=1.0, seed=11, versions=3
        )
        assert again is store

    def test_family_generators_are_memoized(self):
        clear_shared_generators()
        family = SHAPE_FAMILIES["synthetic_cycle"]
        assert family.shared(1.0, 4, 3) is family.shared(1.0, 4, 3)
        # The plain call builds a private (unmemoized) generator.
        assert family(1.0, 4, 3) is not family.shared(1.0, 4, 3)
