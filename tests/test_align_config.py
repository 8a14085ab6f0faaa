"""AlignConfig: validation, composition and serialization."""

from __future__ import annotations

import pytest

from repro.align import AlignConfig, Aligner
from repro.align.config import PROBE_RULES, SPLITTERS
from repro.exceptions import (
    AlignError,
    ConfigError,
    ExperimentError,
    ReproError,
    ThresholdError,
    UnknownEngineError,
    UnknownMethodError,
)
from repro.similarity.string_distance import character_set, split_words


class TestDefaults:
    def test_default_config(self):
        config = AlignConfig()
        assert config.method == "hybrid"
        assert config.theta == 0.65
        assert config.engine == "reference"
        assert config.probe == "paper"
        assert config.splitter is split_words
        assert config.jobs == 1

    def test_frozen(self):
        with pytest.raises(AttributeError):
            AlignConfig().theta = 0.5  # type: ignore[misc]

    def test_splitter_resolved_by_name(self):
        assert AlignConfig(splitter="chars").splitter is character_set
        for name, callable_ in SPLITTERS.items():
            assert AlignConfig(splitter=name).splitter is callable_

    def test_splitter_name_roundtrip(self):
        assert AlignConfig(splitter="qgrams").splitter_name == "qgrams"

        def custom(value: str) -> frozenset:
            return frozenset(value)

        assert AlignConfig(splitter=custom).splitter_name == "custom"

    def test_to_dict_is_json_friendly(self):
        import json

        payload = AlignConfig(method="overlap", theta=0.5).to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["splitter"] == "words"


class TestValidation:
    def test_unknown_method(self):
        with pytest.raises(UnknownMethodError):
            AlignConfig(method="bogus")

    def test_unknown_engine(self):
        with pytest.raises(UnknownEngineError):
            AlignConfig(engine="sparse")

    @pytest.mark.parametrize("theta", [-0.1, 1.1, 42, "high", None])
    def test_bad_theta(self, theta):
        with pytest.raises(ThresholdError):
            AlignConfig(theta=theta)  # type: ignore[arg-type]

    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0, 1])
    def test_theta_bounds_inclusive(self, theta):
        assert AlignConfig(theta=theta).theta == theta

    def test_bad_probe(self):
        with pytest.raises(ConfigError):
            AlignConfig(probe="aggressive")
        assert set(PROBE_RULES) == {"paper", "safe"}

    def test_bad_splitter(self):
        with pytest.raises(ConfigError):
            AlignConfig(splitter="letters")
        with pytest.raises(ConfigError):
            AlignConfig(splitter=42)  # type: ignore[arg-type]

    @pytest.mark.parametrize("jobs", [-1, 1.5, "two"])
    def test_bad_jobs(self, jobs):
        with pytest.raises(ConfigError):
            AlignConfig(jobs=jobs)  # type: ignore[arg-type]

    def test_errors_are_align_and_repro_errors(self):
        """The whole hierarchy is catchable at every historical level."""
        for bad in (
            lambda: AlignConfig(method="bogus"),
            lambda: AlignConfig(engine="sparse"),
            lambda: AlignConfig(theta=2.0),
        ):
            with pytest.raises(AlignError):
                bad()
            with pytest.raises(ReproError):
                bad()
        # Unknown method/engine stay catchable as the legacy ExperimentError.
        with pytest.raises(ExperimentError):
            AlignConfig(method="bogus")
        with pytest.raises(ExperimentError):
            AlignConfig(engine="sparse")


class TestEvolve:
    def test_evolve_returns_new_validated_config(self):
        base = AlignConfig()
        evolved = base.evolve(method="overlap", theta=0.8)
        assert base.method == "hybrid" and base.theta == 0.65
        assert evolved.method == "overlap" and evolved.theta == 0.8

    def test_evolve_rejects_unknown_fields(self):
        with pytest.raises(ConfigError):
            AlignConfig().evolve(thresh=0.5)

    def test_evolve_revalidates(self):
        with pytest.raises(ThresholdError):
            AlignConfig().evolve(theta=3.0)

    def test_aligner_accepts_overrides(self):
        aligner = Aligner(AlignConfig(), method="trivial", engine="dense")
        assert aligner.config.method == "trivial"
        assert aligner.config.engine == "dense"

    def test_aligner_evolve_shares_caches(self):
        aligner = Aligner()
        sibling = aligner.evolve(theta=0.8)
        assert sibling.config.theta == 0.8
        assert sibling._split_caches is aligner._split_caches
        assert sibling._loaded is aligner._loaded
