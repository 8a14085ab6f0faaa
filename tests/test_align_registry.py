"""The method registry: built-ins, derived orders, third-party methods."""

from __future__ import annotations

import pytest

from repro.align import (
    AlignConfig,
    Aligner,
    MethodSpec,
    get_method,
    method_names,
    method_order,
    refines,
    register_method,
    unregister_method,
)
from repro.align.results import BaselineResult, PairAlignment
from repro.exceptions import ConfigError, UnknownMethodError


class TestBuiltins:
    def test_core_order_matches_paper_hierarchy(self):
        assert method_order() == (
            "trivial", "deblank", "hybrid", "overlap",
            "bisim", "kbisim", "kbisim_deblank",
        )

    def test_baselines_registered(self):
        names = method_names()
        assert "similarity_flooding" in names
        assert "label_invention" in names
        # Baselines are offered but never enter the refinement order.
        assert "similarity_flooding" not in method_order()

    def test_finer_than_chain(self):
        assert get_method("deblank").finer_than == "trivial"
        assert get_method("overlap").finer_than == "hybrid"
        assert refines("overlap", "trivial")
        assert refines("hybrid", "deblank")
        assert not refines("trivial", "hybrid")

    def test_trivial_and_baselines_skip_csr(self):
        assert not get_method("trivial").uses_csr
        assert get_method("hybrid").uses_csr
        assert not get_method("similarity_flooding").uses_csr

    def test_unknown_method(self):
        with pytest.raises(UnknownMethodError):
            get_method("bogus")


class TestRegistration:
    @pytest.fixture
    def custom_method(self):
        """Register a toy method for the duration of one test."""

        def runner(graph, config, context):
            pairs = {
                (s, t)
                for s in graph.source_nodes
                for t in graph.target_nodes
                if graph.label(s) == graph.label(t)
                and graph.is_uri_node(s)
            }
            return BaselineResult(
                method="uri_equality",
                graph=graph,
                alignment=PairAlignment(graph, pairs),
                engine=config.engine,
            )

        spec = register_method(
            MethodSpec("uri_equality", runner, baseline=True, uses_csr=False)
        )
        yield spec
        unregister_method("uri_equality")

    def test_third_party_method_is_one_call_away(self, custom_method, figure3_graphs):
        assert "uri_equality" in method_names()
        result = Aligner(AlignConfig(method="uri_equality")).align(*figure3_graphs)
        assert result.method == "uri_equality"
        assert result.matched_entities() > 0
        report = result.report()
        assert report.method == "uri_equality"

    def test_duplicate_rejected_without_replace(self, custom_method):
        with pytest.raises(ConfigError):
            register_method(MethodSpec("uri_equality", custom_method.runner))
        register_method(
            MethodSpec("uri_equality", custom_method.runner, baseline=True),
            replace=True,
        )

    def test_bad_names_rejected(self):
        with pytest.raises(ConfigError):
            register_method(MethodSpec("", lambda *a: None))
        with pytest.raises(ConfigError):
            register_method(MethodSpec("has space", lambda *a: None))

    def test_uncallable_runner_rejected(self):
        with pytest.raises(ConfigError):
            register_method(MethodSpec("broken", None))  # type: ignore[arg-type]

    def test_dangling_finer_than_rejected(self):
        with pytest.raises(ConfigError):
            register_method(
                MethodSpec("orphan", lambda *a: None, finer_than="ghost")
            )

    def test_unregistered_method_fails_config_validation(self, custom_method):
        unregister_method("uri_equality")
        with pytest.raises(UnknownMethodError):
            AlignConfig(method="uri_equality")
        # Re-register so the fixture teardown stays a no-op.
        register_method(custom_method)
