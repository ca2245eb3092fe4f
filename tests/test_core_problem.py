"""Tests for problem instances, color spaces, parameters and validation."""

import math

import networkx as nx
import pytest

from repro.core import ColoringInstance, ColoringParameters, ColorSpace, validate_coloring
from repro.core.validate import assert_valid_coloring
from repro.graphs import degree_plus_one_lists


class TestColorSpace:
    def test_numeric(self):
        space = ColorSpace.numeric(16)
        assert space.size == 16
        assert space.bits == 4

    def test_from_colors_numeric(self):
        space = ColorSpace.from_colors({0, 5, 9})
        assert space.size == 10
        assert space.bits == 4

    def test_from_colors_symbolic(self):
        space = ColorSpace.from_colors({"red", "green", "blue"})
        assert space.size == 3

    def test_huge(self):
        space = ColorSpace.huge(bits=500)
        assert space.size is None
        assert not space.fits_in(64)

    def test_fits_in(self):
        assert ColorSpace.numeric(16).fits_in(8)

    def test_validation(self):
        with pytest.raises(ValueError):
            ColorSpace(bits=0)
        with pytest.raises(ValueError):
            ColorSpace(bits=4, size=1)


class TestColoringInstance:
    def test_d1c_palettes(self, gnp_small):
        instance = ColoringInstance.d1c(gnp_small)
        for v in gnp_small.nodes():
            assert instance.palette(v) == frozenset(range(gnp_small.degree(v) + 1))
            assert instance.slack(v) == 1

    def test_delta_plus_one_palettes(self, gnp_small):
        instance = ColoringInstance.delta_plus_one(gnp_small)
        delta = instance.max_degree()
        assert all(len(p) == delta + 1 for p in instance.palettes.values())

    def test_d1lc_accepts_valid_lists(self, gnp_small):
        lists = degree_plus_one_lists(gnp_small, seed=1)
        instance = ColoringInstance.d1lc(gnp_small, lists)
        assert instance.color_space.size is not None

    def test_d1lc_rejects_short_lists(self):
        g = nx.complete_graph(4)
        lists = {v: {0} for v in g.nodes()}
        with pytest.raises(ValueError):
            ColoringInstance.d1lc(g, lists)

    def test_d1lc_names_a_node_without_a_list(self):
        g = nx.path_graph(3)
        lists = {0: {0, 1}, 1: {0, 1, 2}}
        with pytest.raises(ValueError, match="node 2 has no color list"):
            ColoringInstance.d1lc(g, lists)

    def test_missing_palette_rejected(self):
        g = nx.path_graph(3)
        with pytest.raises(ValueError):
            ColoringInstance(graph=g, palettes={0: frozenset({0, 1})},
                             color_space=ColorSpace.numeric(4))

    def test_degree_accessors(self, gnp_small):
        instance = ColoringInstance.d1c(gnp_small)
        v = instance.nodes[0]
        assert instance.degree(v) == gnp_small.degree(v)
        assert instance.max_degree() == max(d for _, d in gnp_small.degree())


class TestValidateColoring:
    def test_valid_complete_coloring(self):
        g = nx.path_graph(3)
        instance = ColoringInstance.d1c(g)
        report = validate_coloring(instance, {0: 0, 1: 1, 2: 0})
        assert report.is_valid
        assert report.is_complete and report.is_proper

    def test_conflict_detected(self):
        g = nx.path_graph(3)
        instance = ColoringInstance.d1c(g)
        report = validate_coloring(instance, {0: 0, 1: 0, 2: 1})
        assert not report.is_proper
        assert (0, 1) in report.conflicts

    def test_partial_coloring(self):
        g = nx.path_graph(3)
        instance = ColoringInstance.d1c(g)
        report = validate_coloring(instance, {0: 0})
        assert not report.is_complete
        assert report.is_proper
        assert set(report.uncolored) == {1, 2}

    def test_palette_violation(self):
        g = nx.path_graph(3)
        instance = ColoringInstance.d1c(g)
        report = validate_coloring(instance, {0: 99, 1: 0, 2: 1})
        assert 0 in report.palette_violations
        assert not report.is_valid

    def test_assert_valid_raises(self):
        g = nx.path_graph(3)
        instance = ColoringInstance.d1c(g)
        with pytest.raises(AssertionError):
            assert_valid_coloring(instance, {0: 0})

    def test_summary_is_readable(self):
        g = nx.path_graph(3)
        instance = ColoringInstance.d1c(g)
        text = validate_coloring(instance, {0: 0}).summary()
        assert "1/3" in text


class TestColoringParameters:
    def test_defaults_match_paper_constants(self):
        params = ColoringParameters()
        assert params.slack_probability == pytest.approx(0.1)
        assert params.multitrial_alpha == pytest.approx(1 / 12)
        assert params.multitrial_beta == pytest.approx(1 / 3)
        assert params.ell_exponent == pytest.approx(2.1)
        assert params.degree_exponent == pytest.approx(7.0)

    def test_ell_formula(self):
        params = ColoringParameters()
        assert params.ell(1024) == pytest.approx(10 ** 2.1)

    def test_degree_threshold_formula(self):
        params = ColoringParameters()
        assert params.degree_threshold(2 ** 16) == pytest.approx(16 ** 7)

    def test_multitrial_nu_bounded(self):
        params = ColoringParameters()
        nu = params.multitrial_nu(lam=100, n=1000)
        assert 0 < nu <= 0.5

    def test_multitrial_sigma_at_most_lambda(self):
        params = ColoringParameters()
        assert params.multitrial_sigma(lam=50, tries=100, n=1000) <= 50

    def test_multitrial_sigma_grows_with_tries(self):
        params = ColoringParameters()
        assert params.multitrial_sigma(10 ** 6, 64, 1000) >= params.multitrial_sigma(10 ** 6, 1, 1000)

    def test_putaside_probability_clamped(self):
        params = ColoringParameters()
        assert params.putaside_probability(ell=10, clique_degree=1) == 1.0
        assert params.putaside_probability(ell=10, clique_degree=0) == 0.0
        assert 0 < params.putaside_probability(ell=10, clique_degree=10 ** 4) < 1

    def test_presets(self):
        small = ColoringParameters.small(seed=3)
        paper = ColoringParameters.paper(seed=3)
        assert small.seed == paper.seed == 3
        assert small.similarity_sigma_cap is not None
        assert paper.similarity_sigma_cap > small.similarity_sigma_cap
        assert paper.multitrial_sigma_floor > small.multitrial_sigma_floor

    def test_with_seed(self):
        params = ColoringParameters.small(seed=1).with_seed(9)
        assert params.seed == 9
