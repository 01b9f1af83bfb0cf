"""Unit tests for SimRankConfig."""

from __future__ import annotations

import pytest

from repro.core.config import SimRankConfig
from repro.errors import ConfigError


class TestDefaults:
    def test_paper_values(self):
        config = SimRankConfig.paper()
        assert config.c == 0.6
        assert config.T == 11
        assert config.r_pair == 100
        assert config.r_alphabeta == 10_000
        assert config.r_gamma == 100
        assert config.index_walks == 10
        assert config.index_checks == 5
        assert config.k == 20
        assert config.theta == 0.01

    def test_effective_d_max_defaults_to_T(self):
        assert SimRankConfig(T=7).effective_d_max == 7
        assert SimRankConfig(T=7, d_max=3).effective_d_max == 3

    def test_truncation_error_formula(self):
        config = SimRankConfig(c=0.6, T=11)
        assert config.truncation_error == pytest.approx(0.6**11 / 0.4)

    def test_frozen(self):
        config = SimRankConfig()
        with pytest.raises(AttributeError):
            config.c = 0.9  # type: ignore[misc]

    def test_with_override(self):
        config = SimRankConfig().with_(c=0.8, k=5)
        assert config.c == 0.8
        assert config.k == 5
        assert config.T == 11  # untouched


class TestValidation:
    @pytest.mark.parametrize("c", [0.0, 1.0, -0.1, 1.5])
    def test_invalid_decay_factor(self, c):
        with pytest.raises(ConfigError):
            SimRankConfig(c=c)

    @pytest.mark.parametrize(
        "field", ["T", "r_pair", "r_screen", "r_alphabeta", "r_gamma", "index_walks", "index_checks", "k"]
    )
    def test_positive_int_fields(self, field):
        with pytest.raises(ConfigError):
            SimRankConfig(**{field: 0})

    def test_theta_range(self):
        with pytest.raises(ValueError):
            SimRankConfig(theta=1.0)
        with pytest.raises(ValueError):
            SimRankConfig(theta=-0.1)
        SimRankConfig(theta=0.0)  # zero disables the threshold

    def test_candidate_rule_validated(self):
        with pytest.raises(ValueError):
            SimRankConfig(candidate_rule="magic")
        SimRankConfig(candidate_rule="pseudocode")

    def test_screen_slack_range(self):
        with pytest.raises(ValueError):
            SimRankConfig(screen_slack=1.5)

    def test_bool_is_not_an_int(self):
        with pytest.raises(ConfigError):
            SimRankConfig(T=True)


class TestDerivedConstructors:
    def test_fast_is_smaller_than_paper(self):
        fast = SimRankConfig.fast()
        paper = SimRankConfig.paper()
        assert fast.r_alphabeta < paper.r_alphabeta
        assert fast.T <= paper.T

    def test_fast_truncation_still_tight(self):
        assert SimRankConfig.fast().truncation_error < 0.05

    def test_for_accuracy_scales_T_and_R(self):
        loose = SimRankConfig.for_accuracy(0.1)
        tight = SimRankConfig.for_accuracy(0.01)
        assert tight.T > loose.T
        assert tight.r_pair > loose.r_pair

    def test_for_accuracy_invalid_epsilon(self):
        with pytest.raises(ValueError):
            SimRankConfig.for_accuracy(0.0)
