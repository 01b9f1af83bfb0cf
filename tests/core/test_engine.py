"""Unit tests for the SimRankEngine façade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SimRankConfig
from repro.core.engine import SimRankEngine
from repro.core.exact import exact_simrank
from repro.errors import IndexNotBuiltError


class TestLifecycle:
    def test_query_before_preprocess_raises(self, social_graph, test_config):
        engine = SimRankEngine(social_graph, test_config)
        with pytest.raises(IndexNotBuiltError):
            engine.top_k(0)

    def test_preprocess_returns_self(self, social_graph, test_config):
        engine = SimRankEngine(social_graph, test_config, seed=0)
        assert engine.preprocess() is engine
        assert engine.is_preprocessed

    def test_preprocess_seconds_tracked(self, social_graph, test_config):
        engine = SimRankEngine(social_graph, test_config, seed=0).preprocess()
        assert engine.preprocess_seconds > 0

    def test_default_config_is_paper(self, social_graph):
        engine = SimRankEngine(social_graph)
        assert engine.config == SimRankConfig.paper()

    def test_repr_shows_state(self, social_graph, test_config):
        engine = SimRankEngine(social_graph, test_config)
        assert "not preprocessed" in repr(engine)
        engine.preprocess()
        assert "not preprocessed" not in repr(engine)

    def test_index_nbytes(self, social_graph, test_config):
        engine = SimRankEngine(social_graph, test_config, seed=0).preprocess()
        assert engine.index_nbytes() > 0

    def test_save_and_load_index(self, social_graph, test_config, tmp_path):
        engine = SimRankEngine(social_graph, test_config, seed=0).preprocess()
        path = tmp_path / "engine-index.npz"
        engine.save_index(path)
        fresh = SimRankEngine(social_graph).load_index(path)
        assert fresh.is_preprocessed
        assert fresh.config == test_config
        assert fresh.index.H == engine.index.H


class TestQueries:
    @pytest.fixture
    def engine(self, social_graph, test_config) -> SimRankEngine:
        return SimRankEngine(social_graph, test_config, seed=0).preprocess()

    def test_top_k_deterministic(self, engine):
        assert engine.top_k(4).items == engine.top_k(4).items

    def test_top_k_different_vertices_differ(self, engine):
        # Distinct queries use distinct derived seeds and candidates.
        a = engine.top_k(4)
        b = engine.top_k(5)
        assert a.u != b.u

    def test_single_pair_montecarlo_close_to_deterministic(self, engine):
        u, v = 3, 9
        det = engine.single_pair(u, v, method="deterministic")
        mc = engine.single_pair(u, v, method="montecarlo")
        assert mc == pytest.approx(det, abs=0.05)

    def test_single_pair_unknown_method(self, engine):
        with pytest.raises(ValueError):
            engine.single_pair(0, 1, method="oracle")

    def test_single_source_matches_series(self, engine, social_graph, test_config):
        from repro.core.linear import single_source_series

        expected = single_source_series(
            social_graph, 2, c=test_config.c, T=test_config.T
        )
        np.testing.assert_allclose(engine.single_source(2), expected)

    def test_top_k_all_covers_selected_vertices(self, engine):
        results = engine.top_k_all(k=3, vertices=[0, 1, 2])
        assert set(results) == {0, 1, 2}
        assert all(len(r) <= 3 for r in results.values())

    def test_custom_diagonal_threading(self, social_graph, test_config):
        engine = SimRankEngine(social_graph, test_config, diagonal=0.8, seed=0)
        np.testing.assert_allclose(engine.diagonal, 0.8)
        doubled = engine.single_pair(1, 2, method="deterministic")
        engine_default = SimRankEngine(social_graph, test_config, seed=0)
        base = engine_default.single_pair(1, 2, method="deterministic")
        assert doubled == pytest.approx(2 * base)


class TestEndToEndQuality:
    def test_engine_finds_exact_top1_on_web_graph(self, web_graph):
        config = SimRankConfig(
            T=8, r_pair=300, r_screen=20, r_alphabeta=1000, r_gamma=200,
            index_walks=8, index_checks=5, theta=0.001,
        )
        engine = SimRankEngine(web_graph, config, seed=3).preprocess()
        S = exact_simrank(web_graph, c=config.c)
        hits = trials = 0
        for u in range(0, web_graph.n, 10):
            scores = S[u].copy()
            scores[u] = -1
            best = int(np.argmax(scores))
            if scores[best] < 0.03:
                continue
            trials += 1
            result = engine.top_k(u, k=5)
            if best in result.vertices()[:3]:
                hits += 1
        assert trials >= 3
        assert hits / trials >= 0.6


class TestEstimatedDiagonal:
    """Remark 1: a better D sharpens scores without changing the machinery."""

    def test_scores_closer_to_exact_simrank(self, claw):

        config = SimRankConfig(c=0.8, T=25, r_pair=50, r_alphabeta=50,
                               r_gamma=30, index_walks=3, index_checks=2)
        plain = SimRankEngine(claw, config, seed=1)
        better = SimRankEngine.with_estimated_diagonal(
            claw, config, seed=1, diagonal_walks=2000
        )
        exact_value = 0.8  # s(leaf, leaf) on the claw
        plain_value = plain.single_pair(1, 2, method="deterministic")
        better_value = better.single_pair(1, 2, method="deterministic")
        assert abs(better_value - exact_value) < abs(plain_value - exact_value)

    def test_ranking_unchanged(self, web_graph):
        config = SimRankConfig(T=7, r_pair=100, r_alphabeta=100, r_gamma=50,
                               index_walks=4, index_checks=3)
        plain = SimRankEngine(web_graph, config, seed=2)
        better = SimRankEngine.with_estimated_diagonal(
            web_graph, config, seed=2, diagonal_walks=200
        )
        u = 5
        top_plain = np.argsort(-plain.single_source(u))[:5]
        top_better = np.argsort(-better.single_source(u))[:5]
        overlap = len(set(top_plain.tolist()) & set(top_better.tolist()))
        assert overlap >= 3  # Remark 1: ranking is (approximately) stable

    def test_diagonal_within_proposition_2_box(self, social_graph, test_config):
        engine = SimRankEngine.with_estimated_diagonal(
            social_graph, test_config, seed=3, diagonal_walks=50
        )
        assert (engine.diagonal >= 1 - test_config.c - 1e-9).all()
        assert (engine.diagonal <= 1 + 1e-9).all()
