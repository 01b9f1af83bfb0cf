"""Unit tests for the top-k query phase (Algorithm 5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exact import exact_simrank, exact_top_k
from repro.core.index import build_index
from repro.core.query import top_k_query
from repro.errors import VertexError


@pytest.fixture
def indexed(social_graph, test_config):
    return social_graph, build_index(social_graph, test_config, seed=0), test_config


class TestBasicBehaviour:
    def test_returns_at_most_k(self, indexed):
        graph, index, config = indexed
        result = top_k_query(graph, index, 3, k=5, config=config, seed=1)
        assert len(result) <= 5

    def test_query_vertex_excluded(self, indexed):
        graph, index, config = indexed
        result = top_k_query(graph, index, 3, k=10, config=config, seed=1)
        assert 3 not in result.vertices()

    def test_sorted_descending(self, indexed):
        graph, index, config = indexed
        result = top_k_query(graph, index, 3, k=10, config=config, seed=1)
        scores = [s for _, s in result.items]
        assert scores == sorted(scores, reverse=True)

    def test_scores_meet_threshold(self, indexed):
        graph, index, config = indexed
        result = top_k_query(graph, index, 3, k=10, config=config, seed=1)
        assert all(s >= config.theta for _, s in result.items)

    def test_deterministic_given_seed(self, indexed):
        graph, index, config = indexed
        a = top_k_query(graph, index, 3, k=10, config=config, seed=7)
        b = top_k_query(graph, index, 3, k=10, config=config, seed=7)
        assert a.items == b.items

    def test_vertex_validation(self, indexed):
        graph, index, config = indexed
        with pytest.raises(VertexError):
            top_k_query(graph, index, graph.n, config=config)
        for bad in ([-1], [graph.n]):
            with pytest.raises(VertexError):
                top_k_query(graph, index, 3, config=config, extra_candidates=bad)

    def test_invalid_k(self, indexed):
        graph, index, config = indexed
        with pytest.raises(ValueError):
            top_k_query(graph, index, 0, k=0, config=config)

    def test_defaults_k_from_config(self, indexed):
        graph, index, config = indexed
        result = top_k_query(graph, index, 3, config=config, seed=1)
        assert result.k == config.k

    def test_result_helpers(self, indexed):
        graph, index, config = indexed
        result = top_k_query(graph, index, 3, k=10, config=config, seed=1)
        assert list(result.scores()) == result.vertices()

    def test_isolated_vertex_returns_empty(self, test_config):
        from repro.graph.csr import CSRGraph

        graph = CSRGraph.from_edges(5, [(1, 2), (2, 1)])
        index = build_index(graph, test_config, seed=0)
        result = top_k_query(graph, index, 0, k=5, config=test_config, seed=1)
        assert result.items == []

    def test_stats_populated(self, indexed):
        graph, index, config = indexed
        result = top_k_query(graph, index, 3, k=10, config=config, seed=1)
        assert result.stats.candidates > 0
        assert result.stats.walks_simulated > 0
        assert result.stats.elapsed_seconds > 0


class TestAgreementWithExact:
    def test_top1_usually_exact(self, social_graph, test_config):
        config = test_config.with_(r_pair=300, theta=0.001)
        index = build_index(social_graph, config, seed=0)
        S = exact_simrank(social_graph, c=config.c)
        hits = 0
        trials = 0
        for u in range(0, social_graph.n, 6):
            truth = exact_top_k(social_graph, u, 1, S=S)
            if not truth or truth[0][1] < 0.02:
                continue
            result = top_k_query(social_graph, index, u, k=3, config=config, seed=u)
            trials += 1
            if result.items and result.items[0][0] == truth[0][0]:
                hits += 1
        assert trials >= 3
        assert hits / trials >= 0.6

    def test_topk_recall_high(self, web_graph, test_config):
        config = test_config.with_(r_pair=300, theta=0.001)
        index = build_index(web_graph, config, seed=0)
        S = exact_simrank(web_graph, c=config.c)
        recalls = []
        for u in range(0, web_graph.n, 8):
            truth = [v for v, s in exact_top_k(web_graph, u, 5, S=S) if s >= 0.02]
            if len(truth) < 3:
                continue
            result = top_k_query(web_graph, index, u, k=10, config=config, seed=u)
            found = set(result.vertices())
            recalls.append(len(found & set(truth)) / len(truth))
        assert recalls, "test graph produced no meaningful queries"
        assert np.mean(recalls) >= 0.7


class TestAblationFlags:
    def test_no_index_mode_works(self, social_graph, test_config):
        result = top_k_query(social_graph, None, 3, k=5, config=test_config, seed=1)
        assert result.stats.fallback_used
        assert result.stats.candidates > 0

    def test_bounds_off_scans_more(self, indexed):
        graph, index, config = indexed
        with_bounds = top_k_query(
            graph, index, 3, k=5, config=config, seed=2, use_l1=True, use_l2=True
        )
        without = top_k_query(
            graph, index, 3, k=5, config=config, seed=2, use_l1=False, use_l2=False
        )
        assert without.stats.pruned_by_bound == 0
        assert without.stats.screened >= with_bounds.stats.screened

    def test_adaptive_off_refines_everything(self, indexed):
        graph, index, config = indexed
        result = top_k_query(
            graph, index, 3, k=5, config=config, seed=3, adaptive=False
        )
        assert result.stats.screened == 0
        assert result.stats.refined > 0

    def test_adaptive_on_screens_first(self, indexed):
        graph, index, config = indexed
        result = top_k_query(graph, index, 3, k=5, config=config, seed=3, adaptive=True)
        assert result.stats.screened >= result.stats.refined

    def test_extra_candidates_included(self, indexed):
        graph, index, config = indexed
        target = graph.n - 1
        result = top_k_query(
            graph,
            index,
            3,
            k=5,
            config=config.with_(fallback_ball_radius=0),
            seed=4,
            extra_candidates=[target],
        )
        # The extra candidate was at least considered.
        assert result.stats.candidates >= 1


class TestThresholdTermination:
    def test_high_theta_returns_little(self, indexed):
        graph, index, config = indexed
        result = top_k_query(
            graph, index, 3, k=10, config=config.with_(theta=0.5), seed=5
        )
        assert all(s >= 0.5 for _, s in result.items)

    def test_zero_theta_keeps_everything_scored(self, indexed):
        graph, index, config = indexed
        result = top_k_query(
            graph, index, 3, k=10, config=config.with_(theta=0.0), seed=5
        )
        assert len(result) > 0
