"""Tests for the threshold similarity join."""

from __future__ import annotations

import pytest

from repro.core.config import SimRankConfig
from repro.core.exact import exact_simrank
from repro.core.index import build_index
from repro.core.join import JoinResult, similarity_join, _candidate_pairs
from repro.errors import ConfigError
from repro.graph.generators import copying_web_graph, star_graph


@pytest.fixture(scope="module")
def join_setup():
    graph = copying_web_graph(150, out_degree=5, copy_probability=0.85, seed=9)
    config = SimRankConfig(
        T=7, r_pair=200, r_screen=25, r_alphabeta=150, r_gamma=400,
        index_walks=8, index_checks=4,
    )
    index = build_index(graph, config, seed=2)
    S = exact_simrank(graph, c=config.c)
    return graph, config, index, S


class TestCandidatePairs:
    def test_pairs_are_ordered_and_unique(self, join_setup):
        graph, config, index, _ = join_setup
        pairs = _candidate_pairs(index)
        assert all(u < v for u, v in pairs)

    def test_pairs_share_signature_vertex(self, join_setup):
        graph, config, index, _ = join_setup
        for u, v in list(_candidate_pairs(index))[:50]:
            assert set(index.H.out_neighbors(u)) & set(index.H.out_neighbors(v))


class TestSimilarityJoin:
    def test_returned_scores_meet_threshold(self, join_setup):
        graph, config, index, _ = join_setup
        result = similarity_join(graph, index, theta=0.05, config=config, seed=1)
        assert all(score >= 0.05 for _, _, score in result.pairs)
        assert all(u < v for u, v, _ in result.pairs)

    def test_sorted_by_score(self, join_setup):
        graph, config, index, _ = join_setup
        result = similarity_join(graph, index, theta=0.03, config=config, seed=1)
        scores = [s for _, _, s in result.pairs]
        assert scores == sorted(scores, reverse=True)

    def test_recall_against_exact(self, join_setup):
        graph, config, index, S = join_setup
        theta = 0.06
        truth = {
            (u, v)
            for u in range(graph.n)
            for v in range(u + 1, graph.n)
            if S[u, v] >= theta
        }
        result = similarity_join(graph, index, theta=theta, config=config, seed=1)
        if truth:
            # Approximate scores are a rescaling; compare against the
            # exact set at a generously scaled threshold instead.
            scaled = similarity_join(
                graph, index, theta=theta * 0.35, config=config, seed=1
            )
            recall = len(scaled.as_set() & truth) / len(truth)
            assert recall >= 0.7

    def test_precision_of_scores(self, join_setup):
        graph, config, index, S = join_setup
        result = similarity_join(graph, index, theta=0.04, config=config, seed=1)
        # Reported MC scores track the deterministic series within noise.
        from repro.core.linear import single_pair_series

        for u, v, score in result.pairs[:10]:
            truth = single_pair_series(graph, u, v, c=config.c, T=config.T)
            assert score == pytest.approx(truth, abs=0.05)

    def test_stats_accounting(self, join_setup):
        graph, config, index, _ = join_setup
        result = similarity_join(graph, index, theta=0.05, config=config, seed=1)
        stats = result.stats
        assert stats.candidate_pairs >= stats.pruned_by_l2 + stats.screened
        assert stats.refined <= stats.screened
        assert stats.elapsed_seconds > 0

    def test_higher_threshold_prunes_more(self, join_setup):
        graph, config, index, _ = join_setup
        low = similarity_join(graph, index, theta=0.02, config=config, seed=1)
        high = similarity_join(graph, index, theta=0.3, config=config, seed=1)
        assert high.stats.pruned_by_l2 >= low.stats.pruned_by_l2
        assert len(high) <= len(low)

    def test_invalid_theta(self, join_setup):
        graph, config, index, _ = join_setup
        with pytest.raises(ConfigError):
            similarity_join(graph, index, theta=0.0, config=config)

    def test_star_join_finds_all_leaf_pairs(self):
        # Directed star: every leaf pair has s = c(1-c) under D=(1-c)I.
        graph = star_graph(4, bidirected=False)
        config = SimRankConfig(
            T=4, r_pair=60, r_screen=20, r_alphabeta=50, r_gamma=200,
            index_walks=6, index_checks=4,
        )
        index = build_index(graph, config, seed=0)
        result = similarity_join(graph, index, theta=0.2, config=config, seed=1)
        leaf_pairs = {(u, v) for u in range(1, 5) for v in range(u + 1, 5)}
        assert result.as_set() == leaf_pairs

    def test_result_len(self):
        result = JoinResult(theta=0.1, pairs=[(0, 1, 0.5)])
        assert len(result) == 1
        assert result.as_set() == {(0, 1)}
