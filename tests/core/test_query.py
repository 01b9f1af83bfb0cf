"""Unit tests for the top-k query phase (Algorithm 5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SimRankConfig
from repro.core.exact import exact_simrank, exact_top_k
from repro.core.index import CandidateIndex, build_index
from repro.core.query import estimator_scores, plan_query, scan, top_k_query
from repro.errors import VertexError
from repro.graph.csr import CSRGraph
from repro.graph.generators import copying_web_graph, cycle_graph, forest_fire
from repro.graph.traversal import UNREACHABLE
from tests.plan_oracle import assert_plan_preserves, reference_plan


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

    def test_emptied_plan_counts_its_walks(self, web_graph, test_config):
        # An in-degree-0 vertex has B* = 0 < θ: planning ends on its α
        # walks, and those walks are counted though nothing is scanned.
        index = build_index(web_graph, test_config, seed=0)
        u = int(np.flatnonzero(web_graph.in_degrees == 0)[0])
        result = top_k_query(web_graph, index, u, config=test_config, seed=1)
        assert result.stats.candidates == 0
        assert result.stats.walks_simulated == test_config.r_alphabeta
        # Without L1 no walk runs before the scan.
        plan = plan_query(web_graph, index, u, config=test_config, seed=1, use_l1=False)
        assert plan.walks == (test_config.r_pair if len(plan) else 0)


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


class TestPlanMatchesOldConstruction:
    """``plan_query`` against a set-based candidate build and a full BFS."""

    @pytest.mark.parametrize("with_index", [True, False])
    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_candidates_distances_bounds(self, web_graph, test_config, with_index, k):
        index = build_index(web_graph, test_config, seed=0) if with_index else None
        fallbacks, emptied = [], []
        for u in range(0, web_graph.n, 7):
            plan = plan_query(web_graph, index, u, k=k, config=test_config, seed=u)
            reference = reference_plan(web_graph, index, u, k, test_config, seed=u)
            emptied.append(assert_plan_preserves(plan, reference))
            fallbacks.append(reference.fallback_used)
        # Vertices with no in-links have B* = 0; the others plan in full.
        assert any(emptied) and not all(emptied)
        # The queries cover both candidate builds (an unemptied plan has
        # the reference's ``fallback_used``): without an index every plan
        # falls back; at k = 1 H alone often suffices.
        if index is None:
            assert all(fallbacks)
        elif k == 1:
            assert any(fallbacks) and not all(fallbacks)

    @pytest.mark.parametrize("with_index", [True, False])
    def test_extra_candidates(self, social_graph, test_config, with_index):
        index = build_index(social_graph, test_config, seed=0) if with_index else None
        extra = [0, social_graph.n - 1, 7, 7, 3]  # repeats, and u itself
        for config in (test_config, test_config.with_(fallback_ball_radius=0)):
            plan = plan_query(social_graph, index, 3, k=5, config=config, seed=1,
                              extra_candidates=extra)
            reference = reference_plan(social_graph, index, 3, 5, config, seed=1, extra=extra)
            assert not assert_plan_preserves(plan, reference)
            assert {0, social_graph.n - 1, 7} <= set(plan.candidates.tolist())

    def test_ball_wider_than_d_max(self, web_graph, test_config):
        # The ball reaches past the distance horizon; those candidates
        # still scan at d_max.
        config = test_config.with_(d_max=1, fallback_ball_radius=3)
        for u in (0, 9, 33):
            plan = plan_query(web_graph, None, u, k=5, config=config, seed=u)
            assert_plan_preserves(plan, reference_plan(web_graph, None, u, 5, config, seed=u))
            assert plan.distances.max(initial=0) <= 1

    def test_one_bfs_per_planned_query(self, web_graph, test_config, monkeypatch):
        # At most one traversal per query, none when B* empties the plan,
        # and a resumed BFS only labels levels past the ones it had.
        import repro.core.query as query_module

        index = build_index(web_graph, test_config, seed=0)
        calls = []
        real_bfs = query_module.bfs_distances

        def recording_bfs(graph, source, *args, resume_from=None, **kwargs):
            before = None if resume_from is None else resume_from.copy()
            labels = real_bfs(graph, source, *args, resume_from=resume_from, **kwargs)
            if before is not None:
                known = before != UNREACHABLE
                assert labels[known].tolist() == before[known].tolist()
                assert (labels[~known & (labels != UNREACHABLE)] > before.max()).all()
            calls.append((int(source), before is not None))
            return labels

        monkeypatch.setattr(query_module, "bfs_distances", recording_bfs)

        def traversals(graph, index, u, config, extra=None):
            del calls[:]
            result = top_k_query(graph, index, u, k=20, config=config, seed=u,
                                 extra_candidates=extra)
            fresh = [source for source, again in calls if not again]
            assert fresh == ([u] if result.stats.candidates else [])
            assert all(source == u for source, _ in calls)
            assert len(calls) <= 2
            return len(calls) - len(fresh)

        for config in (test_config, test_config.with_(theta=0.0)):
            for index_or_none in (index, None):
                for u in range(0, web_graph.n, 5):
                    traversals(web_graph, index_or_none, u, config)
        # A candidate 20 hops round a cycle is past ρ0 = 3; at θ = 0 the
        # horizon is d_max + 1, so the BFS resumes to d_max.
        ring = cycle_graph(40)
        assert traversals(ring, None, 0, test_config.with_(theta=0.0), extra=[20]) == 1


class TestTopKMatchesFullBfsPlan:
    """``top_k`` items equal the scan of a full-BFS plan."""

    @staticmethod
    def graphs(config):
        web = copying_web_graph(120, out_degree=4, seed=5)
        fire = forest_fire(120, seed=5)
        # Two copies of one web graph; H also gives some vertices of the
        # first copy candidates in the second, which no BFS from u reaches.
        half = copying_web_graph(60, out_degree=3, seed=9)
        edges = half.edge_array()
        split = CSRGraph.from_edges(120, np.concatenate([edges, edges + 60]).tolist())
        base = build_index(split, config, seed=1)
        signatures = base.H.edge_array()
        hub = int(np.bincount(signatures[signatures[:, 0] >= 60, 1]).argmax())
        bridged = np.concatenate([signatures, [[u, hub] for u in range(0, 60, 4)]])
        H = CSRGraph.from_edges(120, np.unique(bridged, axis=0).tolist())
        index = CandidateIndex(config=base.config, H=H, gamma=base.gamma)
        return [(web, build_index(web, config, seed=1)),
                (fire, build_index(fire, config, seed=1)),
                (split, index)]

    @pytest.mark.parametrize("profile", ["fast", "paper", "test"])
    @pytest.mark.parametrize(
        "overrides",
        [{}, {"d_max": 2}, {"d_max": 5}, {"d_max": 12}, {"theta": 0.0}],
        ids=["d_max=None", "d_max=2", "d_max=5", "d_max=12", "theta=0"],
    )
    def test_items_equal(self, test_config, profile, overrides):
        base = {"fast": SimRankConfig.fast(), "paper": SimRankConfig.paper(),
                "test": test_config}[profile]
        config = base.with_(**overrides)
        for graph, index in self.graphs(config):
            for u in range(0, graph.n, 8):
                got = top_k_query(graph, index, u, config=config, seed=u)
                plan = reference_plan(graph, index, u, config.k, config, seed=u)
                want = scan(plan, plan.k, estimator_scores(graph, plan))
                assert got.items == want.items
