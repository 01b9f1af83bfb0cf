"""Unit tests for the L1 (α/β) and L2 (γ) upper bounds (Section 6)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bounds import combined_upper_bound, compute_alpha_beta, compute_gamma, compute_gamma_all, paper_trivial_bound, trivial_bound
from repro.core.config import SimRankConfig
from repro.core.linear import all_pairs_series, single_pair_series
from repro.errors import ConfigError, VertexError
from repro.graph.csr import CSRGraph
from repro.graph.generators import cycle_graph, star_graph
from repro.graph.traversal import bfs_distances
from tests.plan_oracle import reference_beta


@pytest.fixture
def bound_config() -> SimRankConfig:
    return SimRankConfig(T=8, r_alphabeta=2000, r_gamma=1000, r_pair=100)


class TestTrivialBounds:
    def test_trivial_bound_values(self):
        assert trivial_bound(0.6, 0) == 1.0
        assert trivial_bound(0.6, 1) == pytest.approx(0.6)
        assert trivial_bound(0.6, 2) == pytest.approx(0.6)
        assert trivial_bound(0.6, 3) == pytest.approx(0.36)

    def test_paper_trivial_bound_is_looser_odd_distances(self):
        for d in range(1, 8):
            assert paper_trivial_bound(0.6, d) <= trivial_bound(0.6, d)

    def test_trivial_bound_sound_on_star(self):
        # Sibling leaves: distance 2, exact SimRank = c = c^{ceil(2/2)}.
        # The sound bound is tight; the paper's c^d would be violated.
        graph = star_graph(3, bidirected=False)
        s = single_pair_series(graph, 1, 2, c=0.6, T=10, diagonal=1.0)
        assert s <= trivial_bound(0.6, 2) + 1e-9
        assert s > paper_trivial_bound(0.6, 2)

    def test_invalid_arguments(self):
        with pytest.raises(ConfigError):
            trivial_bound(1.2, 1)
        with pytest.raises(ConfigError):
            trivial_bound(0.6, -1)


class TestL1Bound:
    def test_beta_dominates_series_scores(self, social_graph, bound_config):
        u = 4
        l1 = compute_alpha_beta(social_graph, u, bound_config, seed=0)
        dist = bfs_distances(social_graph, u, direction="both")
        slack = 0.03  # Monte-Carlo estimation noise (Prop. 5)
        for v in range(social_graph.n):
            if v == u or dist[v] < 0:
                continue
            s = single_pair_series(social_graph, u, v, c=bound_config.c, T=bound_config.T)
            assert s <= l1.bound(int(dist[v])) + slack

    def test_beta_zero_distance_at_least_diagonal_term(self, social_graph, bound_config):
        l1 = compute_alpha_beta(social_graph, 4, bound_config, seed=0)
        assert l1.bound(0) >= (1 - bound_config.c) - 1e-9

    def test_beta_clamps_beyond_dmax(self, social_graph, bound_config):
        l1 = compute_alpha_beta(social_graph, 4, bound_config, seed=0)
        assert l1.bound(l1.d_max + 5) == l1.bound(l1.d_max)

    def test_negative_distance_rejected(self, social_graph, bound_config):
        l1 = compute_alpha_beta(social_graph, 4, bound_config, seed=0)
        with pytest.raises(ConfigError):
            l1.bound(-1)

    def test_alpha_shape(self, social_graph, bound_config):
        l1 = compute_alpha_beta(social_graph, 4, bound_config, seed=0)
        assert l1.alpha.shape == (bound_config.effective_d_max + 1, bound_config.T)
        assert (l1.alpha >= 0).all()

    def test_deterministic_given_seed(self, social_graph, bound_config):
        a = compute_alpha_beta(social_graph, 4, bound_config, seed=5)
        b = compute_alpha_beta(social_graph, 4, bound_config, seed=5)
        np.testing.assert_array_equal(a.beta, b.beta)

    def test_precomputed_distances_accepted(self, social_graph, bound_config):
        dist = bfs_distances(social_graph, 4, direction="both")
        l1 = compute_alpha_beta(social_graph, 4, bound_config, seed=0, distances=dist)
        assert l1.beta.shape == (bound_config.effective_d_max + 1,)

    def test_asymmetric_mode_is_looser(self, web_graph, bound_config):
        sym = compute_alpha_beta(web_graph, 3, bound_config, seed=1)
        asym = compute_alpha_beta(
            web_graph, 3, bound_config, seed=1, symmetric_distance=False
        )
        assert (asym.beta >= sym.beta - 1e-12).all()

    def test_vertex_validation(self, small_cycle, bound_config):
        with pytest.raises(VertexError):
            compute_alpha_beta(small_cycle, 99, bound_config)

    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("d_max", [None, 2, 5, 12])
    def test_beta_equals_double_loop_oracle(self, web_graph, symmetric, d_max):
        # d_max=None is d_max = T; the others put d_max below and above T.
        config = SimRankConfig(T=8, d_max=d_max, r_alphabeta=500)
        for u in (3, 17, 40):
            dist = bfs_distances(web_graph, u, direction="both")
            l1 = compute_alpha_beta(
                web_graph, u, config, seed=u, distances=dist, symmetric_distance=symmetric
            )
            expected = reference_beta(l1.alpha, config.c, symmetric, far=l1.far)
            assert l1.beta.tolist() == expected.tolist()

    @pytest.mark.parametrize("d_max", [None, 1])
    def test_positions_past_d_max_still_bound(self, d_max):
        # u <- x_i <- w and v <- y_i <- w: the walks from u and v meet at
        # w at t = 2, two hops past d_max = 1.  d(u, v) = 4 clamps to
        # d_max, and β there must still cover s^(T)(u, v) = c^2 (1 - c).
        u, v, w = 0, 1, 2
        xs, ys = range(3, 13), range(13, 23)
        edges = [(x, u) for x in xs] + [(w, x) for x in xs]
        edges += [(y, v) for y in ys] + [(w, y) for y in ys]
        graph = CSRGraph.from_edges(23, edges)
        config = SimRankConfig(T=4, d_max=d_max, r_alphabeta=200)
        exact = all_pairs_series(graph, c=config.c, T=config.T)[u, v]
        assert exact == pytest.approx(0.144)
        for distances in (None, bfs_distances(graph, u, direction="both")):
            l1 = compute_alpha_beta(graph, u, config, seed=0, distances=distances)
            assert l1.bound(4) >= exact

    def test_truncated_labels_are_sound(self, web_graph):
        # Labels cut at any depth put the rest in the far bin: β never
        # drops below the β of full labels.
        config = SimRankConfig(T=8, r_alphabeta=500)
        for u in (3, 17, 40):
            full = bfs_distances(web_graph, u, direction="both")
            expected = compute_alpha_beta(web_graph, u, config, seed=u, distances=full).beta
            for depth in range(config.T):
                cut = bfs_distances(web_graph, u, direction="both", max_distance=depth)
                beta = compute_alpha_beta(web_graph, u, config, seed=u, distances=cut).beta
                assert (beta >= expected).all()
                if depth >= config.effective_d_max // 2 - 1:
                    assert beta.tolist() == expected.tolist()

    def test_cycle_alpha_exact(self):
        # Deterministic walks: alpha(u, d, t) = (1-c) exactly when the
        # walk sits at distance d after t steps, else 0.
        graph = cycle_graph(6)
        config = SimRankConfig(T=4, r_alphabeta=50)
        l1 = compute_alpha_beta(graph, 0, config, seed=0)
        # After t steps the walk is at vertex -t (mod 6); undirected
        # distance of that vertex from 0 is min(t, 6 - t).
        for t in range(4):
            d = min(t, 6 - t)
            assert l1.alpha[d, t] == pytest.approx(1 - config.c)


class TestL2Bound:
    def test_gamma_single_matches_batch(self, social_graph, bound_config):
        batch = compute_gamma_all(social_graph, bound_config, seed=3)
        # Not identical streams, but same magnitude (both estimate the
        # same norm): compare loosely on a few vertices.
        for u in (0, 5, 17):
            single = compute_gamma(social_graph, u, bound_config, seed=100 + u)
            np.testing.assert_allclose(single, batch.values[u], atol=0.12)

    def test_gamma_t0_is_sqrt_diagonal(self, social_graph, bound_config):
        gamma = compute_gamma_all(social_graph, bound_config, seed=0)
        np.testing.assert_allclose(
            gamma.values[:, 0], np.sqrt(1 - bound_config.c), atol=1e-12
        )

    def test_gamma_bound_dominates_series(self, social_graph, bound_config):
        gamma = compute_gamma_all(
            social_graph, bound_config.with_(r_gamma=3000), seed=1
        )
        u = 4
        slack = 0.03
        for v in range(social_graph.n):
            if v == u:
                continue
            s = single_pair_series(social_graph, u, v, c=bound_config.c, T=bound_config.T)
            assert s <= gamma.bound(u, v) + slack

    def test_bound_many_matches_scalar(self, social_graph, bound_config):
        gamma = compute_gamma_all(social_graph, bound_config, seed=2)
        candidates = np.array([1, 2, 3, 10])
        vectorised = gamma.bound_many(0, candidates)
        for i, v in enumerate(candidates):
            assert vectorised[i] == pytest.approx(gamma.bound(0, int(v)))

    def test_gamma_decays_on_spreading_walks(self, social_graph, bound_config):
        # On a well-connected graph the walk distribution flattens, so
        # the 2-norm at later steps is below the start value.
        gamma = compute_gamma_all(social_graph, bound_config, seed=4)
        hub = int(np.argmax(social_graph.in_degrees))
        assert gamma.values[hub, 3] < gamma.values[hub, 0]

    def test_self_bound_at_least_score(self, social_graph, bound_config):
        gamma = compute_gamma_all(social_graph, bound_config, seed=5)
        u = 7
        s_uu = single_pair_series(social_graph, u, u, c=bound_config.c, T=bound_config.T)
        assert gamma.bound(u, u) >= s_uu - 0.03

    def test_gamma_table_nbytes(self, social_graph, bound_config):
        gamma = compute_gamma_all(social_graph, bound_config, seed=6)
        assert gamma.nbytes() == gamma.values.nbytes

    def test_cycle_gamma_exact(self):
        graph = cycle_graph(5)
        config = SimRankConfig(T=4, r_gamma=20)
        gamma = compute_gamma_all(graph, config, seed=0)
        # Point-mass walks: gamma(u, t) = sqrt(1 - c) for every t.
        np.testing.assert_allclose(gamma.values, np.sqrt(0.4), atol=1e-12)


class TestSection63Claim:
    """§6.3: L1 is tighter for low-degree queries, L2 for high-degree."""

    def test_degree_dependence(self, social_graph):
        config = SimRankConfig(T=8, r_alphabeta=3000, r_gamma=1500)
        gamma = compute_gamma_all(social_graph, config, seed=0)
        degrees = social_graph.in_degrees
        hub = int(np.argmax(degrees))
        leaf = int(np.argmin(degrees + (degrees == 0) * 10**6))
        dist_hub = bfs_distances(social_graph, hub, direction="both")
        dist_leaf = bfs_distances(social_graph, leaf, direction="both")
        l1_hub = compute_alpha_beta(social_graph, hub, config, seed=1)
        l1_leaf = compute_alpha_beta(social_graph, leaf, config, seed=2)

        def mean_bounds(u, l1, dist):
            l1_vals, l2_vals = [], []
            for v in range(social_graph.n):
                if v == u or dist[v] < 0:
                    continue
                l1_vals.append(l1.bound(int(dist[v])))
                l2_vals.append(gamma.bound(u, v))
            return np.mean(l1_vals), np.mean(l2_vals)

        l1_at_leaf, l2_at_leaf = mean_bounds(leaf, l1_leaf, dist_leaf)
        l1_at_hub, l2_at_hub = mean_bounds(hub, l1_hub, dist_hub)
        # Relative advantage of L2 grows with degree.
        assert (l2_at_hub / l1_at_hub) < (l2_at_leaf / l1_at_leaf)

    def test_combined_bound_is_min(self, social_graph):
        config = SimRankConfig(T=8, r_alphabeta=500, r_gamma=500)
        gamma = compute_gamma_all(social_graph, config, seed=0)
        l1 = compute_alpha_beta(social_graph, 0, config, seed=1)
        combined = combined_upper_bound(l1, gamma, 5, 2, config.c)
        assert combined <= l1.bound(2) + 1e-12
        assert combined <= gamma.bound(0, 5) + 1e-12
        assert combined <= trivial_bound(config.c, 2) + 1e-12
