"""Property-based tests for the bounds-before-traversal plan (hypothesis).

The query plan simulates u's L1 walks before any BFS, and labels only
to ρ0 = max(fallback_ball_radius, ⌊d_max/2⌋ - 1) unless a candidate
needs more.  These properties check, on random graphs and
configurations, that nothing a scan reads changes:

- β from labels truncated at ρ0 equals β from full labels, bit for bit;
- the distance-free bound B* dominates β(d) for every d ≥ 1, so a plan
  emptied on B* < θ had nothing to scan;
- ``plan_query`` keeps the full-BFS plan up to the θ-floor shell.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import compute_alpha_beta, l1_walks
from repro.core.config import SimRankConfig
from repro.core.query import plan_query
from repro.graph.traversal import bfs_distances
from tests.plan_oracle import assert_plan_preserves, reference_plan
from tests.properties.test_graph_properties import graphs


@st.composite
def configs(draw):
    """A small-R config with random T, d_max, θ and ball radius."""
    return SimRankConfig(
        T=draw(st.integers(min_value=2, max_value=9)),
        d_max=draw(st.one_of(st.none(), st.integers(min_value=1, max_value=12))),
        theta=draw(st.sampled_from([0.0, 0.005, 0.05, 0.3])),
        fallback_ball_radius=draw(st.integers(min_value=0, max_value=3)),
        r_alphabeta=50,
        r_pair=20,
        r_screen=10,
    )


@st.composite
def queries(draw):
    graph = draw(graphs(max_n=14, max_m=45))
    u = draw(st.integers(min_value=0, max_value=graph.n - 1))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return graph, u, draw(configs()), seed


class TestBoundsBeforeTraversal:
    @given(queries())
    @settings(max_examples=80, deadline=None)
    def test_truncated_beta_equals_full_beta(self, query):
        graph, u, config, seed = query
        d_max = config.effective_d_max
        depth = max(config.fallback_ball_radius, d_max // 2 - 1)
        walks = l1_walks(graph, u, config, seed=seed)
        full = bfs_distances(graph, u, direction="both")
        cut = bfs_distances(graph, u, direction="both", max_distance=depth)
        expected = compute_alpha_beta(graph, u, config, distances=full, walks=walks).beta
        got = compute_alpha_beta(graph, u, config, distances=cut, walks=walks).beta
        assert got.tolist() == expected.tolist()

    @given(queries())
    @settings(max_examples=80, deadline=None)
    def test_distance_free_bound_dominates_beta(self, query):
        graph, u, config, seed = query
        walks = l1_walks(graph, u, config, seed=seed)
        beta = compute_alpha_beta(
            graph, u, config, distances=bfs_distances(graph, u, direction="both"),
            walks=walks,
        ).beta
        assert walks.distance_free_bound() >= beta[1:].max()

    @given(queries())
    @settings(max_examples=60, deadline=None)
    def test_plan_keeps_full_bfs_plan(self, query):
        graph, u, config, seed = query
        plan = plan_query(graph, None, u, k=3, config=config, seed=seed)
        assert_plan_preserves(plan, reference_plan(graph, None, u, 3, config, seed=seed))
