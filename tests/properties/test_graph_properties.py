"""Property-based tests for the graph substrate (hypothesis)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SimRankConfig
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraphBuilder
from repro.graph.traversal import UNREACHABLE, bfs_distances, weakly_connected_components
from tests.plan_oracle import reference_bfs


@st.composite
def edge_lists(draw, max_n: int = 12, max_m: int = 40):
    """A random (n, edges) pair with endpoints inside [0, n)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=max_m))
    return n, edges


@st.composite
def graphs(draw, max_n: int = 12, max_m: int = 40):
    n, edges = draw(edge_lists(max_n, max_m))
    return CSRGraph.from_edges(n, sorted(set(edges)))


class TestCsrInvariants:
    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_degree_sums_equal_edge_count(self, ne):
        n, edges = ne
        graph = CSRGraph.from_edges(n, edges)
        assert graph.out_degrees.sum() == graph.m
        assert graph.in_degrees.sum() == graph.m

    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_in_out_adjacency_consistent(self, ne):
        n, edges = ne
        graph = CSRGraph.from_edges(n, edges)
        for u in range(n):
            for v in graph.out_neighbors(u):
                assert u in graph.in_neighbors(int(v))

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_edge_array_round_trip(self, graph):
        rebuilt = CSRGraph.from_edges(graph.n, [tuple(e) for e in graph.edge_array()])
        assert rebuilt == graph

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_reverse_involution(self, graph):
        assert graph.reverse().reverse() == graph

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_transition_columns_stochastic(self, graph):
        sums = np.asarray(graph.transition_matrix().sum(axis=0)).ravel()
        for j in range(graph.n):
            expected = 1.0 if graph.in_degree(j) > 0 else 0.0
            assert abs(sums[j] - expected) < 1e-9

    @given(edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_builder_dedup_matches_set(self, ne):
        n, edges = ne
        builder = DiGraphBuilder(n)
        builder.add_edges(edges)
        assert builder.m == len(set(edges))


class TestBfsInvariants:
    @given(graphs(), st.integers(min_value=0, max_value=11))
    @settings(max_examples=60, deadline=None)
    def test_bfs_source_and_edge_consistency(self, graph, source):
        source %= graph.n
        dist = bfs_distances(graph, source, direction="out")
        assert dist[source] == 0
        # Edge relaxation: d(v) <= d(u) + 1 along every out-edge.
        for u, v in graph.edges():
            if dist[u] != UNREACHABLE:
                assert dist[v] != UNREACHABLE
                assert dist[v] <= dist[u] + 1

    @given(graphs(), st.integers(min_value=0, max_value=11))
    @settings(max_examples=60, deadline=None)
    def test_undirected_bfs_symmetric_reachability(self, graph, source):
        source %= graph.n
        dist = bfs_distances(graph, source, direction="both")
        for target in range(graph.n):
            if dist[target] == UNREACHABLE:
                continue
            back = bfs_distances(graph, target, direction="both")
            assert back[source] == dist[target]  # undirected distance symmetric

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_components_partition_vertices(self, graph):
        components = weakly_connected_components(graph)
        flat = [v for comp in components for v in comp]
        assert sorted(flat) == list(range(graph.n))

    @given(graphs(), st.integers(min_value=0, max_value=11), st.integers(min_value=0, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_max_distance_is_prefix_of_full_bfs(self, graph, source, radius):
        source %= graph.n
        full = bfs_distances(graph, source, direction="both")
        truncated = bfs_distances(graph, source, direction="both", max_distance=radius)
        for v in range(graph.n):
            if truncated[v] != UNREACHABLE:
                assert truncated[v] == full[v]
            elif full[v] != UNREACHABLE:
                assert full[v] > radius


@st.composite
def multigraphs(draw, max_n: int = 12, max_m: int = 40):
    """Graphs keeping duplicate edges and self-loops (one of each, at least)."""
    n, edges = draw(edge_lists(max_n, max_m))
    loop = draw(st.integers(min_value=0, max_value=n - 1))
    edges = edges + [(loop, loop)] + edges[:3]
    return CSRGraph.from_edges(n, edges)


class TestBfsMatchesOracle:
    """``bfs_distances`` labels equal a one-vertex-at-a-time deque BFS."""

    @given(
        multigraphs(),
        st.integers(min_value=0, max_value=11),
        st.sampled_from(["in", "out", "both"]),
        st.sampled_from([None, 0, 1, 2, SimRankConfig().effective_d_max]),
    )
    @settings(max_examples=150, deadline=None)
    def test_labels_equal_deque_bfs(self, graph, source, direction, max_distance):
        source %= graph.n
        dist = bfs_distances(graph, source, direction=direction, max_distance=max_distance)
        expected = reference_bfs(graph, source, direction, max_distance)
        assert dist.tolist() == expected

    def test_duplicate_edges_and_self_loops(self):
        # 0 -> 1 twice, 1 -> 1, 1 -> 2 twice, 3 -> 2, 2 -> 2.
        graph = CSRGraph.from_edges(5, [(0, 1), (0, 1), (1, 1), (1, 2), (1, 2), (3, 2), (2, 2)])
        for direction in ("in", "out", "both"):
            for max_distance in (None, 0, 1, 2, 3):
                for source in range(graph.n):
                    dist = bfs_distances(graph, source, direction, max_distance)
                    assert dist.tolist() == reference_bfs(graph, source, direction, max_distance)
