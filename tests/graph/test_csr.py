"""Unit tests for the CSR graph storage layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphFormatError, VertexError
from repro.graph.csr import CSRGraph


class TestConstruction:
    def test_from_edges_basic(self):
        graph = CSRGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert graph.n == 3
        assert graph.m == 3

    def test_empty_graph(self):
        graph = CSRGraph.empty(5)
        assert graph.n == 5
        assert graph.m == 0
        assert list(graph.edges()) == []

    def test_zero_vertices(self):
        graph = CSRGraph.empty(0)
        assert graph.n == 0
        assert graph.m == 0

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(GraphFormatError):
            CSRGraph.from_edges(-1, [])

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(VertexError):
            CSRGraph.from_edges(2, [(0, 5)])

    def test_negative_endpoint_rejected(self):
        with pytest.raises(VertexError):
            CSRGraph.from_edges(2, [(-1, 0)])

    def test_malformed_edges_rejected(self):
        with pytest.raises(GraphFormatError):
            CSRGraph.from_edges(3, [(0, 1, 2)])  # type: ignore[list-item]

    def test_self_loop_allowed(self):
        graph = CSRGraph.from_edges(2, [(0, 0)])
        assert graph.m == 1
        assert 0 in graph.in_neighbors(0)


class TestNeighbors:
    @pytest.fixture
    def graph(self) -> CSRGraph:
        # 0 -> 1, 0 -> 2, 1 -> 2, 2 -> 0
        return CSRGraph.from_edges(3, [(0, 1), (0, 2), (1, 2), (2, 0)])

    def test_out_neighbors(self, graph):
        assert sorted(graph.out_neighbors(0).tolist()) == [1, 2]
        assert graph.out_neighbors(1).tolist() == [2]
        assert graph.out_neighbors(2).tolist() == [0]

    def test_in_neighbors(self, graph):
        assert graph.in_neighbors(0).tolist() == [2]
        assert graph.in_neighbors(1).tolist() == [0]
        assert sorted(graph.in_neighbors(2).tolist()) == [0, 1]

    def test_degrees(self, graph):
        assert graph.out_degree(0) == 2
        assert graph.in_degree(2) == 2
        assert graph.out_degrees.tolist() == [2, 1, 1]
        assert graph.in_degrees.tolist() == [1, 1, 2]

    def test_degree_sums_equal_edge_count(self, graph):
        assert graph.out_degrees.sum() == graph.m
        assert graph.in_degrees.sum() == graph.m

    def test_vertex_out_of_range(self, graph):
        with pytest.raises(VertexError):
            graph.out_neighbors(3)
        with pytest.raises(VertexError):
            graph.in_neighbors(-1)

    def test_neighbor_views_read_only(self, graph):
        view = graph.out_neighbors(0)
        with pytest.raises(ValueError):
            view[0] = 99


class TestWholeGraphViews:
    def test_edges_iteration_sorted(self):
        graph = CSRGraph.from_edges(3, [(2, 0), (0, 2), (0, 1)])
        assert list(graph.edges()) == [(0, 1), (0, 2), (2, 0)]

    def test_edge_array_round_trip(self, social_graph):
        edges = social_graph.edge_array()
        rebuilt = CSRGraph.from_edges(social_graph.n, [tuple(e) for e in edges.tolist()])
        assert rebuilt == social_graph
        # An (m, 2) int64 array is taken as-is.
        assert CSRGraph.from_edges(social_graph.n, edges) == social_graph

    def test_reverse_swaps_directions(self):
        graph = CSRGraph.from_edges(3, [(0, 1), (1, 2)])
        rev = graph.reverse()
        assert rev.out_neighbors(1).tolist() == [0]
        assert rev.in_neighbors(1).tolist() == [2]
        assert rev.m == graph.m

    def test_double_reverse_is_identity(self, web_graph):
        assert web_graph.reverse().reverse() == web_graph

    def test_nbytes_positive_and_scales(self):
        small = CSRGraph.from_edges(10, [(0, 1)])
        large = CSRGraph.from_edges(1000, [(i, (i + 1) % 1000) for i in range(1000)])
        assert 0 < small.nbytes() < large.nbytes()

    def test_equality_and_hash(self):
        a = CSRGraph.from_edges(3, [(0, 1)])
        b = CSRGraph.from_edges(3, [(0, 1)])
        c = CSRGraph.from_edges(3, [(1, 0)])
        assert a == b
        assert a != c
        assert hash(a) == hash(b)

    def test_equality_against_other_type(self):
        assert CSRGraph.empty(1) != "graph"


class TestTransitionMatrix:
    def test_columns_are_stochastic_or_zero(self, social_graph):
        P = social_graph.transition_matrix()
        column_sums = np.asarray(P.sum(axis=0)).ravel()
        in_degrees = social_graph.in_degrees
        for j in range(social_graph.n):
            expected = 1.0 if in_degrees[j] > 0 else 0.0
            assert column_sums[j] == pytest.approx(expected)

    def test_entries_are_uniform_over_in_neighbors(self):
        graph = CSRGraph.from_edges(3, [(0, 2), (1, 2)])
        P = graph.transition_matrix().toarray()
        assert P[0, 2] == pytest.approx(0.5)
        assert P[1, 2] == pytest.approx(0.5)
        assert P[2, 0] == 0.0

    def test_matches_paper_example_claw(self, claw):
        # Example 1: P = [[0,1,1,1],[1/3,0,0,0],[1/3,0,0,0],[1/3,0,0,0]].
        P = claw.transition_matrix().toarray()
        expected = np.array(
            [
                [0, 1, 1, 1],
                [1 / 3, 0, 0, 0],
                [1 / 3, 0, 0, 0],
                [1 / 3, 0, 0, 0],
            ]
        )
        np.testing.assert_allclose(P, expected)

    def test_propagation_matches_manual_step(self):
        graph = CSRGraph.from_edges(3, [(0, 2), (1, 2), (2, 0)])
        P = graph.transition_matrix()
        e2 = np.zeros(3)
        e2[2] = 1.0
        stepped = P @ e2
        np.testing.assert_allclose(stepped, [0.5, 0.5, 0.0])

    def test_dead_end_column_is_zero(self):
        graph = CSRGraph.from_edges(2, [(0, 1)])  # vertex 0 has no in-links
        P = graph.transition_matrix().toarray()
        assert P[:, 0].sum() == 0.0


class TestBinarySerialization:
    def test_round_trip(self, social_graph, tmp_path):
        path = tmp_path / "graph.npz"
        social_graph.save(path)
        loaded = CSRGraph.load(path)
        assert loaded == social_graph
        assert loaded.in_degrees.tolist() == social_graph.in_degrees.tolist()

    def test_empty_graph_round_trip(self, tmp_path):
        path = tmp_path / "empty.npz"
        graph = CSRGraph.empty(7)
        graph.save(path)
        loaded = CSRGraph.load(path)
        assert loaded.n == 7
        assert loaded.m == 0

    def test_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"garbage")
        with pytest.raises(GraphFormatError):
            CSRGraph.load(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(GraphFormatError):
            CSRGraph.load(tmp_path / "missing.npz")

    def test_loaded_graph_usable_in_engine(self, web_graph, tmp_path):
        from repro.core.config import SimRankConfig
        from repro.core.engine import SimRankEngine

        path = tmp_path / "g.npz"
        web_graph.save(path)
        config = SimRankConfig(T=4, r_pair=20, r_alphabeta=40, r_gamma=20,
                               index_walks=3, index_checks=2)
        engine = SimRankEngine(CSRGraph.load(path), config, seed=0).preprocess()
        assert engine.top_k(0, k=3) is not None


class TestApplyDelta:
    """Row-splice delta merge: bit-identical to a from_edges rebuild."""

    @pytest.fixture
    def base(self) -> CSRGraph:
        return CSRGraph.from_edges(
            6, [(0, 1), (0, 2), (1, 2), (2, 0), (3, 4), (4, 5), (5, 0)]
        )

    @staticmethod
    def _rebuilt(graph: CSRGraph, adds, removes, n=None) -> CSRGraph:
        edges = list(graph.edges())
        for edge in removes:
            edges.remove(edge)
        edges.extend(adds)
        n_new = max([n or graph.n] + [max(u, v) + 1 for u, v in edges])
        return CSRGraph.from_edges(n_new, sorted(edges))

    def _assert_same(self, left: CSRGraph, right: CSRGraph) -> None:
        assert left.n == right.n
        assert left.m == right.m
        for u in range(left.n):
            np.testing.assert_array_equal(left.out_neighbors(u), right.out_neighbors(u))
            np.testing.assert_array_equal(left.in_neighbors(u), right.in_neighbors(u))

    def test_add_and_remove_matches_rebuild(self, base):
        delta = base.apply_delta([(3, 1), (1, 5)], [(0, 2), (4, 5)])
        self._assert_same(delta, self._rebuilt(base, [(3, 1), (1, 5)], [(0, 2), (4, 5)]))

    def test_untouched_rows_preserved_bitwise(self, base):
        delta = base.apply_delta([(3, 1)], [])
        # Only vertex 1's in-row and 3's out-row change; every other row
        # keeps identical content and order (the walk-locality contract).
        for u in range(base.n):
            if u != 3:
                np.testing.assert_array_equal(delta.out_neighbors(u), base.out_neighbors(u))
            if u != 1:
                np.testing.assert_array_equal(delta.in_neighbors(u), base.in_neighbors(u))

    def test_growth_via_explicit_n(self, base):
        delta = base.apply_delta([(0, 8)], [], n=9)
        assert delta.n == 9
        assert list(delta.out_neighbors(8)) == []
        self._assert_same(delta, self._rebuilt(base, [(0, 8)], [], n=9))

    def test_growth_inferred_from_adds(self, base):
        delta = base.apply_delta([(7, 0)], [])
        assert delta.n == 8
        assert 7 in delta.in_neighbors(0)

    def test_shrinking_n_rejected(self, base):
        with pytest.raises(GraphFormatError):
            base.apply_delta([], [], n=3)

    def test_removing_absent_edge_rejected(self, base):
        with pytest.raises(GraphFormatError):
            base.apply_delta([], [(0, 5)])

    def test_out_of_range_endpoints_rejected(self, base):
        with pytest.raises(VertexError):
            base.apply_delta([(0, 10)], [], n=7)
        with pytest.raises(VertexError):
            base.apply_delta([], [(0, 10)])

    def test_empty_delta_is_identity(self, base):
        self._assert_same(base.apply_delta([], []), base)

    def test_base_graph_never_mutated(self, base):
        before = [base.out_neighbors(u).copy() for u in range(base.n)]
        base.apply_delta([(3, 1), (1, 5)], [(0, 2)])
        for u in range(base.n):
            np.testing.assert_array_equal(base.out_neighbors(u), before[u])

    def test_randomized_against_rebuild(self):
        rng = np.random.default_rng(5)
        for trial in range(12):
            n = int(rng.integers(4, 30))
            m = int(rng.integers(0, 4 * n))
            edges = sorted({
                (int(rng.integers(0, n)), int(rng.integers(0, n))) for _ in range(m)
            })
            graph = CSRGraph.from_edges(n, edges)
            present = set(edges)
            removes = [e for e in edges if rng.random() < 0.25]
            adds = []
            for _ in range(int(rng.integers(0, 10))):
                edge = (int(rng.integers(0, n + 2)), int(rng.integers(0, n + 2)))
                if edge not in present:
                    adds.append(edge)
                    present.add(edge)
            delta = graph.apply_delta(adds, removes)
            self._assert_same(delta, self._rebuilt(graph, adds, removes))
