"""Property-based tests for the index/query pipeline invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SimRankConfig
from repro.core.index import build_index
from repro.core.query import top_k_query
from repro.graph.csr import CSRGraph

FAST = SimRankConfig(
    T=4,
    r_pair=15,
    r_screen=5,
    r_alphabeta=30,
    r_gamma=15,
    index_walks=3,
    index_checks=2,
    k=4,
    theta=0.001,
)


@st.composite
def graphs(draw, max_n: int = 10, max_m: int = 30):
    n = draw(st.integers(min_value=2, max_value=max_n))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=max_m))
    return CSRGraph.from_edges(n, sorted(set(edges)))


class TestIndexInvariants:
    @given(graphs(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_signatures_and_inverted_lists_consistent(self, graph, seed):
        H = build_index(graph, FAST, seed=seed).H
        for u in range(H.n):
            assert u in H.out_neighbors(u)
            for w in H.out_neighbors(u).tolist():
                assert u in H.in_neighbors(w)
        for w in range(H.n):
            postings = H.in_neighbors(w).tolist()
            assert postings == sorted(postings)
            for u in postings:
                assert w in H.out_neighbors(u)

    @given(graphs(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_candidate_relation_symmetric(self, graph, seed):
        index = build_index(graph, FAST, seed=seed)
        for u in range(graph.n):
            for v in index.candidates(u):
                assert u in index.candidates(v)

    @given(graphs(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_with_rows_keeps_consistency(self, graph, seed):
        index = build_index(graph, FAST, seed=seed)
        rng = np.random.default_rng(seed)
        rows = sorted({int(rng.integers(graph.n)) for _ in range(3)})
        replaced = {
            u: sorted({u, int(rng.integers(graph.n)), int(rng.integers(graph.n))})
            for u in rows
        }
        patched = index.with_rows(
            rows, [replaced[u] for u in rows], index.gamma.values[rows]
        )
        # Bit-identical to building H from scratch over the new rows.
        rebuilt = CSRGraph.from_edges(graph.n, [
            (u, w)
            for u in range(graph.n)
            for w in replaced.get(u, index.H.out_neighbors(u).tolist())
        ])
        for key, array in rebuilt.to_buffers().items():
            np.testing.assert_array_equal(patched.H.to_buffers()[key], array)
        np.testing.assert_array_equal(patched.gamma.values, index.gamma.values)

    @given(graphs(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_serialization_round_trip(self, graph, seed):
        import tempfile
        from pathlib import Path

        from repro.core.index import CandidateIndex

        index = build_index(graph, FAST, seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "index.npz"
            index.save(path)
            loaded = CandidateIndex.load(path)
        assert loaded.H == index.H
        np.testing.assert_array_equal(loaded.gamma.values, index.gamma.values)


class TestQueryInvariants:
    @given(
        graphs(),
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_result_well_formed(self, graph, seed, k):
        index = build_index(graph, FAST, seed=seed)
        u = seed % graph.n
        result = top_k_query(graph, index, u, k=k, config=FAST, seed=seed)
        assert len(result) <= k
        assert u not in result.vertices()
        scores = [s for _, s in result.items]
        assert scores == sorted(scores, reverse=True)
        assert all(s >= FAST.theta for s in scores)
        assert len(set(result.vertices())) == len(result.vertices())

    @given(graphs(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_query_deterministic(self, graph, seed):
        index = build_index(graph, FAST, seed=seed)
        u = seed % graph.n
        a = top_k_query(graph, index, u, config=FAST, seed=seed)
        b = top_k_query(graph, index, u, config=FAST, seed=seed)
        assert a.items == b.items

    @given(graphs(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_results_subset_of_candidates_or_ball(self, graph, seed):
        from repro.graph.traversal import distance_ball

        index = build_index(graph, FAST, seed=seed)
        u = seed % graph.n
        result = top_k_query(graph, index, u, config=FAST, seed=seed)
        allowed = set(index.candidates(u))
        allowed.update(distance_ball(graph, u, FAST.fallback_ball_radius, direction="both"))
        for v in result.vertices():
            assert v in allowed
