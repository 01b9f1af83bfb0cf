"""Property-based tests: the dynamic engine vs rebuild-from-scratch.

The contract of incremental maintenance is behavioural equivalence:
after any edit sequence, the dynamic engine's *deterministic* answers
(single-source series, which depend only on the graph) must equal those
of a fresh engine built on the edited graph, and its index must satisfy
the same structural invariants a fresh build does.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SimRankConfig
from repro.core.dynamic import DynamicSimRankEngine
from repro.graph.csr import CSRGraph

FAST = SimRankConfig(
    T=4,
    r_pair=10,
    r_screen=5,
    r_alphabeta=20,
    r_gamma=10,
    index_walks=3,
    index_checks=2,
    k=3,
    theta=0.001,
)


@st.composite
def graph_and_edits(draw, max_n: int = 9):
    n = draw(st.integers(min_value=3, max_value=max_n))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=20))
    edits = draw(
        st.lists(
            st.tuples(st.sampled_from(["add", "remove"]), vertex, vertex),
            min_size=1,
            max_size=6,
        )
    )
    return n, sorted(set(edges)), edits


class TestDynamicEquivalence:
    @given(graph_and_edits())
    @settings(max_examples=30, deadline=None)
    def test_edge_set_matches_manual_bookkeeping(self, data):
        n, edges, edits = data
        dynamic = DynamicSimRankEngine(CSRGraph.from_edges(n, edges), FAST, seed=1)
        expected = set(edges)
        for kind, u, v in edits:
            if kind == "add":
                dynamic.add_edge(u, v)
                expected.add((u, v))
            else:
                dynamic.remove_edge(u, v)
                expected.discard((u, v))
        dynamic.flush()
        assert set(map(tuple, dynamic.graph.edge_array().tolist())) == expected

    @given(graph_and_edits())
    @settings(max_examples=25, deadline=None)
    def test_deterministic_scores_equal_fresh_build(self, data):
        n, edges, edits = data
        dynamic = DynamicSimRankEngine(CSRGraph.from_edges(n, edges), FAST, seed=1)
        final = set(edges)
        for kind, u, v in edits:
            if kind == "add":
                dynamic.add_edge(u, v)
                final.add((u, v))
            else:
                dynamic.remove_edge(u, v)
                final.discard((u, v))
        dynamic.flush()
        fresh_graph = CSRGraph.from_edges(n, sorted(final))
        from repro.core.linear import single_source_series

        for u in range(n):
            np.testing.assert_allclose(
                dynamic.single_source(u),
                single_source_series(fresh_graph, u, c=FAST.c, T=FAST.T),
                atol=1e-12,
            )

    @given(graph_and_edits())
    @settings(max_examples=25, deadline=None)
    def test_index_invariants_hold_after_edits(self, data):
        n, edges, edits = data
        dynamic = DynamicSimRankEngine(CSRGraph.from_edges(n, edges), FAST, seed=1)
        for kind, u, v in edits:
            (dynamic.add_edge if kind == "add" else dynamic.remove_edge)(u, v)
        dynamic.flush()
        index = dynamic._engine.index
        assert index.n == dynamic.graph.n
        assert index.gamma.values.shape[0] == dynamic.graph.n
        H = index.H
        for u in range(index.n):
            for w in H.out_neighbors(u).tolist():
                assert u in H.in_neighbors(w)
        for w in range(index.n):
            postings = H.in_neighbors(w).tolist()
            assert postings == sorted(postings)

    @given(graph_and_edits())
    @settings(max_examples=20, deadline=None)
    def test_queries_never_crash_after_edits(self, data):
        n, edges, edits = data
        dynamic = DynamicSimRankEngine(CSRGraph.from_edges(n, edges), FAST, seed=1)
        for kind, u, v in edits:
            (dynamic.add_edge if kind == "add" else dynamic.remove_edge)(u, v)
        result = dynamic.top_k(0, k=3)
        assert 0 not in result.vertices()
        assert len(result) <= 3


@st.composite
def graph_edits_and_flush_points(draw, max_n: int = 8):
    """Like :func:`graph_and_edits`, plus growth and interleaved flushes.

    Edit endpoints may exceed the initial vertex range by up to 2 (the
    growth path), and each edit carries a flush-after bit so chained
    incremental patches (patch-on-patched) get exercised, not just one
    big flush at the end.
    """
    n = draw(st.integers(min_value=3, max_value=max_n))
    vertex = st.integers(min_value=0, max_value=n - 1)
    grown = st.integers(min_value=0, max_value=n + 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=16))
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["add", "remove"]), grown, grown, st.booleans()
            ),
            min_size=1,
            max_size=8,
        )
    )
    return n, sorted(set(edges)), steps


class TestBitIdentity:
    """The hard contract: an incremental flush is *bit-identical* to
    ``SimRankEngine(new_graph, config, seed).preprocess()`` — exact
    signatures, exact inverted lists, exact gamma bits, exact top-k."""

    def _assert_bit_identical(self, incremental, fresh) -> None:
        for key, array in fresh.index.H.to_buffers().items():
            np.testing.assert_array_equal(incremental.index.H.to_buffers()[key], array)
        np.testing.assert_array_equal(
            incremental.index.gamma.values, fresh.index.gamma.values
        )
        np.testing.assert_array_equal(incremental.diagonal, fresh.diagonal)
        for u in range(incremental.graph.n):
            assert incremental.top_k(u).items == fresh.top_k(u).items

    def _replay(self, data, rebuild_fraction: float):
        from repro.core.engine import SimRankEngine

        n, edges, steps = data
        dynamic = DynamicSimRankEngine(
            CSRGraph.from_edges(n, edges),
            FAST,
            seed=3,
            rebuild_fraction=rebuild_fraction,
        )
        for kind, u, v, flush_now in steps:
            (dynamic.add_edge if kind == "add" else dynamic.remove_edge)(u, v)
            if flush_now:
                dynamic.flush()
        dynamic.flush()
        fresh = SimRankEngine(dynamic.graph, FAST, seed=3).preprocess()
        return dynamic.engine, fresh

    @given(graph_edits_and_flush_points())
    @settings(max_examples=30, deadline=None)
    def test_incremental_patch_bit_identical(self, data):
        # rebuild_fraction=1.0 pins the COW row-surgery path: a full
        # rebuild can never mask an incremental-repair bug here.
        incremental, fresh = self._replay(data, rebuild_fraction=1.0)
        self._assert_bit_identical(incremental, fresh)

    @given(graph_edits_and_flush_points())
    @settings(max_examples=10, deadline=None)
    def test_full_rebuild_crossover_bit_identical(self, data):
        # The tiniest fraction forces the crossover on every flush; both
        # sides of the threshold must land on the same bits.
        incremental, fresh = self._replay(data, rebuild_fraction=0.01)
        self._assert_bit_identical(incremental, fresh)

    @given(graph_edits_and_flush_points())
    @settings(max_examples=15, deadline=None)
    def test_scores_within_1e12_of_fresh_build(self, data):
        incremental, fresh = self._replay(data, rebuild_fraction=1.0)
        for u in range(incremental.graph.n):
            np.testing.assert_allclose(
                incremental.single_source(u),
                fresh.single_source(u),
                atol=1e-12,
            )
