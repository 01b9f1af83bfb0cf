"""Property-based tests for the walk engine and Monte-Carlo machinery."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SimRankConfig
from repro.core.montecarlo import single_pair_simrank
from repro.core.walks import DEAD, FlatSketch, WalkEngine
from repro.graph.csr import CSRGraph


@st.composite
def graphs(draw, max_n: int = 10, max_m: int = 35):
    n = draw(st.integers(min_value=2, max_value=max_n))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=max_m))
    return CSRGraph.from_edges(n, sorted(set(edges)))


class TestWalkInvariants:
    @given(graphs(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=50, deadline=None)
    def test_every_transition_follows_an_in_edge(self, graph, seed):
        engine = WalkEngine(graph, seed=seed)
        start = seed % graph.n
        walks = engine.walk_matrix(start, R=8, T=5)
        for t in range(1, 5):
            for r in range(8):
                prev, curr = int(walks[t - 1, r]), int(walks[t, r])
                if prev == DEAD:
                    assert curr == DEAD
                elif curr != DEAD:
                    assert curr in graph.in_neighbors(prev)
                else:
                    assert graph.in_degree(prev) == 0

    @given(graphs(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=50, deadline=None)
    def test_sketch_counts_bounded_by_R(self, graph, seed):
        engine = WalkEngine(graph, seed=seed)
        start = seed % graph.n
        sketch = FlatSketch(engine.walk_matrix(start, R=12, T=5))
        for t in range(5):
            total = sketch.row(t)[1].sum()
            assert 0 <= total <= 12
            assert 0.0 <= sketch.alive_fraction(t) <= 1.0

    @given(graphs(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_collision_values_nonnegative_and_bounded(self, graph, seed):
        engine = WalkEngine(graph, seed=seed)
        d = np.full(graph.n, 0.4)
        a = FlatSketch(engine.walk_matrix(0, R=10, T=4))
        b = FlatSketch(engine.walk_matrix(graph.n - 1, R=10, T=4))
        for t in range(4):
            value = a.collision_value(b, t, d)
            assert 0.0 <= value <= 0.4 + 1e-12


class TestMonteCarloInvariants:
    @given(
        graphs(),
        st.integers(min_value=0, max_value=2**31),
        st.sampled_from([0.4, 0.6, 0.8]),
    )
    @settings(max_examples=40, deadline=None)
    def test_estimates_nonnegative_and_bounded(self, graph, seed, c):
        config = SimRankConfig(c=c, T=5, r_pair=20)
        u, v = seed % graph.n, (seed + 1) % graph.n
        value = single_pair_simrank(graph, u, v, config, seed=seed)
        assert value >= 0.0
        # Worst case: D mass 1-c collides at every step.
        assert value <= (1 - c) / (1 - c) + 1e-9  # = sum c^t (1-c) <= 1

    @given(graphs(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_symmetry_in_expectation_structure(self, graph, seed):
        # The estimator's value distribution is symmetric in (u, v):
        # with swapped seeds the roles swap; check both orders produce
        # values in the same feasible range rather than exact equality.
        config = SimRankConfig(T=5, r_pair=30)
        u, v = seed % graph.n, (seed // 7) % graph.n
        a = single_pair_simrank(graph, u, v, config, seed=seed)
        b = single_pair_simrank(graph, v, u, config, seed=seed)
        if u == v:
            assert a == b == 1.0
        else:
            assert abs(a - b) <= 1.0
