"""The live-walk loops equal the full-width positional layout bit for bit.

``estimate_batch``, ``compute_gamma_rows`` and ``build_signatures`` step
only the walks still alive and draw each one's uniform from its own
(key, step, lane) counter.  On graphs where many vertices have no
in-links (so many walks end early) their results must equal, with
``==``, the full-width references of ``tests/kernel_oracle.py``, where
every slot steps on its entry of the keyed block and a dead slot burns
its draw.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.bounds import compute_gamma_rows
from repro.core.config import SimRankConfig
from repro.core.index import build_signatures
from repro.core.montecarlo import SingleSourceEstimator
from repro.graph.csr import CSRGraph
from tests.kernel_oracle import full_width_gamma_rows, full_width_scores, reference_signatures


def config_for(T: int) -> SimRankConfig:
    return SimRankConfig(
        T=T, r_pair=9, r_screen=4, r_gamma=7, index_walks=3, index_checks=3, k=3
    )


@st.composite
def sparse_graphs(draw, max_n: int = 14, max_m: int = 36):
    """Graphs where a drawn set of vertices (at least one) has no in-links."""
    n = draw(st.integers(min_value=3, max_value=max_n))
    sources = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    targets = [v for v in range(n) if v not in sources]
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.sampled_from(targets)),
            min_size=len(targets),
            max_size=max_m,
        )
    )
    return CSRGraph.from_edges(n, sorted(set(edges)))


def no_in_links(graph: CSRGraph) -> list:
    return np.flatnonzero(graph.in_degrees == 0).tolist()


@st.composite
def batches(draw):
    """A graph, a query vertex u and a candidate batch that holds u and a duplicate."""
    graph = draw(sparse_graphs())
    vertex = st.integers(0, graph.n - 1)
    # A u with in-links keeps walks alive long enough to meet candidates'.
    u = draw(st.sampled_from(np.flatnonzero(graph.in_degrees > 0).tolist() or [0]))
    candidates = draw(st.lists(vertex, min_size=1, max_size=10))
    return graph, u, candidates + [u, candidates[0]]


class TestLiveWalksMatchFullWidth:
    @given(batches(), st.integers(1, 6), st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    @example(  # T = 1: no step at all
        batch=(CSRGraph.from_edges(4, [(0, 1), (1, 2), (2, 1)]), 1, [1, 2, 2, 3]), T=1, seed=3
    )
    def test_estimate_batch(self, batch, T, seed):
        graph, u, candidates = batch
        config = config_for(T)
        for R in (config.r_screen, config.r_pair):
            estimator = SingleSourceEstimator(graph, u, config, seed=seed)
            got = estimator.estimate_batch(candidates, R=R)
            expected = full_width_scores(graph, u, config, seed)(candidates, R)
            assert got.tolist() == expected.tolist()

    @given(sparse_graphs(), st.integers(1, 6), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_batch_whose_walks_all_end_at_once(self, graph, T, seed):
        """Candidates without in-links: every walk ends before step 1."""
        config = config_for(T)
        u = graph.n - 1
        candidates = no_in_links(graph) * 2
        estimator = SingleSourceEstimator(graph, u, config, seed=seed)
        got = estimator.estimate_batch(candidates, R=config.r_pair)
        expected = full_width_scores(graph, u, config, seed)(candidates, config.r_pair)
        assert got.tolist() == expected.tolist()
        assert all(score == (1.0 if v == u else 0.0) for v, score in zip(candidates, got))

    @given(sparse_graphs(), st.integers(1, 6), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_gamma_rows(self, graph, T, seed):
        config = config_for(T)
        vertices = list(range(graph.n)) + no_in_links(graph)
        got = compute_gamma_rows(graph, vertices, config, seed=seed)
        expected = full_width_gamma_rows(graph, vertices, config, seed=seed)
        assert got.tobytes() == expected.tobytes()

    @given(
        sparse_graphs(),
        st.integers(1, 6),
        st.integers(0, 2**31),
        st.sampled_from(["text", "pseudocode"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_signatures(self, graph, T, seed, rule):
        config = config_for(T).with_(candidate_rule=rule)
        vertices = list(range(graph.n)) + no_in_links(graph)
        got = build_signatures(graph, config, seed=seed, vertices=vertices)
        assert got == reference_signatures(graph, config, seed=seed, vertices=vertices)
