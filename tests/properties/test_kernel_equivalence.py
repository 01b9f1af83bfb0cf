"""Array kernels vs the dict-based oracle: equivalence on identical seeds.

The contract (docs/performance.md): with the same config and seed, the
array-native kernels (FlatSketch, ``FlatSketch.series``, fused
``estimate_batch``, batched Algorithm 4) must reproduce the per-walk
reference path of ``tests/kernel_oracle.py`` — scores to within float
rounding (1e-12), signatures and top-k vertex sets exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SimRankConfig
from repro.core.index import build_index, build_signatures
from repro.core.montecarlo import SingleSourceEstimator, single_pair_simrank
from repro.core.query import plan_query, scan, top_k_query
from repro.graph.csr import CSRGraph
from repro.utils.rng import derive_seed
from tests.kernel_oracle import (
    PositionSketch,
    reference_scores,
    reference_series,
    reference_signatures,
    reference_single_pair,
)

TOL = 1e-12

FAST = SimRankConfig(
    T=5,
    r_pair=20,
    r_screen=6,
    r_alphabeta=40,
    r_gamma=15,
    index_walks=3,
    index_checks=3,
    k=5,
    theta=0.001,
)


@st.composite
def graphs(draw, max_n: int = 12, max_m: int = 40):
    n = draw(st.integers(min_value=2, max_value=max_n))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=max_m))
    return CSRGraph.from_edges(n, sorted(set(edges)))


class TestSketchEquivalence:
    @given(graphs(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_flat_sketch_matches_position_sketch(self, graph, seed):
        from repro.core.linear import resolve_diagonal
        from repro.core.walks import FlatSketch, WalkEngine

        engine = WalkEngine(graph, seed)
        walks_u = engine.walk_matrix(0, 15, 5)
        walks_v = engine.walk_matrix(graph.n - 1, 15, 5)
        flat_u, flat_v = FlatSketch(walks_u), FlatSketch(walks_v)
        dict_u, dict_v = PositionSketch(walks_u), PositionSketch(walks_v)
        diagonal = resolve_diagonal(graph.n, 0.6, None)
        for t in range(5):
            assert flat_u.collision_value(flat_v, t, diagonal) == pytest.approx(
                dict_u.collision_value(dict_v, t, diagonal), abs=TOL
            )
            assert flat_u.self_collision_value(t, diagonal) == pytest.approx(
                dict_u.self_collision_value(t, diagonal), abs=TOL
            )
            assert flat_u.alive_fraction(t) == dict_u.alive_fraction(t)
        for c in (0.6, 0.8):
            value, meetings = flat_u.series(flat_v, c, diagonal)
            expected, expected_meetings = reference_series(dict_u, dict_v, c, diagonal)
            assert value == pytest.approx(expected, abs=TOL)
            assert meetings == expected_meetings


class TestSinglePairEquivalence:
    @given(graphs(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_single_pair_matches_reference(self, graph, seed):
        u, v = 0, graph.n - 1
        array_score = single_pair_simrank(graph, u, v, config=FAST, seed=seed)
        reference_score = reference_single_pair(graph, u, v, FAST, seed=seed)
        assert array_score == pytest.approx(reference_score, abs=TOL)


class TestBatchEstimatorEquivalence:
    @given(graphs(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_estimate_batch_matches_reference(self, graph, seed):
        u = seed % graph.n
        candidates = [v for v in range(graph.n)]  # includes u itself
        array_scores = SingleSourceEstimator(
            graph, u, config=FAST, seed=seed
        ).estimate_batch(candidates, R=12)
        oracle_scores = reference_scores(graph, u, FAST, seed)(candidates, 12)
        np.testing.assert_allclose(array_scores, oracle_scores, atol=TOL)
        assert array_scores[u] == 1.0

    @given(graphs(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_batch_scores_independent_of_batch_composition(self, graph, seed):
        """Per-candidate derived seeds: a candidate's score must not
        depend on which other candidates share the batch."""
        u = 0
        everyone = list(range(1, graph.n))
        if not everyone:
            return
        estimator = SingleSourceEstimator(graph, u, config=FAST, seed=seed)
        full = estimator.estimate_batch(everyone, R=10)
        for i in range(0, len(everyone), 3):
            alone = SingleSourceEstimator(
                graph, u, config=FAST, seed=seed
            ).estimate_batch([everyone[i]], R=10)
            assert alone[0] == full[i]

    @given(graphs(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_estimate_many_agrees_with_batch(self, graph, seed):
        u = 0
        candidates = list(range(graph.n))
        estimator = SingleSourceEstimator(graph, u, config=FAST, seed=seed)
        batch = estimator.estimate_batch(candidates, R=8)
        many = SingleSourceEstimator(
            graph, u, config=FAST, seed=seed
        ).estimate_many(candidates, R=8)
        for v, score in zip(candidates, batch):
            assert many[v] == float(score)

    def test_empty_batch(self, social_graph):
        estimator = SingleSourceEstimator(social_graph, 0, config=FAST, seed=1)
        assert estimator.estimate_batch([]).size == 0


class TestSignatureEquivalence:
    @given(graphs(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_signatures_identical(self, graph, seed):
        assert build_signatures(graph, FAST, seed=seed) == reference_signatures(
            graph, FAST, seed=seed
        )

    @given(graphs(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_subset_rebuild_matches_full_build(self, graph, seed):
        """Per-vertex seeds: rebuilding a subset reproduces exactly the
        rows a full build produces (the incremental-maintenance contract)."""
        full = build_signatures(graph, FAST, seed=seed)
        subset = list(range(0, graph.n, 2))
        rebuilt = build_signatures(graph, FAST, seed=seed, vertices=subset)
        assert rebuilt == [full[u] for u in subset]

    @given(graphs(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_text_rule_identical_too(self, graph, seed):
        text_config = FAST.with_(candidate_rule="text")
        text_array = build_signatures(graph, text_config, seed=seed)
        text_reference = reference_signatures(graph, text_config, seed=seed)
        assert text_array == text_reference


def _oracle_top_k(graph, index, u, k, config, seed):
    """Algorithm 5's scan over the served plan, every estimate from the oracle."""
    plan = plan_query(graph, index, u, k=k, config=config, seed=seed)
    return scan(plan, plan.k, reference_scores(graph, u, config, plan.score_seed))


class TestQueryEquivalence:
    @pytest.mark.parametrize("u", [0, 3, 17])
    def test_top_k_vertex_sets_identical(self, social_graph, test_config, u):
        index = build_index(social_graph, test_config, seed=0)
        oracle_rows = reference_signatures(social_graph, test_config, seed=derive_seed(0, 1))
        assert [index.H.out_neighbors(w).tolist() for w in range(index.n)] == oracle_rows
        a = top_k_query(social_graph, index, u, k=8, config=test_config, seed=5)
        b = _oracle_top_k(social_graph, index, u, 8, test_config, 5)
        assert a.vertices() == b.vertices()
        for (va, sa), (vb, sb) in zip(a.items, b.items):
            assert va == vb
            assert sa == pytest.approx(sb, abs=TOL)
        assert a.stats.pruned_by_bound == b.stats.pruned_by_bound
        assert a.stats.screened == b.stats.screened
        assert a.stats.refined == b.stats.refined

    def test_top_k_vertex_sets_identical_web(self, web_graph, test_config):
        index = build_index(web_graph, test_config, seed=2)
        for u in range(0, web_graph.n, 16):
            a = top_k_query(web_graph, index, u, k=6, config=test_config, seed=u)
            b = _oracle_top_k(web_graph, index, u, 6, test_config, u)
            assert a.vertices() == b.vertices()


class TestGammaEquivalence:
    @given(graphs(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_gamma_all_matches_per_vertex_shape(self, graph, seed):
        from repro.core.bounds import compute_gamma_all

        table = compute_gamma_all(graph, FAST, seed=seed)
        assert table.values.shape == (graph.n, FAST.T)
        assert np.isfinite(table.values).all()
        assert (table.values >= 0.0).all()
