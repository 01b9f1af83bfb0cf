"""Array kernels vs ``kernel="reference"``: equivalence on identical seeds.

The contract (docs/performance.md): with the same config and seed, the
array-native kernels (FlatSketch, fused ``estimate_batch``, batched
Algorithm 4) must reproduce the dict-based reference path — scores to
within float rounding (1e-12), signatures and top-k vertex sets exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SimRankConfig
from repro.core.index import build_index, build_signatures
from repro.core.montecarlo import SingleSourceEstimator, single_pair_simrank
from repro.core.query import top_k_query
from repro.graph.csr import CSRGraph

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

ARRAY = FAST.with_(kernel="array")
REFERENCE = FAST.with_(kernel="reference")


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
        from repro.core.walks import FlatSketch, PositionSketch, WalkEngine

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


class TestSinglePairEquivalence:
    @given(graphs(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_single_pair_matches_reference(self, graph, seed):
        u, v = 0, graph.n - 1
        array_score = single_pair_simrank(graph, u, v, config=ARRAY, seed=seed)
        reference_score = single_pair_simrank(graph, u, v, config=REFERENCE, seed=seed)
        assert array_score == pytest.approx(reference_score, abs=TOL)


class TestBatchEstimatorEquivalence:
    @given(graphs(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_estimate_batch_matches_reference(self, graph, seed):
        u = seed % graph.n
        candidates = [v for v in range(graph.n)]  # includes u itself
        array_scores = SingleSourceEstimator(
            graph, u, config=ARRAY, seed=seed
        ).estimate_batch(candidates, R=12)
        reference_scores = SingleSourceEstimator(
            graph, u, config=REFERENCE, seed=seed
        ).estimate_batch(candidates, R=12)
        np.testing.assert_allclose(array_scores, reference_scores, atol=TOL)
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
        estimator = SingleSourceEstimator(graph, u, config=ARRAY, seed=seed)
        full = estimator.estimate_batch(everyone, R=10)
        for i in range(0, len(everyone), 3):
            alone = SingleSourceEstimator(
                graph, u, config=ARRAY, seed=seed
            ).estimate_batch([everyone[i]], R=10)
            assert alone[0] == full[i]

    @given(graphs(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_estimate_many_agrees_with_batch(self, graph, seed):
        u = 0
        candidates = list(range(graph.n))
        estimator = SingleSourceEstimator(graph, u, config=ARRAY, seed=seed)
        batch = estimator.estimate_batch(candidates, R=8)
        many = SingleSourceEstimator(
            graph, u, config=ARRAY, seed=seed
        ).estimate_many(candidates, R=8)
        for v, score in zip(candidates, batch):
            assert many[v] == float(score)

    def test_empty_batch(self, social_graph):
        estimator = SingleSourceEstimator(social_graph, 0, config=ARRAY, seed=1)
        assert estimator.estimate_batch([]).size == 0


class TestSignatureEquivalence:
    @given(graphs(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_signatures_identical(self, graph, seed):
        assert build_signatures(graph, ARRAY, seed=seed) == build_signatures(
            graph, REFERENCE, seed=seed
        )

    @given(graphs(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_subset_rebuild_matches_full_build(self, graph, seed):
        """Per-vertex seeds: rebuilding a subset reproduces exactly the
        rows a full build produces (the incremental-maintenance contract)."""
        full = build_signatures(graph, ARRAY, seed=seed)
        subset = list(range(0, graph.n, 2))
        rebuilt = build_signatures(graph, ARRAY, seed=seed, vertices=subset)
        assert rebuilt == [full[u] for u in subset]

    @given(graphs(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_text_rule_identical_too(self, graph, seed):
        text_array = build_signatures(
            graph, ARRAY.with_(candidate_rule="text"), seed=seed
        )
        text_reference = build_signatures(
            graph, REFERENCE.with_(candidate_rule="text"), seed=seed
        )
        assert text_array == text_reference


class TestQueryEquivalence:
    @pytest.mark.parametrize("u", [0, 3, 17])
    def test_top_k_vertex_sets_identical(self, social_graph, test_config, u):
        array_config = test_config.with_(kernel="array")
        reference_config = test_config.with_(kernel="reference")
        array_index = build_index(social_graph, array_config, seed=0)
        reference_index = build_index(social_graph, reference_config, seed=0)
        assert array_index.H == reference_index.H
        a = top_k_query(social_graph, array_index, u, k=8, config=array_config, seed=5)
        b = top_k_query(
            social_graph, reference_index, u, k=8, config=reference_config, seed=5
        )
        assert a.vertices() == b.vertices()
        for (va, sa), (vb, sb) in zip(a.items, b.items):
            assert va == vb
            assert sa == pytest.approx(sb, abs=TOL)
        assert a.stats.pruned_by_bound == b.stats.pruned_by_bound
        assert a.stats.screened == b.stats.screened
        assert a.stats.refined == b.stats.refined

    def test_top_k_vertex_sets_identical_web(self, web_graph, test_config):
        array_config = test_config.with_(kernel="array")
        reference_config = test_config.with_(kernel="reference")
        index = build_index(web_graph, array_config, seed=2)
        for u in range(0, web_graph.n, 16):
            a = top_k_query(web_graph, index, u, k=6, config=array_config, seed=u)
            b = top_k_query(web_graph, index, u, k=6, config=reference_config, seed=u)
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
