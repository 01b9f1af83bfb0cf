"""Integration tests: the pipeline actually feeds the registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.config import SimRankConfig
from repro.core.engine import SimRankEngine
from repro.graph.generators import copying_web_graph, preferential_attachment
from repro.workloads import CachedSimRankEngine

SMALL_CONFIG = SimRankConfig(
    T=4, r_pair=20, r_screen=5, r_alphabeta=40, r_gamma=15,
    index_walks=3, index_checks=3, k=5,
)


@pytest.fixture(autouse=True)
def obs_hygiene():
    """Leave the global observability state exactly as we found it."""
    yield
    obs.disable()
    obs.reset()


@pytest.fixture(scope="module")
def engine() -> SimRankEngine:
    graph = copying_web_graph(100, seed=5)
    return SimRankEngine(graph, SMALL_CONFIG, seed=5).preprocess()


class TestDisabledByDefault:
    def test_switch_starts_off(self):
        assert not obs.enabled()

    def test_nothing_recorded_when_off(self, engine):
        obs.reset()
        engine.top_k(3)
        assert len(obs.get_registry()) == 0

    def test_trace_is_noop_when_off(self, engine):
        engine.top_k(3)
        assert obs.OBS.tracer.spans() == []


class TestQueryMetrics:
    def test_counters_match_query_stats(self, engine):
        with obs.session() as registry:
            result = engine.top_k(7)
        stats = result.stats
        # The bespoke QueryStats plumbing must agree with the registry.
        assert stats.candidates > 0
        assert registry.counter_value("query", "queries_total") == 1
        assert registry.counter_value("query", "candidates_total") == stats.candidates
        assert (
            registry.counter_value("query", "pruned_by_bound_total")
            == stats.pruned_by_bound
        )
        assert registry.counter_value("query", "screened_total") == stats.screened
        assert registry.counter_value("query", "refined_total") == stats.refined
        assert (
            registry.counter_value("query", "samples_total") == stats.walks_simulated
        )

    def test_latency_histogram_counts_queries(self, engine):
        with obs.session() as registry:
            for u in range(4):
                engine.top_k(u)
        hist = registry.get("query", "latency_seconds")
        assert hist.count == 4
        assert hist.sum > 0

    def test_stats_populated_by_top_k(self, engine):
        # Guard for the pre-obs plumbing the registry feeds on.
        result = engine.top_k(11)
        assert result.stats.candidates >= len(result.items)
        assert result.stats.walks_simulated > 0
        assert result.stats.elapsed_seconds > 0
        assert result.stats.pruned_by_bound >= 0

    def test_walk_counters_accumulate(self, engine):
        with obs.session() as registry:
            result = engine.top_k(9)
        assert (
            registry.counter_value("walks", "walks_total")
            >= result.stats.walks_simulated - SMALL_CONFIG.r_alphabeta
        )
        assert registry.counter_value("walks", "bundles_total") > 0
        assert registry.counter_value("walks", "steps_total") > 0


class TestPreprocessMetrics:
    def test_build_records_phases_and_index_shape(self):
        graph = preferential_attachment(80, out_degree=3, seed=2)
        with obs.session() as registry:
            engine = SimRankEngine(graph, SMALL_CONFIG, seed=2).preprocess()
        assert registry.counter_value("preprocess", "builds_total") == 1
        assert registry.counter_value("preprocess", "vertices_total") == 80
        assert registry.gauge("preprocess", "seconds").value > 0
        assert registry.gauge("index", "bytes").value == engine.index_nbytes()
        postings = registry.get("index", "postings_length")
        assert postings.count == np.count_nonzero(engine.index.H.in_degrees)

    def test_preprocess_spans_when_tracing(self):
        graph = preferential_attachment(60, out_degree=3, seed=3)
        with obs.session(tracing=True):
            SimRankEngine(graph, SMALL_CONFIG, seed=3).preprocess()
        names = [span.name for span in obs.OBS.tracer.spans()]
        assert "preprocess.build_index" in names
        assert "preprocess.signatures" in names
        assert "preprocess.gamma" in names
        outer = next(
            span for span in obs.OBS.tracer.spans()
            if span.name == "preprocess.build_index"
        )
        inner = next(
            span for span in obs.OBS.tracer.spans()
            if span.name == "preprocess.signatures"
        )
        assert inner.depth == outer.depth + 1


class TestCacheMetrics:
    def test_cache_events_flow_into_registry(self, engine):
        with obs.session() as registry:
            cache = CachedSimRankEngine(engine, capacity=2)
            cache.top_k(1)   # miss
            cache.top_k(1)   # hit
            cache.top_k(2)   # miss
            cache.top_k(3)   # miss + eviction of key 1
            cache.invalidate()
        assert registry.counter_value("cache", "hits_total") == cache.stats.hits == 1
        assert (
            registry.counter_value("cache", "misses_total") == cache.stats.misses == 3
        )
        assert (
            registry.counter_value("cache", "evictions_total")
            == cache.stats.evictions
            == 1
        )
        assert (
            registry.counter_value("cache", "invalidations_total")
            == cache.stats.invalidations
            == 1
        )


class TestScoping:
    def test_collecting_isolates_the_outer_registry(self, engine):
        with obs.session() as outer:
            engine.top_k(1)
            with obs.collecting() as inner:
                engine.top_k(2)
            engine.top_k(3)
        assert inner.counter_value("query", "queries_total") == 1
        assert outer.counter_value("query", "queries_total") == 2

    def test_session_restores_prior_switch(self):
        assert not obs.enabled()
        with obs.session():
            assert obs.enabled()
        assert not obs.enabled()


class TestParallelMerge:
    def test_parallel_counters_equal_sequential(self, engine):
        vertices = range(12)
        with obs.session() as sequential_registry:
            sequential = engine.top_k_all(k=5, vertices=vertices)
        with obs.session() as parallel_registry:
            parallel = engine.top_k_all_parallel(k=5, vertices=vertices, workers=2)
        assert {u: r.items for u, r in sequential.items()} == parallel
        seq, par = sequential_registry.snapshot(), parallel_registry.snapshot()
        for key, value in seq["counters"].items():
            if key.startswith(("query.", "walks.")):
                assert par["counters"][key] == value, key
        assert (
            par["histograms"]["query.latency_seconds"]["count"]
            == seq["histograms"]["query.latency_seconds"]["count"]
        )
        assert par["counters"]["parallel.chunks_total"] > 0

    def test_single_worker_path_merges_too(self, engine):
        with obs.session() as registry:
            engine.top_k_all_parallel(k=5, vertices=range(6), workers=1)
        assert registry.counter_value("query", "queries_total") == 6
        assert registry.counter_value("parallel", "chunks_total") == 1


class TestCatalog:
    def test_emitted_metrics_are_catalogued(self, engine):
        from repro.obs import catalog

        with obs.session() as registry:
            engine.top_k(5)
            CachedSimRankEngine(engine).top_k(5)
        for (subsystem, name), _metric in registry:
            assert (subsystem, name) in catalog.CATALOG, (subsystem, name)

    def test_flat_names(self):
        from repro.obs import catalog

        assert catalog.flat_name(catalog.QUERY_CANDIDATES) == "query_candidates_total"
        assert catalog.flat_name(catalog.PREPROCESS_SECONDS) == "preprocess_seconds"
