"""Tests for incremental index maintenance (DynamicSimRankEngine)."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.config import SimRankConfig
from repro.core.dynamic import DynamicSimRankEngine
from repro.core.engine import SimRankEngine
from repro.errors import VertexError
from repro.graph.generators import copying_web_graph, cycle_graph


@pytest.fixture
def dyn_config() -> SimRankConfig:
    return SimRankConfig(
        T=6, r_pair=80, r_screen=10, r_alphabeta=200, r_gamma=60,
        index_walks=5, index_checks=4, k=5, theta=0.003,
    )


@pytest.fixture
def dynamic(dyn_config) -> DynamicSimRankEngine:
    graph = copying_web_graph(200, seed=6)
    return DynamicSimRankEngine(graph, dyn_config, seed=3)


class TestEditStaging:
    def test_duplicate_add_rejected(self, dynamic):
        u, v = next(iter(dynamic.graph.edges()))
        assert dynamic.add_edge(u, v) is False
        assert dynamic.pending_edits == 0

    def test_new_edge_staged(self, dynamic):
        assert dynamic.add_edge(0, 199) in (True,)
        assert dynamic.pending_edits == 1

    def test_remove_absent_edge_rejected(self, dynamic):
        assert dynamic.remove_edge(198, 199) in (False,)

    def test_remove_existing_edge(self, dynamic):
        u, v = next(iter(dynamic.graph.edges()))
        assert dynamic.remove_edge(u, v) is True
        assert dynamic.pending_edits == 1

    def test_negative_vertex_rejected(self, dynamic):
        with pytest.raises(VertexError):
            dynamic.add_edge(-1, 3)

    def test_flush_without_edits_is_noop(self, dynamic):
        stats = dynamic.flush()
        assert stats.edits_applied == 0
        assert stats.vertices_affected == 0


class TestFlushSemantics:
    def test_flush_applies_edges(self, dynamic):
        dynamic.add_edge(0, 150)
        stats = dynamic.flush()
        assert stats.edits_applied == 1
        assert 150 in dynamic.graph.out_neighbors(0)

    def test_affected_set_is_local(self, dynamic):
        dynamic.add_edge(0, 150)
        stats = dynamic.flush()
        assert 0 < stats.vertices_affected < dynamic.graph.n

    def test_growth_adds_vertices(self, dynamic):
        dynamic.add_edge(5, 250)  # beyond current range
        dynamic.flush()
        assert dynamic.graph.n == 251
        assert dynamic._engine.index.gamma.values.shape[0] == 251

    def test_query_auto_flushes(self, dynamic):
        dynamic.add_edge(0, 150)
        dynamic.top_k(3)
        assert dynamic.pending_edits == 0

    def test_mass_edit_triggers_full_rebuild(self, dyn_config):
        graph = copying_web_graph(150, seed=7)
        dynamic = DynamicSimRankEngine(graph, dyn_config, seed=1, rebuild_fraction=0.05)
        rng = np.random.default_rng(0)
        for _ in range(30):
            dynamic.add_edge(int(rng.integers(150)), int(rng.integers(150)))
        stats = dynamic.flush()
        assert stats.full_rebuild

    def test_invalid_rebuild_fraction(self, dyn_config):
        with pytest.raises(ValueError):
            DynamicSimRankEngine(cycle_graph(5), dyn_config, rebuild_fraction=0.0)


class TestFlushListeners:
    def test_listener_fires_with_engine_and_stats(self, dynamic):
        calls = []
        dynamic.add_flush_listener(lambda engine, stats: calls.append((engine, stats)))
        dynamic.add_edge(0, 150)
        stats = dynamic.flush()
        assert len(calls) == 1
        engine, seen_stats = calls[0]
        assert engine is dynamic.engine
        assert seen_stats is stats

    def test_listener_not_fired_on_noop_flush(self, dynamic):
        calls = []
        dynamic.add_flush_listener(lambda engine, stats: calls.append(stats))
        dynamic.flush()  # nothing staged
        assert calls == []

    def test_listener_fires_per_applied_flush(self, dynamic):
        calls = []
        dynamic.add_flush_listener(lambda engine, stats: calls.append(stats))
        dynamic.add_edge(0, 150)
        dynamic.flush()
        dynamic.add_edge(1, 151)
        dynamic.flush()
        assert len(calls) == 2

    def test_remove_listener(self, dynamic):
        calls = []
        listener = dynamic.add_flush_listener(
            lambda engine, stats: calls.append(stats)
        )
        dynamic.remove_flush_listener(listener)
        dynamic.add_edge(0, 150)
        dynamic.flush()
        assert calls == []

    def test_add_returns_listener_for_chaining(self, dynamic):
        def listener(engine, stats):
            pass

        assert dynamic.add_flush_listener(listener) is listener

    def test_flush_publishes_new_engine_not_mutation(self, dynamic):
        """The outgoing engine keeps answering pre-flush results."""
        old_engine = dynamic.engine
        before = old_engine.top_k(3).items
        dynamic.add_edge(0, 150)
        dynamic.add_edge(150, 0)
        dynamic.flush()
        assert dynamic.engine is not old_engine
        assert old_engine.top_k(3).items == before


class TestEquivalenceWithStaticRebuild:
    """The incremental path must answer like an engine built from scratch."""

    def test_scores_match_static_engine_after_edits(self, dyn_config):
        graph = copying_web_graph(200, seed=6)
        dynamic = DynamicSimRankEngine(graph, dyn_config, seed=3)
        edits = [(0, 60), (5, 61), (60, 5)]
        for u, v in edits:
            dynamic.add_edge(u, v)
        dynamic.flush()

        from repro.graph.digraph import DiGraphBuilder

        builder = DiGraphBuilder(200)
        builder.add_edges(graph.edges())
        builder.add_edges(edits)
        static = SimRankEngine(builder.to_csr(), dyn_config, seed=3).preprocess()

        # Deterministic single-source scores agree exactly (same graph).
        np.testing.assert_allclose(
            dynamic.single_source(5), static.single_source(5), atol=1e-12
        )

    def test_removed_edge_changes_similarity(self, dyn_config):
        # Two leaves sharing one citer: removing the shared edge kills s.
        from repro.graph.csr import CSRGraph

        graph = CSRGraph.from_edges(4, [(0, 1), (0, 2), (3, 0)])
        dynamic = DynamicSimRankEngine(graph, dyn_config, seed=0)
        before = dynamic.single_pair(1, 2, method="deterministic")
        dynamic.remove_edge(0, 2)
        after = dynamic.single_pair(1, 2, method="deterministic")
        assert before > 0
        assert after == 0.0

    def test_untouched_region_signatures_preserved(self, dyn_config):
        # An edit in one corner must not rewrite far-away signatures.
        graph = cycle_graph(60)
        dynamic = DynamicSimRankEngine(graph, dyn_config, seed=2)
        far_signature = dynamic._engine.index.H.out_neighbors(30).tolist()
        dynamic.add_edge(0, 2)
        stats = dynamic.flush()
        assert not stats.full_rebuild
        assert dynamic._engine.index.H.out_neighbors(30).tolist() == far_signature

    def test_candidates_consistent_after_patch(self, dynamic):
        dynamic.add_edge(0, 150)
        dynamic.flush()
        H = dynamic._engine.index.H
        # Posting lists (in-rows) and signatures (out-rows) must stay
        # mutually consistent.
        for u in range(H.n):
            for w in H.out_neighbors(u).tolist():
                assert u in H.in_neighbors(w)
        for w in range(H.n):
            postings = H.in_neighbors(w).tolist()
            assert postings == sorted(postings)
            for u in postings:
                assert w in H.out_neighbors(u)


class TestConcurrency:
    """Edit staging and flushing race from different threads in serving.

    Regression for the unlocked shared state: before ``_state_lock``,
    a flush sorting ``_edges`` while another thread staged an edit
    raised ``RuntimeError: Set changed size during iteration`` (or
    silently lost edits in the check-then-act windows).
    """

    def test_concurrent_staging_and_flushing(self, dyn_config):
        import threading

        graph = cycle_graph(40)
        dynamic = DynamicSimRankEngine(graph, dyn_config, seed=1)
        n = graph.n
        errors = []
        done = threading.Event()

        def stage(offset: int) -> None:
            try:
                for i in range(40):
                    u = (offset + 3 * i) % n
                    v = (u + 7 + offset) % n
                    if not dynamic.add_edge(u, v):
                        dynamic.remove_edge(u, v)
                    assert dynamic.pending_edits >= 0
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def flush_loop() -> None:
            try:
                while not done.is_set():
                    dynamic.flush()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        writers = [threading.Thread(target=stage, args=(k,)) for k in (0, 1)]
        flusher = threading.Thread(target=flush_loop)
        flusher.start()
        for w in writers:
            w.start()
        for w in writers:
            w.join()
        done.set()
        flusher.join()
        assert errors == []
        dynamic.flush()
        assert dynamic.pending_edits == 0
        # Every surviving staged edit is visible: membership through the
        # (now empty) overlay agrees with the flushed graph edge by edge.
        flushed = set(map(tuple, dynamic.graph.edge_array().tolist()))
        with dynamic._state_lock:
            assert not dynamic._staged_adds and not dynamic._staged_removes
            assert not dynamic._inflight_adds and not dynamic._inflight_removes
            for u, v in flushed:
                assert dynamic._edge_exists_locked(int(u), int(v))
        # And the engine still answers.
        assert dynamic.top_k(0, k=3).items


class TestBlastRadiusDedup:
    """N edits on one target share one ball expansion, not N."""

    def test_shared_target_expands_one_ball(self, dyn_config, monkeypatch):
        import repro.core.dynamic as dynamic_module

        graph = copying_web_graph(150, seed=7)
        dynamic = DynamicSimRankEngine(graph, dyn_config, seed=1)
        calls = []
        real_ball = dynamic_module.distance_ball

        def counting_ball(g, source, radius, direction="out"):
            calls.append(int(source))
            return real_ball(g, source, radius, direction=direction)

        monkeypatch.setattr(dynamic_module, "distance_ball", counting_ball)
        for u in (3, 9, 17, 23, 41):  # five edits, one shared target
            dynamic.add_edge(u, 50)
        stats = dynamic.flush()
        assert stats.edits_applied == 5
        assert calls == [50]

    def test_mixed_targets_deduplicate_per_direction(self, dyn_config, monkeypatch):
        import repro.core.dynamic as dynamic_module

        graph = copying_web_graph(150, seed=7)
        dynamic = DynamicSimRankEngine(graph, dyn_config, seed=1)
        removable = [(int(u), int(v)) for u, v in graph.edges() if int(v) == 1][:2]
        assert len(removable) == 2
        calls = []
        real_ball = dynamic_module.distance_ball

        def counting_ball(g, source, radius, direction="out"):
            calls.append(int(source))
            return real_ball(g, source, radius, direction=direction)

        monkeypatch.setattr(dynamic_module, "distance_ball", counting_ball)
        dynamic.add_edge(3, 60)
        dynamic.add_edge(9, 60)
        for u, v in removable:
            dynamic.remove_edge(u, v)
        dynamic.flush()
        # Adds share target 60 (one new-graph ball); both removals share
        # target 1 (one old-graph ball).
        assert sorted(calls) == [1, 60]


class TestCopyOnWriteRepair:
    def test_base_engine_unchanged_after_patch(self, dyn_config):
        graph = cycle_graph(80)
        dynamic = DynamicSimRankEngine(graph, dyn_config, seed=2)
        base = dynamic.engine
        before_sigs = base.index.H.out_indices.copy()
        before_gamma = base.index.gamma.values.copy()
        dynamic.add_edge(0, 2)
        dynamic.flush()
        np.testing.assert_array_equal(base.index.H.out_indices, before_sigs)
        np.testing.assert_array_equal(base.index.gamma.values, before_gamma)


class TestFlushPipeline:
    def test_staleness_triggers_background_flush(self, dyn_config):
        from repro.core.dynamic import FlushPipeline

        graph = cycle_graph(40)
        dynamic = DynamicSimRankEngine(graph, dyn_config, seed=1)
        pipeline = FlushPipeline(dynamic, max_staleness=0.05, max_pending=10_000)
        pipeline.start()
        try:
            dynamic.add_edge(0, 5)
            deadline = time.time() + 5.0
            while dynamic.flush_epoch == 0 and time.time() < deadline:
                time.sleep(0.01)
            assert dynamic.flush_epoch == 1
            assert dynamic.pending_edits == 0
        finally:
            pipeline.stop()

    def test_backpressure_forces_flush_and_throttle_unblocks(self, dyn_config):
        from repro.core.dynamic import FlushPipeline

        graph = cycle_graph(60)
        dynamic = DynamicSimRankEngine(graph, dyn_config, seed=1)
        pipeline = FlushPipeline(dynamic, max_staleness=60.0, max_pending=5)
        pipeline.start()
        try:
            for i in range(12):
                dynamic.add_edge(i, (i + 7) % 60)
            assert pipeline.throttle(timeout=10.0) is True
            assert dynamic.pending_edits <= 5
            assert dynamic.flush_epoch >= 1
        finally:
            pipeline.stop()

    def test_queries_serve_published_snapshot_without_flushing(self, dyn_config):
        from repro.core.dynamic import FlushPipeline

        graph = cycle_graph(40)
        dynamic = DynamicSimRankEngine(graph, dyn_config, seed=1)
        pipeline = FlushPipeline(dynamic, max_staleness=60.0, max_pending=10_000)
        pipeline.start()
        try:
            dynamic.add_edge(0, 5)
            dynamic.top_k(0, k=3)  # must NOT rebuild on the query path
            assert dynamic.pending_edits == 1
            assert dynamic.flush_epoch == 0
        finally:
            pipeline.stop(flush=True)
        assert dynamic.pending_edits == 0
        assert dynamic.flush_epoch == 1

    def test_without_pipeline_queries_auto_flush(self, dyn_config):
        graph = cycle_graph(40)
        dynamic = DynamicSimRankEngine(graph, dyn_config, seed=1)
        dynamic.add_edge(0, 5)
        dynamic.top_k(0, k=3)
        assert dynamic.pending_edits == 0  # the seed behaviour, preserved

    def test_apply_retunes_live(self, dyn_config):
        from repro.core.dynamic import FlushPipeline

        dynamic = DynamicSimRankEngine(cycle_graph(20), dyn_config, seed=1)
        pipeline = FlushPipeline(dynamic, max_staleness=1.0, max_pending=100)
        pipeline.apply("flush_max_staleness", 0.25)
        pipeline.apply("flush_max_pending", 7)
        assert pipeline.max_staleness == 0.25
        assert pipeline.max_pending == 7
        with pytest.raises(KeyError):
            pipeline.apply("unknown_knob", 1.0)

    def test_flush_error_surfaces_on_stop(self, dyn_config, monkeypatch):
        from repro.core.dynamic import FlushPipeline

        dynamic = DynamicSimRankEngine(cycle_graph(20), dyn_config, seed=1)
        pipeline = FlushPipeline(dynamic, max_staleness=0.02, max_pending=1)
        boom = RuntimeError("repair exploded")

        def failing_flush():
            raise boom

        monkeypatch.setattr(dynamic, "flush", failing_flush)
        pipeline.start()
        dynamic.add_edge(0, 5)
        deadline = time.time() + 5.0
        while pipeline.last_error is None and time.time() < deadline:
            time.sleep(0.01)
        monkeypatch.undo()  # let stop()'s drain flush succeed
        with pytest.raises(RuntimeError, match="repair exploded"):
            pipeline.stop()

    def test_second_pipeline_rejected(self, dyn_config):
        from repro.core.dynamic import FlushPipeline

        dynamic = DynamicSimRankEngine(cycle_graph(20), dyn_config, seed=1)
        first = FlushPipeline(dynamic).start()
        try:
            with pytest.raises(RuntimeError):
                FlushPipeline(dynamic).start()
        finally:
            first.stop()


class TestFailedFlushKeepsEdits:
    """A flush that raises hands its acknowledged edits back to staging."""

    @staticmethod
    def fail_once(dynamic, monkeypatch, during=None):
        real = dynamic._patch_engine
        calls = []

        def flaky(*args):
            calls.append(args)
            if len(calls) == 1:
                if during is not None:
                    during()
                raise RuntimeError("repair exploded")
            return real(*args)

        monkeypatch.setattr(dynamic, "_patch_engine", flaky)

    def test_retry_applies_the_failed_edit(self, dyn_config, monkeypatch):
        dynamic = DynamicSimRankEngine(cycle_graph(40), dyn_config, seed=1)
        self.fail_once(dynamic, monkeypatch)
        assert dynamic.add_edge(0, 5) is True
        with pytest.raises(RuntimeError, match="repair exploded"):
            dynamic.flush()
        assert dynamic.pending_edits == 1
        assert dynamic.flush_epoch == 0
        assert dynamic.staged_age_seconds > 0
        assert dynamic.flush().edits_applied == 1
        assert dynamic.pending_edits == 0
        assert 5 in dynamic.graph.out_neighbors(0)
        assert dynamic.add_edge(0, 5) is False

    def test_later_edits_join_the_retry(self, dyn_config, monkeypatch):
        dynamic = DynamicSimRankEngine(cycle_graph(40), dyn_config, seed=1)
        self.fail_once(dynamic, monkeypatch)
        dynamic.add_edge(0, 5)
        with pytest.raises(RuntimeError):
            dynamic.flush()
        dynamic.add_edge(1, 7)
        assert dynamic.flush().edits_applied == 2
        assert dynamic.pending_edits == 0
        assert 5 in dynamic.graph.out_neighbors(0)
        assert 7 in dynamic.graph.out_neighbors(1)
        assert dynamic.add_edge(0, 5) is False

    def test_edit_staged_during_the_failure_cancels(self, dyn_config, monkeypatch):
        dynamic = DynamicSimRankEngine(cycle_graph(40), dyn_config, seed=1)
        # The inflight add (0, 5) is visible, so removing it stages a remove.
        self.fail_once(
            dynamic, monkeypatch, during=lambda: dynamic.remove_edge(0, 5)
        )
        dynamic.add_edge(0, 5)
        with pytest.raises(RuntimeError):
            dynamic.flush()
        assert dynamic.pending_edits == 0
        assert dynamic.staged_age_seconds == 0.0
        assert dynamic.flush().edits_applied == 0
        assert 5 not in dynamic.graph.out_neighbors(0)
        assert dynamic.add_edge(0, 5) is True

    def test_pipeline_publishes_after_a_failed_flush(self, dyn_config, monkeypatch):
        from repro.core.dynamic import FlushPipeline

        dynamic = DynamicSimRankEngine(cycle_graph(40), dyn_config, seed=1)
        self.fail_once(dynamic, monkeypatch)
        pipeline = FlushPipeline(dynamic, max_staleness=0.02, max_pending=10_000)
        pipeline.start()
        dynamic.add_edge(0, 5)
        deadline = time.time() + 5.0
        while dynamic.flush_epoch == 0 and time.time() < deadline:
            time.sleep(0.01)
        assert dynamic.flush_epoch == 1
        assert dynamic.pending_edits == 0
        assert 5 in dynamic.graph.out_neighbors(0)
        with pytest.raises(RuntimeError, match="repair exploded"):
            pipeline.stop()
