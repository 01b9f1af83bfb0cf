"""TunableSpec stepping, TunableSet apply path, live handle/batcher knobs."""

from __future__ import annotations

import threading

import pytest

from repro.core.config import ENGINE_TUNABLES, TUNABLES, TunableSpec
from repro.errors import ConfigError
from repro.serve import TunableSet
from repro.serve.lifecycle import EngineHandle


class TestTunableSpec:
    def test_catalog_covers_controller_knobs(self):
        assert {"max_batch", "batch_window", "r_pair", "screen_slack"} <= set(
            TUNABLES
        )
        assert ENGINE_TUNABLES == {"r_pair", "screen_slack"}
        assert TUNABLES["index_walks"].scope == "index"

    def test_mul_step_and_clamp(self):
        spec = TUNABLES["max_batch"]
        assert spec.up(16) == 32
        assert spec.down(16) == 8
        assert spec.up(spec.maximum) == spec.maximum
        assert spec.down(spec.minimum) == spec.minimum

    def test_add_step(self):
        spec = TUNABLES["screen_slack"]
        assert spec.up(0.3) == pytest.approx(0.4)
        assert spec.down(0.2) == pytest.approx(0.1)
        assert spec.down(0.1) == pytest.approx(0.1)  # clamped at minimum

    def test_integer_grid_never_stalls(self):
        # A multiplicative step too small to move an integer knob must
        # still make progress (nudged by one), or the controller would
        # spin forever at small values.
        spec = TunableSpec(
            name="toy", scope="engine", minimum=1, maximum=10,
            step=1.05, mode="mul", integer=True,
        )
        assert spec.up(2) == 3
        assert spec.down(2) == 1

    def test_validate_rejects_out_of_bounds(self):
        with pytest.raises(ValueError):
            TUNABLES["max_batch"].validate(0)
        with pytest.raises(ValueError):
            TUNABLES["batch_window"].validate(1.0)

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            TunableSpec(name="x", scope="nowhere", minimum=0, maximum=1, step=2)
        with pytest.raises(ValueError):
            TunableSpec(name="x", scope="engine", minimum=2, maximum=1, step=2)
        with pytest.raises(ValueError):
            TunableSpec(name="x", scope="engine", minimum=0, maximum=1,
                        step=0.5, mode="mul")


class TestTunableSet:
    def _make(self) -> TunableSet:
        return TunableSet(
            {"max_batch": 16, "batch_window": 0.002, "r_pair": 100,
             "screen_slack": 0.3}
        )

    def test_initial_values_validated(self):
        with pytest.raises(ValueError):
            TunableSet({"max_batch": 100_000})
        with pytest.raises(ConfigError):
            TunableSet({"no_such_knob": 1})

    def test_apply_returns_previous_and_publishes(self):
        tunables = self._make()
        assert tunables.apply("max_batch", 32) == 16
        assert tunables.get_int("max_batch") == 32

    def test_apply_rejects_out_of_bounds_without_mutating(self):
        tunables = self._make()
        with pytest.raises(ValueError):
            tunables.apply("batch_window", 99.0)
        assert tunables.get("batch_window") == pytest.approx(0.002)

    def test_unknown_knob_raises(self):
        tunables = self._make()
        with pytest.raises(ConfigError):
            tunables.get("warp_factor")
        with pytest.raises(ConfigError):
            tunables.apply("warp_factor", 9)

    def test_current_returns_copy(self):
        tunables = self._make()
        view = tunables.current()
        view["max_batch"] = 999
        assert tunables.get_int("max_batch") == 16

    def test_listeners_fire_after_publish(self):
        tunables = self._make()
        seen = []
        tunables.subscribe(lambda name, value: seen.append((name, value)))
        tunables.apply("r_pair", 150)
        assert seen == [("r_pair", 150.0)]

    def test_unsubscribe_is_idempotent(self):
        tunables = self._make()
        listener = tunables.subscribe(lambda name, value: None)
        tunables.unsubscribe(listener)
        tunables.unsubscribe(listener)
        tunables.apply("r_pair", 150)  # must not raise

    def test_concurrent_applies_land_on_grid_values(self):
        tunables = self._make()
        spec = TUNABLES["max_batch"]

        def worker(direction: str) -> None:
            for _ in range(200):
                current = tunables.get("max_batch")
                target = spec.up(current) if direction == "up" else spec.down(current)
                tunables.apply("max_batch", target)

        threads = [
            threading.Thread(target=worker, args=(d,))
            for d in ("up", "down", "up", "down")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        final = tunables.get("max_batch")
        assert spec.minimum <= final <= spec.maximum


class TestEngineOverrides:
    def test_with_config_is_zero_copy_view(self, static_engine):
        view = static_engine.with_config(r_pair=60)
        assert view.config.r_pair == 60
        assert static_engine.config.r_pair != 60
        assert view.index is static_engine.index
        assert view.graph is static_engine.graph

    def test_with_config_rejects_structural_fields(self, static_engine):
        with pytest.raises(ValueError):
            static_engine.with_config(index_walks=20)
        with pytest.raises(ValueError):
            static_engine.with_config(c=0.8)

    def test_apply_engine_overrides_keeps_epoch_fresh_cache(self, static_engine):
        handle = EngineHandle(static_engine, cache_capacity=8)
        before = handle.current()
        before.top_k(0)  # populate the old cache
        after = handle.apply_engine_overrides(r_pair=60)
        assert after.epoch == before.epoch
        assert after.engine.config.r_pair == 60
        assert after.cache is not before.cache  # stale results retired
        assert handle.engine_overrides() == {"r_pair": 60}
        handle.close()

    def test_overrides_change_answers_consistently(self, static_engine):
        handle = EngineHandle(static_engine, cache_capacity=None)
        handle.apply_engine_overrides(r_pair=60)
        served = handle.current().top_k(5)
        direct = static_engine.with_config(r_pair=60).top_k(5)
        assert served.items == direct.items
        handle.close()

    def test_overrides_sticky_across_swap(self, serve_graph, serve_simrank_config):
        from repro.core.engine import SimRankEngine

        first = SimRankEngine(serve_graph, serve_simrank_config, seed=4).preprocess()
        second = SimRankEngine(serve_graph, serve_simrank_config, seed=4).preprocess()
        handle = EngineHandle(first, cache_capacity=None)
        handle.apply_engine_overrides(r_pair=60, screen_slack=0.5)
        snapshot = handle.swap(second)
        assert snapshot.epoch == 1
        assert snapshot.engine.config.r_pair == 60
        assert snapshot.engine.config.screen_slack == 0.5
        handle.close()

    def test_invalid_override_leaves_state_untouched(self, static_engine):
        handle = EngineHandle(static_engine, cache_capacity=None)
        with pytest.raises(ValueError):
            handle.apply_engine_overrides(T=5)
        assert handle.engine_overrides() == {}
        handle.close()


class TestBatcherLiveKnobs:
    def test_batch_params_without_tunables_uses_statics(self, static_engine):
        from concurrent.futures import ThreadPoolExecutor

        from repro.serve import AdmissionQueue, MicroBatcher

        handle = EngineHandle(static_engine, cache_capacity=None)
        with ThreadPoolExecutor(max_workers=1) as executor:
            batcher = MicroBatcher(
                handle, AdmissionQueue(capacity=4), executor,
                max_batch=7, window=0.004,
            )
            assert batcher.batch_params() == (7, 0.004)
        handle.close()

    def test_batch_params_pull_from_tunables(self, static_engine):
        from concurrent.futures import ThreadPoolExecutor

        from repro.serve import AdmissionQueue, MicroBatcher

        handle = EngineHandle(static_engine, cache_capacity=None)
        tunables = TunableSet({"max_batch": 16, "batch_window": 0.002})
        with ThreadPoolExecutor(max_workers=1) as executor:
            batcher = MicroBatcher(
                handle, AdmissionQueue(capacity=4), executor,
                max_batch=16, window=0.002, tunables=tunables,
            )
            assert batcher.batch_params() == (16, 0.002)
            tunables.apply("max_batch", 32)
            tunables.apply("batch_window", 0.001)
            assert batcher.batch_params() == (32, 0.001)
        handle.close()
