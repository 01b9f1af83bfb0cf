"""Runtime sanitizer: lock-order DAG, RNG shadow accounting, dual detection."""

from __future__ import annotations

import textwrap
import threading

import numpy as np
import pytest

from repro.analysis import run_lint
from repro.analysis.sanitizer import (
    MONITOR,
    SHADOW_REGISTRY,
    SanitizerError,
    disable,
    enable,
    reset,
    shadow_rng,
)
from repro.analysis.sanitizer.locks import (
    LockOrderMonitor,
    SanitizedLock,
    SanitizedRLock,
)


@pytest.fixture
def sanitized():
    """Enable the global sanitizer for one test, clean up afterwards."""
    enable()
    reset()
    try:
        yield
    finally:
        disable()
        reset()


# ----------------------------------------------------------------------
# Lock-order DAG (private monitors: independent of the global switch)
# ----------------------------------------------------------------------


def test_two_lock_inversion_raises():
    monitor = LockOrderMonitor()
    lock_a = SanitizedLock("A", monitor)
    lock_b = SanitizedLock("B", monitor)
    with lock_a:
        with lock_b:
            pass
    with lock_b:
        with pytest.raises(SanitizerError) as err:
            lock_a.acquire()
    message = str(err.value)
    assert "lock-order inversion" in message
    assert "`A`" in message and "`B`" in message
    assert "first acquisition stack" in message
    assert "conflicting acquisition stack" in message


def test_three_lock_cycle_detected_transitively():
    monitor = LockOrderMonitor()
    lock_a = SanitizedLock("A", monitor)
    lock_b = SanitizedLock("B", monitor)
    lock_c = SanitizedLock("C", monitor)
    with lock_a:
        with lock_b:
            pass
    with lock_b:
        with lock_c:
            pass
    # No direct A<->C order was ever recorded; only transitivity
    # (A -> B -> C) makes C-then-A an inversion.
    with lock_c:
        with pytest.raises(SanitizerError):
            lock_a.acquire()


def test_consistent_order_records_edges_quietly():
    monitor = LockOrderMonitor()
    lock_a = SanitizedLock("A", monitor)
    lock_b = SanitizedLock("B", monitor)
    for _ in range(3):
        with lock_a:
            with lock_b:
                pass
    assert ("A", "B") in monitor.edges()
    assert ("B", "A") not in monitor.edges()


def test_reentrant_rlock_no_false_positive():
    monitor = LockOrderMonitor()
    rlock = SanitizedRLock("R", monitor)
    with rlock:
        with rlock:  # same-thread re-acquisition: legal, no edge
            pass
    assert monitor.edges() == []


def test_non_reentrant_self_deadlock_raises():
    monitor = LockOrderMonitor()
    lock = SanitizedLock("L", monitor)
    with lock:
        with pytest.raises(SanitizerError) as err:
            lock.acquire()
    assert "self-deadlock" in str(err.value)


def test_inversion_across_threads_raises_instead_of_deadlocking():
    """The seeded ABBA schedule: T1 records A->B, T2 then tries B->A.

    The check fires at acquisition-*attempt* time, so the provoked
    inversion raises deterministically rather than hanging the suite.
    """
    monitor = LockOrderMonitor()
    lock_a = SanitizedLock("EngineHandle._lock", monitor)
    lock_b = SanitizedLock("DynamicSimRankEngine._state_lock", monitor)
    t1_done = threading.Event()
    failures = []

    def t1():
        with lock_a:
            with lock_b:
                pass
        t1_done.set()

    def t2():
        t1_done.wait(timeout=10)
        try:
            with lock_b:
                with lock_a:
                    pass
        except SanitizerError as exc:
            failures.append(exc)

    threads = [threading.Thread(target=t1), threading.Thread(target=t2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert len(failures) == 1
    message = str(failures[0])
    assert "EngineHandle._lock" in message
    assert "DynamicSimRankEngine._state_lock" in message
    # Both witness stacks are named so the report points at both sides.
    assert "first acquisition stack" in message
    assert "conflicting acquisition stack" in message


# ----------------------------------------------------------------------
# RNG shadows
# ----------------------------------------------------------------------


def test_shadow_generator_same_stream():
    shadow = shadow_rng(12345)
    plain = np.random.default_rng(12345)
    assert isinstance(shadow, np.random.Generator)
    np.testing.assert_array_equal(shadow.random(8), plain.random(8))
    np.testing.assert_array_equal(
        shadow.integers(0, 100, size=5), plain.integers(0, 100, size=5)
    )


def test_cross_thread_draw_raises(sanitized):
    gen = shadow_rng(7)
    gen.random(3)
    failures = []

    def worker():
        try:
            gen.random(3)
        except SanitizerError as exc:
            failures.append(exc)

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=10)
    assert len(failures) == 1
    assert "shared across threads" in str(failures[0])


def test_strict_replay_flags_divergent_consumption(sanitized):
    from repro.utils.rng import derive_seed

    child = derive_seed(99, 3, 10)  # noted as derived while sanitizing
    with SHADOW_REGISTRY.strict_replay():
        first = shadow_rng(child)
        first.random(5)
        replay = shadow_rng(child)
        with pytest.raises(SanitizerError) as err:
            replay.random(7)
    assert "consumed divergently" in str(err.value)


def test_replay_outside_strict_scope_is_legal(sanitized):
    # A full rebuild replays derived seeds against a changed graph, so
    # differing draw shapes are legal outside strict_replay().
    from repro.utils.rng import derive_seed

    child = derive_seed(99, 4, 10)
    shadow_rng(child).random(5)
    shadow_rng(child).random(7)  # no error
    assert SHADOW_REGISTRY.consumption(child) == 12


def test_estimate_batch_keyed_blocks_match_oracle(sanitized, monkeypatch):
    """Every uniform the fused kernel draws is the oracle's keyed block
    entry at the same (key, step, lane), and the two agree on the scores."""
    import repro.core.walks as walks
    import tests.kernel_oracle as oracle
    from repro.core.config import SimRankConfig
    from repro.core.montecarlo import SingleSourceEstimator
    from repro.graph.generators import cycle_graph
    from repro.utils.rng import cursor_uniforms, keyed_uniforms, stream_keys

    graph = cycle_graph(8)
    candidates = [1, 2, 5]
    seed, samples = 99, 12
    config = SimRankConfig(T=4, r_pair=samples)

    drawn = []  # (cursor, value) of every fused draw

    def record_draws(cursors):
        values = cursor_uniforms(cursors)
        drawn.extend(zip(cursors.tolist(), values.tolist()))
        return values

    blocks = {}

    def record_blocks(seed_, salt, keys, rows, width):
        values = keyed_uniforms(seed_, salt, keys, rows, width)
        for b, key in enumerate(np.asarray(keys).tolist()):
            blocks[(seed_, salt, key)] = values[:, b * width : (b + 1) * width]
        return values

    with monkeypatch.context() as patch:
        patch.setattr(walks, "cursor_uniforms", record_draws)
        array_scores = SingleSourceEstimator(graph, 0, config, seed=seed).estimate_batch(
            candidates
        )
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "keyed_uniforms", record_blocks)
        reference = oracle.reference_scores(graph, 0, config, seed)(candidates, samples)

    assert set(blocks) == {(seed, samples, v) for v in candidates}
    key_of = dict(zip(stream_keys(seed, samples, candidates).tolist(), candidates))
    # A draw at cursor ``stream + (counter+1)·G`` (mod 2^64) is value
    # ``counter`` of that stream; G is odd, so the counter is recoverable.
    golden, mask = 0x9E3779B97F4A7C15, (1 << 64) - 1
    inverse = pow(golden, -1, 1 << 64)
    span = (config.T - 1) * samples

    def stream_and_counter(cursor):
        found = [
            (stream, ((cursor - stream) * inverse - 1) & mask) for stream in key_of
        ]
        (match,) = [(stream, counter) for stream, counter in found if counter < span]
        return match

    # Every walk on the cycle stays alive, so each key draws its whole block.
    assert len(drawn) == len(candidates) * span
    for cursor, value in drawn:
        stream, counter = stream_and_counter(cursor)
        step, lane = divmod(counter, samples)
        block = blocks[(seed, samples, key_of[stream])]
        assert block.shape == (config.T - 1, samples)
        assert value == block[step, lane]
    np.testing.assert_allclose(array_scores, reference, rtol=1e-12)


# ----------------------------------------------------------------------
# Dual detection: one seeded inversion fixture, caught both ways
# ----------------------------------------------------------------------

INVERSION_FIXTURE = """
    from repro.utils.sync import make_lock


    class Inverted:
        def __init__(self):
            self._lock_a = make_lock("Inverted._lock_a")
            self._lock_b = make_lock("Inverted._lock_b")

        def forward(self):
            with self._lock_a:
                with self._lock_b:
                    return 1

        def backward(self):
            with self._lock_b:
                with self._lock_a:
                    return 2
"""


def test_inversion_fixture_detected_statically(tmp_path):
    path = tmp_path / "serve" / "inverted.py"
    path.parent.mkdir(parents=True)
    path.write_text(textwrap.dedent(INVERSION_FIXTURE), encoding="utf-8")
    findings = run_lint([tmp_path], root=tmp_path, only=["R6"])
    assert [f.rule for f in findings] == ["R6"]
    assert "lock-order cycle" in findings[0].message


def test_inversion_fixture_detected_at_runtime(sanitized):
    namespace: dict = {}
    exec(textwrap.dedent(INVERSION_FIXTURE), namespace)  # noqa: S102 - test fixture
    inverted = namespace["Inverted"]()
    assert inverted.forward() == 1
    with pytest.raises(SanitizerError) as err:
        inverted.backward()
    message = str(err.value)
    assert "Inverted._lock_a" in message
    assert "Inverted._lock_b" in message
    assert "first acquisition stack" in message
    assert "conflicting acquisition stack" in message


def test_make_lock_returns_plain_lock_when_disabled():
    from repro.utils.sync import make_lock, sanitizer_active

    assert not sanitizer_active()
    lock = make_lock("plain")
    assert not isinstance(lock, SanitizedLock)
    with lock:
        pass


def test_global_monitor_reset_between_uses(sanitized):
    lock_a = SanitizedLock("A")
    lock_b = SanitizedLock("B")
    with lock_a:
        with lock_b:
            pass
    assert ("A", "B") in MONITOR.edges()
    reset()
    assert MONITOR.edges() == []
