"""R9 event-loop hygiene and R10 resource lifecycle: fixtures TP + FP."""

from __future__ import annotations


def rules_of(findings):
    return [f.rule for f in findings]


# ----------------------------------------------------------------------
# R9 — event-loop hygiene
# ----------------------------------------------------------------------

BLOCKING_IN_CORO = """
    import time


    async def handle(request):
        time.sleep(0.1)
        return request
"""


def test_r9_blocking_sink_in_coroutine(lint_tree):
    findings = lint_tree({"serve/api.py": BLOCKING_IN_CORO}, only=["R9"])
    assert rules_of(findings) == ["R9"]
    assert "time.sleep()" in findings[0].message
    assert "async def handle" in findings[0].message
    assert "run_in_executor" in findings[0].message


def test_r9_transitive_through_sync_helper(lint_tree):
    fixture = """
        import time


        def drain_queue():
            time.sleep(1.0)


        async def shutdown():
            drain_queue()
    """
    findings = lint_tree({"serve/api.py": fixture}, only=["R9"])
    assert rules_of(findings) == ["R9"]
    assert "calls `drain_queue`" in findings[0].message
    assert "time.sleep()" in findings[0].message


def test_r9_await_under_sync_lock(lint_tree):
    fixture = """
        import asyncio
        import threading


        class Server:
            def __init__(self):
                self._lock = threading.Lock()

            async def update(self):
                with self._lock:
                    await asyncio.sleep(0)
    """
    findings = lint_tree({"serve/server.py": fixture}, only=["R9"])
    assert rules_of(findings) == ["R9"]
    assert "Server._lock" in findings[0].message
    assert "awaits while holding sync lock" in findings[0].message


def test_r9_asyncio_lock_is_exempt(lint_tree):
    fixture = """
        import asyncio


        class Server:
            def __init__(self):
                self._lock = asyncio.Lock()

            async def update(self):
                with self._lock:
                    await asyncio.sleep(0)
    """
    assert lint_tree({"serve/server.py": fixture}, only=["R9"]) == []


def test_r9_executor_payload_not_flagged(lint_tree):
    # The nested def is an executor payload: it does not run on the
    # loop at this program point, and passing the reference creates no
    # call edge.
    fixture = """
        import time


        async def flush(loop, executor):
            def work():
                time.sleep(0.5)
            await loop.run_in_executor(executor, work)
    """
    assert lint_tree({"serve/api.py": fixture}, only=["R9"]) == []


def test_r9_string_join_not_flagged(lint_tree):
    fixture = """
        async def fmt(parts):
            return ", ".join(parts)
    """
    assert lint_tree({"serve/api.py": fixture}, only=["R9"]) == []


def test_r9_respects_noqa(lint_tree):
    fixture = """
        import time


        async def handle(request):
            time.sleep(0.1)  # repro: noqa R9 -- test fixture: intentional block
            return request
    """
    assert lint_tree({"serve/api.py": fixture}, only=["R9"]) == []


# ----------------------------------------------------------------------
# R10 — resource lifecycle
# ----------------------------------------------------------------------


def test_r10_conditional_close_leaks(lint_tree):
    fixture = """
        from multiprocessing.shared_memory import SharedMemory


        def make_segment(flag):
            shm = SharedMemory(create=True, size=64)
            if flag:
                shm.close()
            return None
    """
    findings = lint_tree({"shard/cache.py": fixture}, only=["R10"])
    assert rules_of(findings) == ["R10"]
    assert "shared-memory segment `shm`" in findings[0].message
    assert "make_segment" in findings[0].message


def test_r10_return_transfers_ownership(lint_tree):
    fixture = """
        from multiprocessing.shared_memory import SharedMemory


        def open_segment():
            shm = SharedMemory(create=True, size=64)
            return shm
    """
    assert lint_tree({"shard/cache.py": fixture}, only=["R10"]) == []


def test_r10_owned_parameter_must_release(lint_tree):
    fixture = """
        def consume(conn, bundle):  # owns: bundle
            conn.send(1)
    """
    findings = lint_tree({"shard/cache.py": fixture}, only=["R10"])
    assert rules_of(findings) == ["R10"]
    assert "owned parameter `bundle`" in findings[0].message


def test_r10_owned_parameter_released_is_clean(lint_tree):
    fixture = """
        def consume(conn, bundle):  # owns: bundle
            conn.send(1)
            bundle.close()
    """
    assert lint_tree({"shard/cache.py": fixture}, only=["R10"]) == []


def test_r10_escape_to_store_is_transfer(lint_tree):
    fixture = """
        from concurrent.futures import ThreadPoolExecutor


        class Pool:
            def start(self):
                pool = ThreadPoolExecutor(max_workers=2)
                self._pool = pool
    """
    assert lint_tree({"shard/pool2.py": fixture}, only=["R10"]) == []


def test_r10_bundle_export_tracked(lint_tree):
    fixture = """
        from repro.shard.memory import SharedArrayBundle


        def publish(arrays, flag):
            bundle = SharedArrayBundle.export(arrays)
            if flag:
                return bundle
    """
    findings = lint_tree({"shard/codec2.py": fixture}, only=["R10"])
    assert rules_of(findings) == ["R10"]
    assert "shared-array bundle `bundle`" in findings[0].message


def test_r10_respects_noqa(lint_tree):
    fixture = """
        from multiprocessing.shared_memory import SharedMemory


        def park():
            shm = SharedMemory(create=True, size=64)  # repro: noqa R10 -- fixture: parked on purpose
            return None
    """
    assert lint_tree({"shard/cache.py": fixture}, only=["R10"]) == []
