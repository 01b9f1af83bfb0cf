"""The interprocedural flow rules: R6 lock-order, R7 RNG purity, R8 escape."""

from __future__ import annotations


def rules_of(findings):
    return [f.rule for f in findings]


# ----------------------------------------------------------------------
# R6 — lock-order consistency
# ----------------------------------------------------------------------

INVERTED_LOCKS = """
    import threading


    class Worker:
        def __init__(self):
            self._lock_a = threading.Lock()
            self._lock_b = threading.Lock()

        def forward(self):
            with self._lock_a:
                with self._lock_b:
                    return 1

        def backward(self):
            with self._lock_b:
                with self._lock_a:
                    return 2
"""


def test_r6_two_lock_inversion(lint_tree):
    findings = lint_tree({"serve/worker.py": INVERTED_LOCKS}, only=["R6"])
    assert rules_of(findings) == ["R6"]
    assert "lock-order cycle" in findings[0].message
    assert "Worker._lock_a" in findings[0].message
    assert "Worker._lock_b" in findings[0].message


def test_r6_consistent_order_is_clean(lint_tree):
    consistent = """
        import threading


        class Worker:
            def __init__(self):
                self._lock_a = threading.Lock()
                self._lock_b = threading.Lock()

            def forward(self):
                with self._lock_a:
                    with self._lock_b:
                        return 1

            def also_forward(self):
                with self._lock_a:
                    with self._lock_b:
                        return 2
    """
    assert lint_tree({"serve/worker.py": consistent}, only=["R6"]) == []


def test_r6_three_lock_cycle(lint_tree):
    cycle = """
        import threading


        class Trio:
            def __init__(self):
                self._a = threading.Lock()
                self._b = threading.Lock()
                self._c = threading.Lock()

            def ab(self):
                with self._a:
                    with self._b:
                        pass

            def bc(self):
                with self._b:
                    with self._c:
                        pass

            def ca(self):
                with self._c:
                    with self._a:
                        pass
    """
    findings = lint_tree({"serve/trio.py": cycle}, only=["R6"])
    assert rules_of(findings) == ["R6"]
    message = findings[0].message
    for lock in ("Trio._a", "Trio._b", "Trio._c"):
        assert lock in message


def test_r6_transitive_through_call(lint_tree):
    # forward() never names _lock_b, but the helper it calls takes it.
    transitive = """
        import threading


        class Worker:
            def __init__(self):
                self._lock_a = threading.Lock()
                self._lock_b = threading.Lock()

            def _inner(self):
                with self._lock_b:
                    return 1

        def forward(w: Worker):
            with w._lock_a:
                return w._inner()

        def backward(w: Worker):
            with w._lock_b:
                with w._lock_a:
                    return 2
    """
    findings = lint_tree({"serve/worker.py": transitive}, only=["R6"])
    assert rules_of(findings) == ["R6"]


def test_r6_reentrant_same_lock_no_false_positive(lint_tree):
    reentrant = """
        import threading


        class Worker:
            def __init__(self):
                self._state_lock = threading.RLock()

            def outer(self):
                with self._state_lock:
                    return self.inner()

            def inner(self):
                with self._state_lock:
                    return 1
    """
    assert lint_tree({"serve/worker.py": reentrant}, only=["R6"]) == []


def test_r6_recognises_make_lock_factories(lint_tree):
    factories = """
        from repro.utils.sync import make_lock


        class Handle:
            def __init__(self):
                self._swap = make_lock("Handle._swap")
                self._stats = make_lock("Handle._stats")

            def publish(self):
                with self._swap:
                    with self._stats:
                        return 1

        def report(h: Handle):
            with h._stats:
                with h._swap:
                    return 2
    """
    findings = lint_tree({"serve/handle.py": factories}, only=["R6"])
    assert rules_of(findings) == ["R6"]


# ----------------------------------------------------------------------
# R7 — RNG-stream purity
# ----------------------------------------------------------------------


def test_r7_generator_into_submit(lint_tree):
    leak = """
        from concurrent.futures import ProcessPoolExecutor

        from repro.utils.rng import ensure_rng


        def dispatch(tasks, seed):
            rng = ensure_rng(seed)
            with ProcessPoolExecutor() as pool:
                return [pool.submit(score, t, rng) for t in tasks]
    """
    findings = lint_tree({"core/par.py": leak}, only=["R7"])
    assert rules_of(findings) == ["R7"]
    assert "derive_seed" in findings[0].message


def test_r7_derived_seed_is_clean(lint_tree):
    clean = """
        from concurrent.futures import ProcessPoolExecutor

        from repro.utils.rng import derive_seed, ensure_rng


        def dispatch(tasks, seed):
            child = derive_seed(ensure_rng(seed))
            with ProcessPoolExecutor() as pool:
                return [pool.submit(score, t, child) for t in tasks]
    """
    assert lint_tree({"core/par.py": clean}, only=["R7"]) == []


def test_r7_seedlike_param_is_not_a_source(lint_tree):
    # The shipped top_k_all_parallel pattern: SeedLike in, canonical int out.
    pattern = """
        from concurrent.futures import ProcessPoolExecutor

        from repro.utils.rng import SeedLike, derive_seed


        def run(seed: SeedLike):
            base = seed if seed is None or isinstance(seed, int) else derive_seed(seed)
            with ProcessPoolExecutor(initargs=(base,)) as pool:
                return list(pool.map(work, range(4)))
    """
    assert lint_tree({"core/par.py": pattern}, only=["R7"]) == []


def test_r7_thread_constructor_args(lint_tree):
    leak = """
        import threading

        import numpy as np


        def spawn(seed):
            rng = np.random.default_rng(seed)
            t = threading.Thread(target=work, args=(rng,))
            t.start()
    """
    findings = lint_tree({"core/spawn.py": leak}, only=["R7"])
    assert rules_of(findings) == ["R7"]


def test_r7_interprocedural_param_reaches_sink(lint_tree):
    # The generator goes through an innocent-looking helper first.
    indirect = """
        from concurrent.futures import ProcessPoolExecutor

        from repro.utils.rng import ensure_rng


        def fan_out(pool, work, stream):
            return pool.submit(work, stream)


        def run(seed):
            rng = ensure_rng(seed)
            with ProcessPoolExecutor() as pool:
                return fan_out(pool, job, rng)
    """
    findings = lint_tree({"core/par.py": indirect}, only=["R7"])
    # The finding lands at run()'s call into fan_out — the only place a
    # generator actually exists — and names the sink-reaching parameter.
    assert rules_of(findings) == ["R7"]
    assert "stream" in findings[0].message
    assert "fan_out" in findings[0].message


def test_r7_generator_annotated_param(lint_tree):
    annotated = """
        import numpy as np


        def launch(pool, rng: np.random.Generator):
            return pool.submit(job, rng)
    """
    findings = lint_tree({"core/par.py": annotated}, only=["R7"])
    assert rules_of(findings) == ["R7"]


# ----------------------------------------------------------------------
# R8 — snapshot escape analysis
# ----------------------------------------------------------------------

ESCAPING_SNAPSHOT = """
    def patch_rows(index, rows):
        for u, s in rows:
            index.signatures[u] = s


    def bad_update(handle, rows):
        snapshot = handle.current()
        patch_rows(snapshot.engine.index, rows)


    def good_update(handle, rows):
        snapshot = handle.current()
        patched = snapshot.engine.index.clone()
        patch_rows(patched, rows)
        return patched
"""


def test_r8_snapshot_into_mutating_call(lint_tree):
    findings = lint_tree({"serve/updates.py": ESCAPING_SNAPSHOT}, only=["R8"])
    assert rules_of(findings) == ["R8"]
    assert findings[0].message.count("patch_rows") == 1
    assert "clone" in findings[0].message
    # The finding is at bad_update's call, not in good_update.
    assert findings[0].line < ESCAPING_SNAPSHOT.count("\n")


def test_r8_mutating_method_on_tainted_receiver(lint_tree):
    receiver = """
        class CandidateIndex:
            def __init__(self):
                self.signatures = []

            def replace_signature(self, u, signature):
                self.signatures[u] = signature


        def bad(handle, u, signature):
            index = handle.current().engine.index
            index.replace_signature(u, signature)
    """
    findings = lint_tree({"serve/recv.py": receiver}, only=["R8"])
    assert rules_of(findings) == ["R8"]
    assert "mutates its receiver" in findings[0].message


def test_r8_annotated_param_escape(lint_tree):
    annotated = """
        def scrub(index, rows):
            for u in rows:
                index.signatures[u] = None


        def cleanup(index: "CandidateIndex", rows):
            scrub(index, rows)
    """
    findings = lint_tree({"serve/cleanup.py": annotated}, only=["R8"])
    assert rules_of(findings) == ["R8"]


def test_r8_global_store(lint_tree):
    pinned = """
        _CACHED = None


        def pin(handle):
            global _CACHED
            _CACHED = handle.current()
    """
    findings = lint_tree({"serve/pin.py": pinned}, only=["R8"])
    assert rules_of(findings) == ["R8"]
    assert "global" in findings[0].message


def test_r8_clone_path_is_clean(lint_tree):
    blessed = """
        def patch_rows(index, rows):
            for u, s in rows:
                index.signatures[u] = s


        def update(handle, rows):
            patched = handle.current().engine.index.clone()
            patch_rows(patched, rows)
            return patched
    """
    assert lint_tree({"serve/updates.py": blessed}, only=["R8"]) == []


def test_r8_attached_bundle_is_a_source(lint_tree):
    # The shard-boundary extension: a shared-memory attach maps another
    # process's epoch, so mutating what it returns is an escape too.
    shard = """
        def scrub(bundle):
            bundle.arrays.clear()


        def worker_load(manifest):
            bundle = SharedArrayBundle.attach(manifest)
            scrub(bundle)
    """
    findings = lint_tree({"shard/worker.py": shard}, only=["R8"])
    assert rules_of(findings) == ["R8"]
    assert "scrub" in findings[0].message


def test_r8_shared_bundle_annotation_taints_param(lint_tree):
    annotated = """
        def drop_views(arrays):
            arrays.clear()


        def release(bundle: "SharedArrayBundle"):
            drop_views(bundle.arrays)
    """
    findings = lint_tree({"shard/pool.py": annotated}, only=["R8"])
    assert rules_of(findings) == ["R8"]


def test_r8_readonly_attach_use_is_clean(lint_tree):
    clean = """
        def worker_load(manifest):
            bundle = SharedArrayBundle.attach(manifest)
            total = sum(a.nbytes for a in bundle.arrays.values())
            return bundle, total
    """
    assert lint_tree({"shard/worker.py": clean}, only=["R8"]) == []


# ----------------------------------------------------------------------
# Integration: flow rules run in default runs, respect waivers
# ----------------------------------------------------------------------


def test_flow_rules_run_by_default(lint_tree):
    findings = lint_tree({"serve/worker.py": INVERTED_LOCKS})
    assert "R6" in rules_of(findings)


def test_flow_findings_respect_noqa(lint_tree):
    # The cycle finding anchors at its first witness edge — forward()'s
    # inner acquisition — so that is the line the waiver must cover.
    waived = INVERTED_LOCKS.replace(
        "with self._lock_a:\n                with self._lock_b:",
        "with self._lock_a:\n                with self._lock_b:"
        "  # repro: noqa R6 -- fixture documents the inversion",
        1,
    )
    findings = lint_tree({"serve/worker.py": waived}, only=["R6"])
    assert findings == []
