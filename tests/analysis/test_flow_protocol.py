"""R11 pipe-protocol and R12 metrics-catalog conformance: fixtures TP + FP."""

from __future__ import annotations


def rules_of(findings):
    return [f.rule for f in findings]


# ----------------------------------------------------------------------
# R11 — pipe-protocol conformance
# ----------------------------------------------------------------------

WORKER_DISPATCH = """
    def worker_main(conn, shard_id):
        while True:
            msg = conn.recv()
            op = msg.get("op")
            if op == "stop":
                break
            elif op == "load":
                attach(msg["manifest"], msg["epoch"])
            elif op == "query":
                score(msg["u"], msg.get("k"))
"""


def test_r11_unhandled_op(lint_tree):
    pool = """
        class Pool:
            def stop(self, conn):
                conn.send({"op": "stop"})

            def load(self, conn, manifest):
                conn.send({"op": "load", "manifest": manifest, "epoch": 3})

            def query(self, conn, u):
                conn.send({"op": "query", "u": u, "k": 5})

            def reload(self, conn):
                conn.send({"op": "reload"})
    """
    findings = lint_tree(
        {"shard/worker.py": WORKER_DISPATCH, "shard/pool.py": pool},
        only=["R11"],
    )
    assert rules_of(findings) == ["R11"]
    assert "'reload'" in findings[0].message
    assert "no handler arm" in findings[0].message
    assert findings[0].path.endswith("pool.py")


def test_r11_missing_required_field(lint_tree):
    pool = """
        class Pool:
            def stop(self, conn):
                conn.send({"op": "stop"})

            def load(self, conn):
                conn.send({"op": "load", "epoch": 3})

            def query(self, conn, u):
                conn.send({"op": "query", "u": u, "k": 5})
    """
    findings = lint_tree(
        {"shard/worker.py": WORKER_DISPATCH, "shard/pool.py": pool},
        only=["R11"],
    )
    assert rules_of(findings) == ["R11"]
    assert "lacks required field(s) 'manifest'" in findings[0].message


def test_r11_dead_handler(lint_tree):
    pool = """
        class Pool:
            def stop(self, conn):
                conn.send({"op": "stop"})

            def load(self, conn, manifest):
                conn.send({"op": "load", "manifest": manifest, "epoch": 3})
    """
    findings = lint_tree(
        {"shard/worker.py": WORKER_DISPATCH, "shard/pool.py": pool},
        only=["R11"],
    )
    assert rules_of(findings) == ["R11"]
    assert "handler arm for op 'query' is dead" in findings[0].message
    assert findings[0].path.endswith("worker.py")


def test_r11_dict_augmentation_credits_fields(lint_tree):
    # ``dict(msg, id=...)`` downstream provides "id" to every send in
    # the file, so a handler reading msg["id"] is satisfied.
    worker = """
        def worker_main(conn, shard_id):
            while True:
                msg = conn.recv()
                op = msg.get("op")
                if op == "stop":
                    break
                elif op == "load":
                    attach(msg["manifest"], msg["id"])
    """
    pool = """
        class Pool:
            def request(self, conn, msg, msg_id):
                conn.send(dict(msg, id=msg_id))

            def stop(self, conn):
                self.request(conn, {"op": "stop"}, 0)

            def load(self, conn, manifest):
                self.request(conn, {"op": "load", "manifest": manifest}, 1)
    """
    assert lint_tree(
        {"shard/worker.py": worker, "shard/pool.py": pool},
        only=["R11"],
    ) == []


def test_r11_outside_shard_not_scanned(lint_tree):
    # The serve layer's NDJSON protocol shares the {"op": ...} shape but
    # is out of scope; no worker dispatch exists for it either.
    serve = """
        def reply(op):
            return {"op": "unknown-to-workers"}
    """
    assert lint_tree(
        {"shard/worker.py": WORKER_DISPATCH, "serve/protocol.py": serve,
         "shard/pool.py": """
            class Pool:
                def stop(self, conn):
                    conn.send({"op": "stop"})

                def load(self, conn, manifest):
                    conn.send({"op": "load", "manifest": manifest, "epoch": 1})

                def query(self, conn, u):
                    conn.send({"op": "query", "u": u})
         """},
        only=["R11"],
    ) == []


def test_r11_no_handlers_means_silence(lint_tree):
    # Partial tree: without the worker dispatch, conformance is
    # undecidable — emit nothing rather than flag every send.
    pool = """
        class Pool:
            def anything(self, conn):
                conn.send({"op": "anything"})
    """
    assert lint_tree({"shard/pool.py": pool}, only=["R11"]) == []


def test_r11_dead_test_hook_respects_noqa(lint_tree):
    worker = """
        def worker_main(conn, shard_id):
            while True:
                msg = conn.recv()
                op = msg.get("op")
                if op == "stop":
                    break
                elif op == "crash":  # repro: noqa R11 -- fixture: test-only hook
                    return
    """
    pool = """
        class Pool:
            def stop(self, conn):
                conn.send({"op": "stop"})
    """
    assert lint_tree(
        {"shard/worker.py": worker, "shard/pool.py": pool},
        only=["R11"],
    ) == []


# ----------------------------------------------------------------------
# R12 — metrics-catalog conformance
# ----------------------------------------------------------------------

CATALOG = """
    QUERY_LATENCY = ("query", "latency_seconds")
    QUERY_ERRORS = ("query", "errors_total")

    CATALOG = {
        QUERY_LATENCY: ("histogram", "end-to-end latency"),
        QUERY_ERRORS: ("counter", "failed queries"),
    }
"""

CLEAN_USER = """
    from repro.obs import catalog


    def record(registry):
        registry.histogram(*catalog.QUERY_LATENCY)
        registry.counter("query", "errors_total")
"""


def test_r12_clean_catalog_and_uses(lint_tree):
    assert lint_tree(
        {"obs/catalog.py": CATALOG, "core/metrics_user.py": CLEAN_USER},
        only=["R12"],
    ) == []


def test_r12_unregistered_literal_pair(lint_tree):
    user = CLEAN_USER + """

    def bad(registry):
        registry.counter("query", "bogus_total")
"""
    findings = lint_tree(
        {"obs/catalog.py": CATALOG, "core/metrics_user.py": user},
        only=["R12"],
    )
    assert rules_of(findings) == ["R12"]
    assert "('query', 'bogus_total')" in findings[0].message
    assert "not registered" in findings[0].message


def test_r12_unknown_constant_reference(lint_tree):
    user = CLEAN_USER + """

    def bad(registry):
        registry.counter(*catalog.MISSING)
"""
    findings = lint_tree(
        {"obs/catalog.py": CATALOG, "core/metrics_user.py": user},
        only=["R12"],
    )
    assert rules_of(findings) == ["R12"]
    assert "catalog.MISSING" in findings[0].message


def test_r12_unused_entry(lint_tree):
    user = """
        from repro.obs import catalog


        def record(registry):
            registry.histogram(*catalog.QUERY_LATENCY)
    """
    findings = lint_tree(
        {"obs/catalog.py": CATALOG, "core/metrics_user.py": user},
        only=["R12"],
    )
    assert rules_of(findings) == ["R12"]
    assert "('query', 'errors_total')" in findings[0].message
    assert "never referenced" in findings[0].message
    assert findings[0].path.endswith("catalog.py")


def test_r12_constant_missing_from_catalog(lint_tree):
    catalog = CATALOG + """
    ORPHAN = ("query", "orphan_total")
"""
    findings = lint_tree(
        {"obs/catalog.py": catalog, "core/metrics_user.py": CLEAN_USER},
        only=["R12"],
    )
    assert rules_of(findings) == ["R12"]
    assert "ORPHAN" in findings[0].message
    assert "not registered" in findings[0].message


def test_r12_dotted_key_mismatch(lint_tree):
    user = CLEAN_USER + """

    def read(window):
        return window.delta("query.bogus_total")
"""
    findings = lint_tree(
        {"obs/catalog.py": CATALOG, "core/metrics_user.py": user},
        only=["R12"],
    )
    assert rules_of(findings) == ["R12"]
    assert "query.bogus_total" in findings[0].message


def test_r12_trace_span_names_exempt(lint_tree):
    # Tracer span names share the dotted shape but are a separate
    # namespace.
    user = CLEAN_USER + """

    def traced(obs):
        with obs.trace("query.topk"):
            return 1
"""
    assert lint_tree(
        {"obs/catalog.py": CATALOG, "core/metrics_user.py": user},
        only=["R12"],
    ) == []


def test_r12_dotted_match_counts_as_use(lint_tree):
    user = """
        from repro.obs import catalog


        def read(window):
            window.delta("query.errors_total")
            return window.mean("query.latency_seconds")
    """
    assert lint_tree(
        {"obs/catalog.py": CATALOG, "core/metrics_user.py": user},
        only=["R12"],
    ) == []
