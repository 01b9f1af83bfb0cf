"""The worker's op dispatch fails loudly at runtime for unknown ops.

Counterpart of the static R11 fixture in
``tests/analysis/test_flow_protocol.py``: the same seeded ``reload`` op
that R11 flags as "no handler arm" must also produce an explicit error
reply — never silence — when sent to a real worker loop.
"""

from __future__ import annotations

import threading
from multiprocessing import Pipe

from repro.shard.worker import worker_main


def _worker_thread(conn):
    thread = threading.Thread(target=worker_main, args=(conn, 0), daemon=True)
    thread.start()
    return thread


def test_unknown_op_gets_error_reply_not_silence():
    parent, child = Pipe()
    thread = _worker_thread(child)
    try:
        parent.send({"id": 1, "op": "reload"})
        reply = parent.recv()
        assert reply["id"] == 1
        assert reply["ok"] is False
        assert "unknown op" in reply["error"]
        assert "reload" in reply["error"]
    finally:
        parent.send({"id": 2, "op": "stop"})
        assert parent.recv()["ok"] is True
        thread.join(timeout=5)
        assert not thread.is_alive()


def test_missing_required_field_gets_error_reply():
    parent, child = Pipe()
    thread = _worker_thread(child)
    try:
        # "top_k" without "epoch": the handler reads msg["epoch"]
        # unconditionally (what R11 calls a required field).
        parent.send({"id": 1, "op": "top_k", "u": 0})
        reply = parent.recv()
        assert reply["ok"] is False
        assert "epoch" in reply["error"]
    finally:
        parent.send({"id": 2, "op": "stop"})
        assert parent.recv()["ok"] is True
        thread.join(timeout=5)


def test_message_without_op_is_an_error_not_a_hang():
    parent, child = Pipe()
    thread = _worker_thread(child)
    try:
        parent.send({"id": 7})
        reply = parent.recv()
        assert reply["ok"] is False
        assert "unknown op" in reply["error"]
    finally:
        parent.send({"id": 8, "op": "stop"})
        assert parent.recv()["ok"] is True
        thread.join(timeout=5)
