"""Shard worker: whole top-k queries on a resident epoch, and the loop.

**Why a routed answer is bit-identical.**  The coordinator sends each
query whole to one worker, which answers it with the single-process
path, :meth:`SimRankEngine.top_k`, on the engine it rebuilt from the
epoch's arrays (:mod:`repro.shard.codec`).  That engine carries the
same integer seed, and ``top_k`` derives the query's streams from
``(seed, u)`` alone, so every worker computes the bits the local engine
would.  The pool's live config overrides ride in each message and are
applied through :meth:`SimRankEngine.with_config`, a view, never a
mutation of the resident engine.

The worker process itself is a small message loop over a duplex pipe:
``load_epoch`` attaches a :class:`SharedArrayBundle` and rebuilds the
engine zero-copy, ``patch`` rolls a resident epoch forward by applying
a row-level delta segment (edited edges + affected signature/γ rows —
O(Δ) transport instead of a full re-export; the patched arrays are
fresh process-local copies, so the delta segment closes immediately
and the base epoch can still be released), ``release_epoch`` drops an
epoch (the sanitizer screams if any view survives), ``top_k``/``pair``
answer, ``health`` reports loaded epochs, ``stop`` exits.  It keeps at
most the two newest epochs, so a swap never races an in-flight query.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

from repro.core.engine import SimRankEngine
from repro.core.montecarlo import single_pair_simrank
from repro.errors import VertexError
from repro.utils.rng import derive_seed


__all__ = ["shard_pair", "worker_main"]


def _with_overrides(
    engine: SimRankEngine, overrides: Optional[Dict[str, Any]]
) -> SimRankEngine:
    """The resident engine under the coordinator's query-time overrides."""
    return engine.with_config(**overrides) if overrides else engine


def shard_pair(engine: SimRankEngine, u: int, v: int) -> float:
    """Worker-side single-pair score — the engine's exact derivation."""
    if int(u) == int(v):
        if not 0 <= int(u) < engine.graph.n:
            raise VertexError(int(u), engine.graph.n)
        return 1.0
    return single_pair_simrank(
        engine.graph,
        u,
        v,
        config=engine.config,
        seed=derive_seed(engine.seed, 13, u, v),
        diagonal=engine.diagonal,
    )


# ----------------------------------------------------------------------
# Worker process main loop
# ----------------------------------------------------------------------


def worker_main(conn: Any, shard_id: int) -> None:
    """Entry point of a spawned shard worker.

    Messages are dicts with an ``id``, an ``op``, and op-specific
    fields; every message gets exactly one reply
    ``{"id", "ok", "result" | "error"}``.  The parent detects death via
    the pipe (EOF), so this loop never swallows a crash silently.
    """
    from repro.shard.codec import engine_from_arrays, patch_engine_arrays
    from repro.shard.memory import SharedArrayBundle

    # epoch -> (bundle | None, engine); patched epochs own no segment
    # (their arrays are process-local), so bundle is None.
    epochs: Dict[int, Any] = {}

    def reply(msg_id: int, result: Any) -> None:
        conn.send({"id": msg_id, "ok": True, "result": result})

    def reply_error(msg_id: int, exc: BaseException) -> None:
        conn.send(
            {"id": msg_id, "ok": False,
             "error": f"{type(exc).__name__}: {exc}"}
        )

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break  # parent died or closed the pipe; nothing left to serve
        msg_id = msg.get("id", -1)
        op = msg.get("op")
        try:
            if op == "stop":
                reply(msg_id, None)
                break
            elif op == "load_epoch":
                bundle = SharedArrayBundle.attach(msg["manifest"])
                engine = engine_from_arrays(bundle.arrays, msg["meta"])
                epochs[msg["epoch"]] = (bundle, engine)
                reply(msg_id, None)
            elif op == "patch":
                _, base_engine = epochs[msg["base_epoch"]]
                delta = SharedArrayBundle.attach(msg["manifest"])
                try:
                    arrays = patch_engine_arrays(
                        base_engine, delta.arrays, msg["meta"]
                    )
                finally:
                    # The patched arrays are fresh copies; close() would
                    # scream (refcount escape) if any view leaked out.
                    del base_engine
                    delta.close()
                engine = engine_from_arrays(arrays, msg["meta"])
                epochs[msg["epoch"]] = (None, engine)
                reply(msg_id, None)
            elif op == "release_epoch":
                state = epochs.pop(msg["epoch"], None)
                if state is not None:
                    bundle, engine = state
                    del state, engine  # drop views before close
                    if bundle is not None:  # patched epochs own no segment
                        bundle.close()
                reply(msg_id, None)
            elif op == "top_k":
                bundle, engine = epochs[msg["epoch"]]
                engine = _with_overrides(engine, msg.get("overrides"))
                # CPU time, not wall clock: a worker on an oversubscribed
                # host spends much of a request descheduled.
                start = time.process_time()
                result = engine.top_k(
                    msg["u"],
                    msg["k"],
                    use_l1=msg["use_l1"],
                    use_l2=msg["use_l2"],
                    adaptive=msg["adaptive"],
                    extra_candidates=msg["extra_candidates"],
                )
                reply(
                    msg_id,
                    {"result": result, "busy_seconds": time.process_time() - start},
                )
            elif op == "pair":
                bundle, engine = epochs[msg["epoch"]]
                engine = _with_overrides(engine, msg.get("overrides"))
                reply(msg_id, shard_pair(engine, msg["u"], msg["v"]))
            elif op == "health":
                reply(
                    msg_id,
                    {"shard_id": shard_id, "epochs": sorted(epochs)},
                )
            elif op == "crash":  # repro: noqa R11 -- test-only hook: crash-isolation tests send it raw; no production sender exists by design
                conn.close()
                return
            else:
                reply_error(msg_id, ValueError(f"unknown op {op!r}"))
        except KeyError as exc:
            reply_error(
                msg_id, RuntimeError(f"epoch or field not loaded: {exc}")
            )
        except Exception as exc:  # noqa: BLE001 - forwarded to the parent
            reply_error(msg_id, exc)
    conn.close()
