"""Shard worker: θ-floor scoring of a plan slice, and the process loop.

**Why bit-identity survives sharding.**  The coordinator plans the
query once (:func:`repro.core.query.plan_query`) and sends each worker
the slice of the plan it owns.  An estimate is a function of
``(vertex, R)`` alone — batch estimates walk each candidate v on the
uniform block keyed by ``(batch_seed, R, v)``
(:func:`~repro.utils.rng.keyed_uniforms`) — so the only state that
couples candidates is the k-heap cutoff that decides who gets pruned,
screened, or refined.  Each worker therefore runs the single-process
:func:`~repro.core.query.scan` on its slice with ``k=None``, i.e. at
the **θ-floor**, the loosest cutoff the real scan can ever have (since
``cutoff() = max(θ, kth_best)``).  Because the real cutoff is always
≥ θ and ``screen_slack ≤ 1``, the floor scan asks for a superset of
the estimates the real scan asks for, and the worker returns all of
them: the coordinator's scan (:func:`repro.shard.merge.replay_merge`)
finds every value it needs, with the bits the single process would
have computed.

The worker process itself is a small message loop over a duplex pipe:
``load_epoch`` attaches a :class:`SharedArrayBundle` and rebuilds the
engine zero-copy, ``patch`` rolls a resident epoch forward by applying
a row-level delta segment (edited edges + affected signature/γ rows —
O(Δ) transport instead of a full re-export; the patched arrays are
fresh process-local copies, so the delta segment closes immediately
and the base epoch can still be released), ``release_epoch`` drops an
epoch (the sanitizer screams if any view survives), ``query``/``pair``
score, ``health`` reports loaded epochs, ``stop`` exits.  It keeps at
most the two newest epochs, so a swap never races an in-flight query.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.core.engine import SimRankEngine
from repro.core.montecarlo import single_pair_simrank
from repro.core.query import QueryPlan, estimator_scores, scan
from repro.errors import VertexError
from repro.utils.rng import derive_seed


__all__ = ["score_shard", "shard_pair", "worker_main"]


def score_shard(engine: SimRankEngine, plan: QueryPlan) -> Dict[str, Any]:
    """θ-floor scan of one shard's slice of a query plan.

    Returns every estimate the scan computed as ``{"scores": {R:
    (vertices, values)}, "busy_seconds": ...}``; by the superset
    argument above, the coordinator's scan reads only from these.
    """
    # CPU time, not wall clock: workers on an oversubscribed host spend
    # much of each request descheduled, and busy_seconds must mean "the
    # compute this shard performed" regardless of core count.
    start_time = time.process_time()
    estimate = estimator_scores(engine.graph, plan, engine.diagonal)
    computed: Dict[int, List[Tuple[np.ndarray, np.ndarray]]] = {}

    def record(vertices: np.ndarray, R: int) -> np.ndarray:
        values = estimate(vertices, R)
        computed.setdefault(R, []).append((vertices, values))
        return values

    scan(plan, None, record)
    scores = {
        R: (np.concatenate([v for v, _ in parts]), np.concatenate([s for _, s in parts]))
        for R, parts in computed.items()
    }
    return {"scores": scores, "busy_seconds": time.process_time() - start_time}


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
            elif op == "query":
                # The plan slice carries the query's config, live
                # tunables included.
                bundle, engine = epochs[msg["epoch"]]
                reply(msg_id, score_shard(engine, msg["plan"]))
            elif op == "pair":
                bundle, engine = epochs[msg["epoch"]]
                overrides = msg.get("overrides")
                if overrides:
                    # Query-time config carried by the coordinator (live
                    # tunables); a zero-copy view, never a mutation of
                    # the resident epoch engine.
                    engine = engine.with_config(**overrides)
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
