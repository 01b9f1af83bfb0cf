"""Engine ⇄ flat-array codec for the shared-memory transport.

``engine_to_arrays`` flattens a preprocessed :class:`SimRankEngine`
into a named dict of numpy arrays (graph CSR, candidate graph H's CSR,
γ table, diagonal) plus a small picklable meta dict; ``engine_from_arrays``
rebuilds a queryable engine over those arrays **without copying them**
— both graphs alias the views directly.  The meta dict carries the
config as :meth:`SimRankConfig.to_dict`, the same payload
:meth:`CandidateIndex.save` writes.  ``delta_to_arrays`` /
``patch_engine_arrays`` ship one flush's changed rows instead of the
whole engine; the patch goes through :meth:`CandidateIndex.with_rows`,
the same path the in-process flush takes.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import numpy as np

from repro.core.config import SimRankConfig
from repro.core.engine import SimRankEngine
from repro.core.index import CandidateIndex
from repro.errors import GraphFormatError, ShardError, VertexError
from repro.graph.csr import CSRGraph


__all__ = [
    "engine_to_arrays",
    "engine_from_arrays",
    "delta_to_arrays",
    "patch_engine_arrays",
]

_GRAPH_PREFIX = "graph."
_INDEX_PREFIX = "index."
_DELTA_PREFIX = "delta."


def engine_to_arrays(
    engine: SimRankEngine, seed: int
) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Flatten a preprocessed engine into (arrays, meta).

    ``seed`` is the canonical integer base seed workers must derive
    query streams from (the pool fixes it; see
    :meth:`repro.shard.pool.ShardPool.publish`).
    """
    if not engine.is_preprocessed:
        raise ShardError("engine must be preprocessed before sharding")
    arrays: Dict[str, np.ndarray] = {}
    for key, array in engine.graph.to_buffers().items():
        arrays[_GRAPH_PREFIX + key] = array
    for key, array in engine.index.to_buffers().items():
        arrays[_INDEX_PREFIX + key] = array
    arrays["diagonal"] = engine.diagonal
    meta = {
        "n": engine.graph.n,
        "seed": int(seed),
        "config": engine.config.to_dict(),
        "build_seconds": engine.index.build_seconds,
    }
    return arrays, meta


def engine_from_arrays(
    arrays: Dict[str, np.ndarray], meta: Dict[str, Any]
) -> SimRankEngine:
    """Rebuild a queryable engine over existing arrays (zero-copy).

    The result answers ``top_k`` / ``single_pair`` bit-identically to
    the exporting engine (same config, same seed, same index payload);
    only the diagonal vector is copied (``resolve_diagonal`` copies
    defensively — n floats, negligible).
    """
    try:
        n = int(meta["n"])
        seed = meta["seed"]
        config = SimRankConfig(**meta["config"])
        build_seconds = float(meta.get("build_seconds", 0.0))
    except KeyError as exc:
        raise ShardError(f"engine meta is missing field {exc}") from exc
    graph_buffers = {
        key[len(_GRAPH_PREFIX):]: array
        for key, array in arrays.items()
        if key.startswith(_GRAPH_PREFIX)
    }
    index_buffers = {
        key[len(_INDEX_PREFIX):]: array
        for key, array in arrays.items()
        if key.startswith(_INDEX_PREFIX)
    }
    graph = CSRGraph.from_buffers(n, graph_buffers)
    index = CandidateIndex.from_buffers(
        config, n, index_buffers, build_seconds=build_seconds
    )
    engine = SimRankEngine(graph, config, diagonal=arrays["diagonal"], seed=seed)
    engine._index = index
    return engine


# ---------------------------------------------------------------------------
# Delta codec: ship only the patched rows of a flush, not the engine
# ---------------------------------------------------------------------------


def delta_to_arrays(
    engine: SimRankEngine,
    adds: Any,
    removes: Any,
    affected: Any,
    old_n: int,
) -> Dict[str, np.ndarray]:
    """Flatten one flush's delta against ``old_n`` into named arrays.

    ``engine`` is the *patched* engine (the flush's output); ``adds`` /
    ``removes`` / ``affected`` are the edit lists a
    :class:`~repro.core.dynamic.FlushStats` records.  The payload is
    O(Δ + affected rows): edited edges, the affected vertices' fresh
    signature and γ rows, and the diagonal tail for grown vertices —
    everything :func:`patch_engine_arrays` needs to rebuild the full
    flat-array form on the other side of a pipe.
    """
    affected_array = np.asarray(list(affected), dtype=np.int64).reshape(-1)
    H = engine.index.H
    rows = [H.out_neighbors(u) for u in affected_array.tolist()]
    sig_offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([row.size for row in rows], out=sig_offsets[1:])
    sig_flat = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
    gamma_rows = engine.index.gamma.values[affected_array]
    return {
        _DELTA_PREFIX + "adds": np.asarray(list(adds), dtype=np.int64).reshape(-1, 2),
        _DELTA_PREFIX + "removes": np.asarray(
            list(removes), dtype=np.int64
        ).reshape(-1, 2),
        _DELTA_PREFIX + "affected": affected_array,
        _DELTA_PREFIX + "sig_offsets": sig_offsets,
        _DELTA_PREFIX + "sig_flat": sig_flat,
        _DELTA_PREFIX + "gamma_rows": np.ascontiguousarray(gamma_rows),
        _DELTA_PREFIX + "diagonal_tail": np.ascontiguousarray(
            engine.diagonal[int(old_n):]
        ),
    }


def patch_engine_arrays(
    base_engine: SimRankEngine,
    delta: Dict[str, np.ndarray],
    meta: Dict[str, Any],
) -> Dict[str, np.ndarray]:
    """Apply a :func:`delta_to_arrays` payload to a resident base engine.

    Returns the full ``engine_from_arrays`` array set of the patched
    engine, bit-identical to ``engine_to_arrays`` of the coordinator's
    patched engine.  Every returned array is **freshly allocated** —
    never a view into the base engine's buffers or the delta segment —
    so the delta bundle can be closed immediately (the refcount escape
    check in :meth:`SharedArrayBundle.close` enforces this) and the base
    epoch can be released later without invalidating the patched one.
    """
    try:
        new_n = int(meta["n"])
        adds = delta[_DELTA_PREFIX + "adds"]
        removes = delta[_DELTA_PREFIX + "removes"]
        affected = delta[_DELTA_PREFIX + "affected"]
        sig_offsets = delta[_DELTA_PREFIX + "sig_offsets"]
        sig_flat = delta[_DELTA_PREFIX + "sig_flat"]
        gamma_rows = delta[_DELTA_PREFIX + "gamma_rows"]
        diagonal_tail = delta[_DELTA_PREFIX + "diagonal_tail"]
    except KeyError as exc:
        raise ShardError(f"delta payload is missing field {exc}") from exc
    base_n = base_engine.graph.n
    if new_n != base_n + diagonal_tail.shape[0]:
        raise ShardError(
            f"delta diagonal tail covers {diagonal_tail.shape[0]} grown "
            f"vertices but n goes {base_n} -> {new_n}"
        )
    affected = np.asarray(affected, dtype=np.int64).reshape(-1)
    if affected.size:
        if int(affected.min()) < 0 or int(affected.max()) >= new_n:
            raise ShardError(
                f"affected vertices out of range for n={new_n}"
            )
        if np.any(np.diff(affected) <= 0):
            raise ShardError("affected vertices must be sorted and unique")
    grown = np.setdiff1d(np.arange(base_n, new_n, dtype=np.int64), affected)
    if grown.size:
        raise ShardError(
            f"grown vertices {grown[:5].tolist()}... missing from the "
            "affected set; their signature rows are unknown"
        )
    if sig_offsets.shape != (affected.size + 1,):
        raise ShardError(
            f"delta carries {sig_offsets.shape[0] - 1} signature rows for "
            f"{affected.size} affected vertices"
        )
    try:
        graph = base_engine.graph.apply_delta(adds, removes, n=new_n)
        index = base_engine.index.with_rows(
            affected.tolist(),
            np.split(sig_flat, sig_offsets[1:-1]),
            gamma_rows,
            n=new_n,
        )
    except (GraphFormatError, VertexError, ValueError) as exc:
        raise ShardError(f"delta does not apply to the resident epoch: {exc}") from exc
    arrays: Dict[str, np.ndarray] = {}
    for key, array in graph.to_buffers().items():
        arrays[_GRAPH_PREFIX + key] = array
    for key, array in index.to_buffers().items():
        arrays[_INDEX_PREFIX + key] = array
    arrays["diagonal"] = np.concatenate(
        [np.asarray(base_engine.diagonal, dtype=np.float64), diagonal_tail]
    )
    return arrays
