"""Scatter-gather merge: Algorithm 5's scan over the gathered estimates.

No longer on the query path: :class:`~repro.shard.pool.ShardPool` routes
whole queries to one worker.  The module stays only because the traced
e2e launcher (``benchmarks/e2e/traced_server.py``) rebinds
``repro.shard.pool.replay_merge`` by name; it goes in the next change to
that benchmark.

It runs the single-process :func:`~repro.core.query.scan` over a plan,
looking every estimate up in per-shard θ-floor replies instead of
computing it.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence, Tuple

import numpy as np

from repro.core.query import QueryPlan, TopKResult, scan
from repro.errors import ShardError


__all__ = ["replay_merge"]


def replay_merge(
    plan: QueryPlan, shard_results: Sequence[Dict[str, Any]]
) -> TopKResult:
    """Scan ``plan`` with the estimates the shards computed at the θ-floor."""
    gathered: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    for R in {R for result in shard_results for R in result["scores"]}:
        parts = [result["scores"][R] for result in shard_results if R in result["scores"]]
        vertices = np.concatenate([v for v, _ in parts])
        order = np.argsort(vertices)
        gathered[R] = (vertices[order], np.concatenate([s for _, s in parts])[order])

    def lookup(vertices: np.ndarray, R: int) -> np.ndarray:
        known, values = gathered.get(R, (np.empty(0, dtype=np.int64), np.empty(0)))
        at = np.minimum(np.searchsorted(known, vertices), max(known.size - 1, 0))
        if known.size == 0 or not np.array_equal(known[at], vertices):
            raise ShardError(
                f"merge needed an R={R} estimate no shard computed — "
                "θ-floor superset invariant violated (protocol bug)"
            )
        return values[at]

    return scan(plan, plan.k, lookup)
