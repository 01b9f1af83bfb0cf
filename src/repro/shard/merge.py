"""Scatter-gather merge: Algorithm 5's scan over the gathered estimates.

The coordinator runs the same :func:`~repro.core.query.scan` as a single
process, on the full plan, with a score source that looks estimates up
in the shards' replies instead of computing them.  Since every estimate
is the exact bit pattern the single process would have computed (see
:mod:`repro.shard.worker`), the scan makes the same decisions in the
same order, so the result items *and* the `QueryStats` counters match
exactly (``elapsed_seconds`` aside — walltime is not a semantic output).
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
