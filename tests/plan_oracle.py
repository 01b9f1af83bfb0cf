"""Plain-Python references for the plan stage of Algorithm 5.

:func:`~repro.core.query.plan_query` builds its candidates, distances and
β with vectorised numpy.  This module keeps the straightforward
formulations they replaced, written for clarity rather than speed, so
the array code stays checkable against them:

- :func:`reference_bfs` — a ``deque`` BFS over the adjacency rows;
- :func:`reference_beta` — β(u, d) of Proposition 4 as a double loop
  over distances and walk steps, with the far bin;
- :func:`reference_candidates` — the candidate set as a Python set:
  H's candidates, the fallback ball from its own BFS, and the extras;
- :func:`reference_plan` — the plan from a full BFS to ``d_max``: every
  candidate labelled, β from full labels, and no early exit on B*;
- :func:`assert_plan_preserves` — what a plan must keep of that one.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence

import numpy as np

from repro.core.bounds import compute_alpha_beta, trivial_bound
from repro.core.config import SimRankConfig
from repro.core.index import CandidateIndex
from repro.core.montecarlo import SingleSourceEstimator
from repro.core.query import QueryPlan
from repro.graph.csr import CSRGraph
from repro.graph.traversal import UNREACHABLE, bfs_distances, distance_ball
from repro.utils.rng import SeedLike, derive_seed

__all__ = [
    "assert_plan_preserves",
    "reference_bfs",
    "reference_beta",
    "reference_candidates",
    "reference_plan",
]


def reference_bfs(
    graph: CSRGraph, source: int, direction: str, max_distance: Optional[int] = None
) -> List[int]:
    """Hop distances from ``source`` (``-1`` if unreachable), one vertex at a time."""
    dist = [UNREACHABLE] * graph.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        vertex = queue.popleft()
        if max_distance is not None and dist[vertex] >= max_distance:
            continue
        neighbors: List[int] = []
        if direction in ("in", "both"):
            neighbors += graph.in_neighbors(vertex).tolist()
        if direction in ("out", "both"):
            neighbors += graph.out_neighbors(vertex).tolist()
        for nxt in neighbors:
            if dist[nxt] == UNREACHABLE:
                dist[nxt] = dist[vertex] + 1
                queue.append(nxt)
    return dist


def reference_beta(
    alpha: np.ndarray,
    c: float,
    symmetric_distance: bool = True,
    far: Optional[np.ndarray] = None,
) -> np.ndarray:
    """β(u, d) = Σ_t c^t max over the window of α(u, d', t), for every d.

    ``far[t]`` is the largest value of step t whose distance is unknown
    or past ``d_max``.  Such a position lies at most t from u, so it may
    sit in d's window whenever the window reaches down to t.
    """
    d_max, T = alpha.shape[0] - 1, alpha.shape[1]
    beta = np.zeros(d_max + 1)
    weights = c ** np.arange(T)
    for d in range(d_max + 1):
        total = 0.0
        for t in range(T):
            low = max(0, d - t) if symmetric_distance else 0
            high = min(d_max, d + t)
            best = alpha[low : high + 1, t].max() if low <= high else 0.0
            if far is not None and low <= t:
                best = max(best, far[t])
            total += weights[t] * best
        beta[d] = total
    return beta


def reference_candidates(
    graph: CSRGraph,
    index: Optional[CandidateIndex],
    u: int,
    k: int,
    config: SimRankConfig,
    extra: Sequence[int] = (),
) -> List[int]:
    """Sorted candidates: H's, plus the radius ball when H gives fewer than 2k."""
    found = set(index.candidates(u)) if index is not None else set()
    if len(found) < 2 * k and config.fallback_ball_radius > 0:
        found.update(distance_ball(graph, u, config.fallback_ball_radius, direction="both"))
    found.update(int(v) for v in extra)
    found.discard(u)
    return sorted(found)


def reference_plan(
    graph: CSRGraph,
    index: Optional[CandidateIndex],
    u: int,
    k: int,
    config: SimRankConfig,
    seed: SeedLike = None,
    extra: Sequence[int] = (),
) -> QueryPlan:
    """:func:`~repro.core.query.plan_query`'s plan, built from full labels.

    A second BFS labels every vertex to ``d_max`` and β is computed from
    those labels.  The candidates scan in (distance, vertex) order, and
    their bounds stop at the θ-floor termination shell.
    """
    vertices = np.array(reference_candidates(graph, index, u, k, config, extra), dtype=np.int64)
    d_max = config.effective_d_max
    reach = bfs_distances(graph, u, direction="both", max_distance=d_max)
    distances = np.array([d_max if reach[v] == UNREACHABLE else reach[v] for v in vertices],
                         dtype=np.int64)
    order = sorted(range(vertices.size), key=lambda i: (distances[i], vertices[i]))
    vertices, distances = vertices[order], distances[order]
    beta = compute_alpha_beta(
        graph, u, config=config, seed=derive_seed(seed, u, 101), distances=reach
    ).beta
    # Bounds stop at the θ-floor termination shell: the first distance
    # from which no β reaches θ.
    end = next((i for i, d in enumerate(distances.tolist()) if max(beta[d:]) < config.theta),
               vertices.size)
    bounds = np.full(vertices.size, np.nan)
    gamma = index.gamma.bound_many(u, vertices[:end]) if index is not None else None
    for i, d in enumerate(distances[:end].tolist()):
        bounds[i] = min(trivial_bound(config.c, d), beta[d])
        if gamma is not None:
            bounds[i] = min(bounds[i], gamma[i])
    score_seed = derive_seed(seed, u, 202)
    return QueryPlan(
        u=u, k=k, config=config, adaptive=True,
        fallback_used=len(index.candidates(u) if index is not None else []) < 2 * k,
        candidates=vertices, distances=distances, bounds=bounds, beta=beta,
        score_seed=score_seed,
        sketch_u=SingleSourceEstimator(graph, u, config=config, seed=score_seed).sketch_u,
        walks=config.r_alphabeta + config.r_pair,
    )


def floor_shell(plan):
    """Index of the θ-floor termination shell: the first NaN bound."""
    unbounded = np.isnan(plan.bounds)
    return int(np.argmax(unbounded)) if unbounded.any() else len(plan)


def assert_plan_preserves(plan, reference):
    """What ``plan_query`` keeps, exactly, of the full-BFS ``reference``.

    B* may empty a plan whose bounds would all be NaN, and candidates
    past the θ-floor shell may carry a lumped distance; everything a
    scan reads is the same.  Returns whether B* emptied the plan.
    """
    if not len(plan):
        assert np.isnan(reference.bounds).all()
        return bool(len(reference))
    assert len(plan) == len(reference)
    assert plan.fallback_used == reference.fallback_used
    assert plan.beta.tolist() == reference.beta.tolist()
    end = floor_shell(reference)
    assert floor_shell(plan) == end
    assert plan.candidates[:end].tolist() == reference.candidates[:end].tolist()
    assert plan.distances[:end].tolist() == reference.distances[:end].tolist()
    np.testing.assert_array_equal(plan.bounds, reference.bounds)
    assert sorted(plan.candidates[end:].tolist()) == sorted(reference.candidates[end:].tolist())
    return False
