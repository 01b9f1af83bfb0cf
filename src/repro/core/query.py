"""The query phase: top-k similarity search with pruning (Algorithm 5).

For a query vertex u the phase runs:

1. **Candidate enumeration** — vertices sharing a signature vertex with
   u in the bipartite graph H (§7.1).  If the signature sets produced no
   candidates (possible on very sparse graphs), fall back to the
   distance ball of radius ``config.fallback_ball_radius`` — the paper's
   ingredient 3 guarantees high-SimRank vertices are local, so the ball
   is a superset of everything worth scoring.
2. **Pruning** — candidates are visited in ascending (undirected) graph
   distance; each is bounded by min(L1 β(u, d), L2 γ-dot, trivial
   c^(d/2)) and dropped when the bound falls below
   ``max(θ, current k-th best score)``.  When even the best remaining β
   is below that cutoff the scan stops early (§8's θ-termination).
3. **Adaptive sampling** (§7.2) — survivors get a cheap R=10 estimate;
   only those whose rough score clears ``screen_slack × cutoff`` are
   re-estimated with the full R=100 bundle.

The code runs this in two stages.  :func:`plan_query` does everything
that does not depend on scores — the candidate set, the undirected BFS,
the L1 β-vector and the per-candidate bounds — and returns one
:class:`QueryPlan`.  :func:`scan` is the one shell loop: it walks the
plan, keeps the k-heap and decides who is pruned, screened and refined,
taking every estimate from a score source ``scores(vertices, R)``.  A
single process scores with its own estimator (:func:`estimator_scores`);
the sharded coordinator plans once, lets each worker scan its slice of
the plan at the θ-floor, and scans again over the gathered estimates
(:mod:`repro.shard`).

The scan is *shell-batched*: candidates at the same distance form one
shell, the pruning cutoff is frozen at the shell boundary (freezing can
only prune less than the per-candidate evolving cutoff, so it stays
sound), and the whole shell is screened and refined with one batched
estimate each.  θ-termination is evaluated at every shell boundary
against the live cutoff.  Batch scores come from per-candidate derived
seeds, so an estimate is a function of ``(vertex, R)`` alone: results
do not depend on shell composition, nor on which process computed them
(see ``docs/performance.md``).

Distances are measured in the *undirected* graph: reverse-walk supports
satisfy d_und(u, w) ≤ t, so the symmetric triangle inequality makes the
L1 window of Proposition 4 sound, and co-cited siblings (mutually
unreachable by directed paths but highly similar) are still found.
"""

from __future__ import annotations

import dataclasses
import heapq
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import VertexError
from repro.graph.csr import CSRGraph
from repro.graph.traversal import UNREACHABLE, bfs_distances
# Unused here; benchmarks/e2e/traced_server.py still wraps it by name.
from repro.graph.traversal import distance_ball  # noqa: F401
from repro.core.bounds import compute_alpha_beta, trivial_bound
from repro.core.config import SimRankConfig
from repro.core.index import CandidateIndex
from repro.core.linear import DiagonalLike
from repro.core.montecarlo import SingleSourceEstimator
from repro.core.walks import FlatSketch
from repro.obs import instrument as obs
from repro.utils.rng import SeedLike, derive_seed


__all__ = [
    "QueryPlan",
    "QueryStats",
    "Scores",
    "TopKResult",
    "estimator_scores",
    "plan_query",
    "scan",
    "top_k_query",
]

#: A score source: ``scores(vertices, R)`` returns the R-walk estimates
#: of s(u, v) for ``vertices``, aligned with the input.
Scores = Callable[[np.ndarray, int], np.ndarray]


@dataclass
class QueryStats:
    """Instrumentation of one top-k query (drives the ablation benches)."""

    candidates: int = 0
    fallback_used: bool = False
    pruned_by_bound: int = 0
    skipped_by_termination: int = 0
    stopped_early_at_distance: Optional[int] = None
    screened: int = 0
    refined: int = 0
    walks_simulated: int = 0
    elapsed_seconds: float = 0.0


@dataclass
class TopKResult:
    """Answer to Problem 1 for one query vertex."""

    u: int
    k: int
    items: List[Tuple[int, float]] = field(default_factory=list)
    stats: QueryStats = field(default_factory=QueryStats)

    def vertices(self) -> List[int]:
        """Result vertices, best first."""
        return [vertex for vertex, _ in self.items]

    def scores(self) -> Dict[int, float]:
        """vertex -> estimated SimRank score."""
        return {vertex: score for vertex, score in self.items}

    def __len__(self) -> int:
        return len(self.items)


@dataclass(frozen=True)
class QueryPlan:
    """Everything the scan needs that does not depend on scores.

    ``candidates`` are in (distance, vertex) scan order, with their
    undirected ``distances`` (unreachable counts as ``d_max``) and
    ``bounds`` = min(trivial, L1, γ).  Bounds stop at the θ-floor
    termination shell — the first shell whose best remaining β is below
    θ — and are NaN from there on: no cutoff is below θ, so no scan
    reads past it.  ``score_seed`` seeds the query's estimator, and
    ``sketch_u`` is that estimator's sketch of u's own walks, which
    every estimate is compared against.
    """

    u: int
    k: int
    config: SimRankConfig
    adaptive: bool
    fallback_used: bool
    candidates: np.ndarray
    distances: np.ndarray
    bounds: np.ndarray
    beta: Optional[np.ndarray]
    score_seed: Optional[int]
    sketch_u: Optional[FlatSketch]

    def __len__(self) -> int:
        return int(self.candidates.size)

    def select(self, mask: np.ndarray) -> "QueryPlan":
        """The plan restricted to the candidates where ``mask`` holds."""
        return dataclasses.replace(
            self,
            candidates=self.candidates[mask],
            distances=self.distances[mask],
            bounds=self.bounds[mask],
        )


def plan_query(
    graph: CSRGraph,
    index: Optional[CandidateIndex],
    u: int,
    k: Optional[int] = None,
    config: Optional[SimRankConfig] = None,
    seed: SeedLike = None,
    diagonal: DiagonalLike = None,
    use_l1: bool = True,
    use_l2: bool = True,
    adaptive: bool = True,
    extra_candidates: Optional[Sequence[int]] = None,
) -> QueryPlan:
    """Stage one of Algorithm 5: candidates, distances, β and bounds.

    The candidate set comes from the bipartite graph H (§7.1).  When the
    index yields *too few* candidates to answer a top-k query
    confidently (fewer than 2k, including the empty case of isolated
    vertices), the query unions in the local distance ball of radius
    ``fallback_ball_radius``, where ingredient 3 (§5) guarantees the
    top-k lives.  On ``copying_web_graph(6000, 6, seed=31)`` with
    ``fast()`` the index gives 12.6 candidates per query, below 2k = 20,
    and the fallback fires on 30 of 30 queries: the ball is the common
    case.

    One undirected BFS from u serves the whole plan: its labels give
    the ball (``reach <= fallback_ball_radius``), the candidates' scan
    distances and the distances of β's walk supports.
    """
    config = config or (index.config if index is not None else SimRankConfig())
    if not 0 <= u < graph.n:
        raise VertexError(u, graph.n)
    k = k if k is not None else config.k
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    extra = [int(v) for v in extra_candidates] if extra_candidates is not None else []
    for v in extra:
        if not 0 <= v < graph.n:
            raise VertexError(v, graph.n)

    d_max = config.effective_d_max
    radius = config.fallback_ball_radius
    reach = bfs_distances(graph, u, direction="both", max_distance=max(d_max, radius))
    indexed = index.candidates(u) if index is not None else []
    fallback_used = len(indexed) < 2 * k
    parts = [np.array(indexed, dtype=np.int64), np.array(extra, dtype=np.int64)]
    if fallback_used:
        parts.append(np.flatnonzero((reach != UNREACHABLE) & (reach <= radius)))
    vertices = np.unique(np.concatenate(parts))
    vertices = vertices[vertices != u]
    plan = QueryPlan(
        u=u, k=k, config=config, adaptive=adaptive, fallback_used=fallback_used,
        candidates=np.empty(0, dtype=np.int64), distances=np.empty(0, dtype=np.int64),
        bounds=np.empty(0, dtype=np.float64), beta=None, score_seed=None,
        sketch_u=None,
    )
    if not vertices.size:
        return plan

    beta: Optional[np.ndarray] = None
    if use_l1:
        beta = compute_alpha_beta(
            graph,
            u,
            config=config,
            seed=derive_seed(seed, u, 101),
            diagonal=diagonal,
            distances=reach,
        ).beta

    distances = reach[vertices]
    distances[(distances == UNREACHABLE) | (distances > d_max)] = d_max
    order = np.lexsort((vertices, distances))  # last key is primary
    vertices, distances = vertices[order], distances[order]

    end = vertices.size
    by_distance = np.array([trivial_bound(config.c, d) for d in range(d_max + 1)])
    if beta is not None:
        # β has one entry per distance 0..d_max, like by_distance.
        remaining_best = np.maximum.accumulate(beta[::-1])[::-1]
        below_floor = remaining_best[distances] < config.theta
        if below_floor.any():
            end = int(np.argmax(below_floor))
        by_distance = np.minimum(by_distance, beta)
    bounds = np.full(vertices.size, np.nan)
    bounds[:end] = by_distance[distances[:end]]
    if index is not None and use_l2:
        bounds[:end] = np.minimum(bounds[:end], index.gamma.bound_many(u, vertices[:end]))
    score_seed = derive_seed(seed, u, 202)
    return dataclasses.replace(
        plan,
        candidates=vertices,
        distances=distances,
        bounds=bounds,
        beta=beta,
        score_seed=score_seed,
        sketch_u=SingleSourceEstimator(
            graph, u, config=config, seed=score_seed, diagonal=diagonal
        ).sketch_u,
    )


def scan(plan: QueryPlan, k: Optional[int], scores: Scores) -> TopKResult:
    """Stage two of Algorithm 5: the shell-batched pruning scan.

    ``k=None`` scans at the θ-floor: the cutoff never rises above θ, so
    the scan asks for every estimate any real cutoff could ask for.  The
    stats count the walks behind every estimate taken from ``scores``,
    wherever it was computed.
    """
    config = plan.config
    stats = QueryStats(candidates=len(plan), fallback_used=plan.fallback_used)
    result = TopKResult(u=plan.u, k=plan.k, stats=stats)
    if not len(plan):
        return result
    # Spent by the plan: the β walks and u's own walks.
    stats.walks_simulated = config.r_pair
    if plan.beta is not None:
        stats.walks_simulated += config.r_alphabeta

    def estimate(vertices: np.ndarray, R: int) -> np.ndarray:
        stats.walks_simulated += R * int(vertices.size)
        return scores(vertices, R)

    # Min-heap of (score, vertex) holding the best k seen so far.
    heap: List[Tuple[float, int]] = []

    def cutoff() -> float:
        full = k is not None and len(heap) >= k
        return max(config.theta, heap[0][0] if full else 0.0)

    # One shell = the maximal run of candidates at the same distance.
    # At the θ-floor the cutoff never moves, so the plan is one shell.
    edges = (np.flatnonzero(np.diff(plan.distances)) + 1).tolist() if k is not None else []
    for start, end in zip([0, *edges], [*edges, len(plan)]):
        d = int(plan.distances[start])
        if plan.beta is not None:
            # If no remaining shell can beat the cutoff, terminate the
            # whole scan (θ-termination of §8).
            remaining_best = float(plan.beta[d:].max())
            if remaining_best < cutoff():
                stats.stopped_early_at_distance = d
                stats.skipped_by_termination = len(plan) - start
                break
        shell = plan.candidates[start:end]

        # Cutoff frozen at the shell boundary; all of the shell's prune
        # and screen/refine decisions use it (sound: frozen ≤ evolving).
        cut = cutoff()
        survivors = shell[plan.bounds[start:end] >= cut]
        stats.pruned_by_bound += int(shell.size - survivors.size)
        if survivors.size == 0:
            continue

        if plan.adaptive:
            values = estimate(survivors, config.r_screen)
            stats.screened += int(survivors.size)
            promote = values >= cut * config.screen_slack
            if promote.any():
                values = values.copy()
                values[promote] = estimate(survivors[promote], config.r_pair)
                stats.refined += int(np.count_nonzero(promote))
        else:
            values = estimate(survivors, config.r_pair)
            stats.refined += int(survivors.size)

        for v, score in zip(survivors.tolist(), values.tolist()):
            if score >= config.theta:
                if k is None or len(heap) < k:
                    heapq.heappush(heap, (score, v))
                elif score > heap[0][0]:
                    heapq.heapreplace(heap, (score, v))

    result.items = sorted(
        ((vertex, score) for score, vertex in heap), key=lambda it: (-it[1], it[0])
    )
    return result


def estimator_scores(
    graph: CSRGraph, plan: QueryPlan, diagonal: DiagonalLike = None
) -> Scores:
    """The score source of a process that holds the graph: u's estimator,
    rebuilt around the plan's sketch of u (an empty plan has none, and
    is never scored)."""
    if not len(plan):
        return _nothing_to_score
    estimator = SingleSourceEstimator(
        graph, plan.u, config=plan.config, seed=plan.score_seed,
        diagonal=diagonal, sketch_u=plan.sketch_u,
    )
    return lambda vertices, R: estimator.estimate_batch(vertices, R=R)


def _nothing_to_score(vertices: np.ndarray, R: int) -> np.ndarray:
    raise AssertionError("an empty plan is never scored")


def top_k_query(
    graph: CSRGraph,
    index: Optional[CandidateIndex],
    u: int,
    k: Optional[int] = None,
    config: Optional[SimRankConfig] = None,
    seed: SeedLike = None,
    diagonal: DiagonalLike = None,
    use_l1: bool = True,
    use_l2: bool = True,
    adaptive: bool = True,
    extra_candidates: Optional[Sequence[int]] = None,
) -> TopKResult:
    """Algorithm 5: top-k SimRank similarity search for one query vertex.

    ``index`` may be ``None`` (pure fallback-ball mode, used by the
    ablation benches); ``use_l1`` / ``use_l2`` / ``adaptive`` switch the
    individual optimisations off for the §6.3 ablations.
    """
    start_time = time.perf_counter()
    plan = plan_query(
        graph, index, u, k=k, config=config, seed=seed, diagonal=diagonal,
        use_l1=use_l1, use_l2=use_l2, adaptive=adaptive,
        extra_candidates=extra_candidates,
    )
    result = scan(plan, plan.k, estimator_scores(graph, plan, diagonal))
    result.stats.elapsed_seconds = time.perf_counter() - start_time
    if obs.OBS.enabled:
        obs.record_query(result.stats)
    return result
