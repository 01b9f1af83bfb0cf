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
:class:`QueryPlan`.  It bounds before it traverses: u's L1 walks come
first, and a query whose distance-free bound B* is below θ ends there,
with an empty plan; otherwise the BFS stops at the smallest radius that
keeps β exact, and goes deeper only as far as a candidate's bound can
reach θ.  :func:`scan` is the one shell loop: it walks the
plan, keeps the k-heap and decides who is pruned, screened and refined,
taking every estimate from a score source ``scores(vertices, R)``,
which is the query's own estimator (:func:`estimator_scores`).  A
sharded deployment runs both stages whole in one worker process
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
from repro.core.bounds import L1Walks, compute_alpha_beta, l1_walks, trivial_bound
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
    "query_args",
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
    reads past it.  A candidate the BFS never labelled sits in that
    tail at a lumped distance, since its true one was not needed.
    ``score_seed`` seeds the query's estimator, and ``sketch_u`` is that
    estimator's sketch of u's own walks, which every estimate is
    compared against.  ``walks`` counts the walks planning simulated:
    the L1 walks, even when they emptied the plan, and u's own walks.
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
    walks: int

    def __len__(self) -> int:
        return int(self.candidates.size)


def query_args(
    n: int,
    u: int,
    k: Optional[int],
    config: SimRankConfig,
    extra_candidates: Optional[Sequence[int]],
) -> Tuple[int, List[int]]:
    """The validated ``(k, extra candidates)`` of a query for ``u`` on a
    graph of ``n`` vertices; raises before any work is done."""
    if not 0 <= u < n:
        raise VertexError(u, n)
    k = k if k is not None else config.k
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    extra = [int(v) for v in extra_candidates] if extra_candidates is not None else []
    for v in extra:
        if not 0 <= v < n:
            raise VertexError(v, n)
    return k, extra


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

    The plan bounds before it traverses (see ``docs/performance.md``):

    1. u's L1 walks run first; they need no distances.  When their
       distance-free bound B* (which dominates β(d) for every d ≥ 1) is
       below θ, no candidate can reach θ and the plan is empty: no BFS,
       no H lookup, no γ and no sketch of u.
    2. Otherwise one undirected BFS labels to ρ0 = max(
       ``fallback_ball_radius``, ⌊d_max/2⌋ - 1).  That gives the ball
       and, with the far bin of :func:`compute_alpha_beta`, exactly the
       β of full labels.
    3. The horizon h is the first distance from which no β reaches θ.
       If a candidate is still unlabelled and h - 1 > ρ0, the same BFS
       resumes towards depth h - 1, and stops once every candidate has
       a label.  A candidate left unlabelled scans at min(depth + 1,
       d_max): that is d_max, as with full labels, when no β falls
       below θ, and in or past the θ-floor shell otherwise.

    With ``use_l1=False`` there is no β to stop on, and the BFS runs to
    ``max(d_max, fallback_ball_radius)``.
    """
    config = config or (index.config if index is not None else SimRankConfig())
    k, extra = query_args(graph.n, u, k, config, extra_candidates)

    d_max = config.effective_d_max
    radius = config.fallback_ball_radius
    plan = QueryPlan(
        u=u, k=k, config=config, adaptive=adaptive, fallback_used=False,
        candidates=np.empty(0, dtype=np.int64), distances=np.empty(0, dtype=np.int64),
        bounds=np.empty(0, dtype=np.float64), beta=None, score_seed=None,
        sketch_u=None, walks=0,
    )
    walks: Optional[L1Walks] = None
    depth = max(d_max, radius)
    if use_l1:
        walks = l1_walks(graph, u, config=config, seed=derive_seed(seed, u, 101),
                         diagonal=diagonal)
        plan = dataclasses.replace(plan, walks=config.r_alphabeta)
        if walks.distance_free_bound() < config.theta:
            return plan
        depth = max(radius, d_max // 2 - 1)
    reach = bfs_distances(graph, u, direction="both", max_distance=depth)
    indexed = index.candidates(u) if index is not None else []
    fallback_used = len(indexed) < 2 * k
    parts = [np.array(indexed, dtype=np.int64), np.array(extra, dtype=np.int64)]
    if fallback_used:
        parts.append(np.flatnonzero((reach != UNREACHABLE) & (reach <= radius)))
    vertices = np.unique(np.concatenate(parts))
    vertices = vertices[vertices != u]
    plan = dataclasses.replace(plan, fallback_used=fallback_used)
    if not vertices.size:
        return plan

    beta: Optional[np.ndarray] = None
    if walks is not None:
        beta = compute_alpha_beta(
            graph, u, config=config, diagonal=diagonal, distances=reach, walks=walks
        ).beta
        # β has one entry per distance 0..d_max; from the horizon on no
        # β reaches θ, so no scan needs a distance past horizon - 1.
        remaining_best = np.maximum.accumulate(beta[::-1])[::-1]
        below_floor = remaining_best < config.theta
        horizon = int(np.argmax(below_floor)) if below_floor.any() else d_max + 1
        unlabelled = vertices[reach[vertices] == UNREACHABLE]
        if unlabelled.size and horizon - 1 > depth:
            depth = horizon - 1
            reach = bfs_distances(graph, u, direction="both", max_distance=depth,
                                  resume_from=reach, targets=unlabelled)

    # An unlabelled candidate lies past ``depth``, or is unreachable.
    distances = reach[vertices]
    distances[distances == UNREACHABLE] = min(depth + 1, d_max)
    np.minimum(distances, d_max, out=distances)
    order = np.lexsort((vertices, distances))  # last key is primary
    vertices, distances = vertices[order], distances[order]

    end = vertices.size
    by_distance = np.array([trivial_bound(config.c, d) for d in range(d_max + 1)])
    if beta is not None:
        below = below_floor[distances]
        if below.any():
            end = int(np.argmax(below))
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
        walks=plan.walks + config.r_pair,
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
    stats.walks_simulated = plan.walks
    result = TopKResult(u=plan.u, k=plan.k, stats=stats)
    if not len(plan):
        return result

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
