"""SimRank similarity join: all pairs with score above a threshold.

The paper's related work cites Zheng et al. [39], "Efficient
SimRank-based similarity join over large graphs"; the operation also
falls out of this paper's machinery naturally, so we provide it as an
extension:

    JOIN(θ) = { (u, v) : u < v, s(u, v) ≥ θ }.

Pipeline (mirroring the top-k query phase, §7):

1. **candidate pairs** — vertices sharing a signature vertex in the
   bipartite graph H; enumerated per posting list, so the cost is the
   sum of squared posting sizes, not n²;
2. **L2 pruning** — the γ-product bound (Prop. 6) discards pairs whose
   bound is below θ (vectorised per posting list);
3. **verification** — surviving pairs are scored with Algorithm 1,
   adaptively (cheap screen, full refine) like §7.2.  Each vertex's
   bundle is sketched once per budget, and a pair's score is one
   :meth:`~repro.core.walks.FlatSketch.series` call.

Output is exact up to Monte-Carlo noise on the verify step, the same
guarantee as the paper's top-k search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.config import SimRankConfig
from repro.core.index import CandidateIndex
from repro.core.linear import DiagonalLike, resolve_diagonal
from repro.core.walks import FlatSketch, WalkEngine
from repro.errors import ConfigError
from repro.graph.csr import CSRGraph
from repro.utils.rng import SeedLike, derive_seed


__all__ = ["JoinStats", "JoinResult", "similarity_join"]
@dataclass
class JoinStats:
    """Work accounting of one similarity join."""

    candidate_pairs: int = 0
    pruned_by_l2: int = 0
    screened: int = 0
    refined: int = 0
    elapsed_seconds: float = 0.0


@dataclass
class JoinResult:
    """All (u, v, score) triples with u < v and score ≥ θ."""

    theta: float
    pairs: List[Tuple[int, int, float]] = field(default_factory=list)
    stats: JoinStats = field(default_factory=JoinStats)

    def as_set(self) -> Set[Tuple[int, int]]:
        """The joined pair set without scores."""
        return {(u, v) for u, v, _ in self.pairs}

    def __len__(self) -> int:
        return len(self.pairs)


def _candidate_pairs(index: CandidateIndex) -> Set[Tuple[int, int]]:
    """All u < v sharing at least one signature vertex."""
    pairs: Set[Tuple[int, int]] = set()
    for w in range(index.n):
        postings = index.H.in_neighbors(w).tolist()
        for i, u in enumerate(postings):
            for v in postings[i + 1 :]:
                pairs.add((u, v))
    return pairs


def similarity_join(
    graph: CSRGraph,
    index: CandidateIndex,
    theta: float,
    config: Optional[SimRankConfig] = None,
    seed: SeedLike = None,
    diagonal: DiagonalLike = None,
    screen_margin: float = 0.5,
) -> JoinResult:
    """Compute JOIN(θ) over the whole graph.

    ``screen_margin`` controls the adaptive verify: pairs whose cheap
    R=``r_screen`` estimate falls below ``theta * screen_margin`` are
    dropped without the full-budget re-estimate (the §7.2 trick, with a
    join-appropriate default).
    """
    config = config or index.config
    if not 0.0 < theta < 1.0:
        raise ConfigError(f"theta must be in (0, 1), got {theta}")
    start = time.perf_counter()
    stats = JoinStats()
    d_vec = resolve_diagonal(graph.n, config.c, diagonal)

    candidates = sorted(_candidate_pairs(index))
    stats.candidate_pairs = len(candidates)

    # L2 pruning, vectorised over the pair list.
    if candidates:
        pair_array = np.asarray(candidates, dtype=np.int64)
        gamma = index.gamma
        bounds = (
            gamma.values[pair_array[:, 0], 1:]
            * gamma.values[pair_array[:, 1], 1:]
            * gamma.weights[1:]
        ).sum(axis=1)
        keep = bounds >= theta
        stats.pruned_by_l2 = int((~keep).sum())
        survivors = [tuple(p) for p in pair_array[keep].tolist()]
    else:
        survivors = []

    # Verification with per-vertex sketch reuse: each vertex's walk
    # bundle is simulated once per budget level and shared across all
    # its surviving pairs.
    engine = WalkEngine(graph, derive_seed(seed, 33))
    sketch_cache: Dict[Tuple[int, int], FlatSketch] = {}

    def sketch(u: int, budget: int) -> FlatSketch:
        key = (u, budget)
        cached = sketch_cache.get(key)
        if cached is None:
            cached = engine.sketch(u, budget, config.T)
            sketch_cache[key] = cached
        return cached

    def estimate(u: int, v: int, budget: int) -> float:
        value, _ = sketch(u, budget).series(sketch(v, budget), config.c, d_vec)
        return value

    result = JoinResult(theta=theta, stats=stats)
    for u, v in survivors:
        rough = estimate(u, v, config.r_screen)
        stats.screened += 1
        if rough < theta * screen_margin:
            continue
        score = estimate(u, v, config.r_pair)
        stats.refined += 1
        if score >= theta:
            result.pairs.append((u, v, score))
    result.pairs.sort(key=lambda t: (-t[2], t[0], t[1]))
    stats.elapsed_seconds = time.perf_counter() - start
    return result
