"""Dict-based reference kernels: the equivalence oracle of ``src/``'s sketches.

The served code has one sketch, :class:`~repro.core.walks.FlatSketch`,
and fused batch kernels over it.  This module keeps the original
per-walk formulation they replaced, written for clarity rather than
speed, so every array kernel stays comparable against it on identical
seeds (``tests/properties/test_kernel_equivalence.py``) and timeable
against it (``benchmarks/bench_micro_kernels.py``):

- :class:`PositionSketch` — one ``{vertex: count}`` dict per walk step;
- :func:`reference_series` — eq. (14)'s T-term series as a per-step loop;
- :func:`reference_single_pair` — Algorithm 1 on dict sketches, drawing
  walks in :func:`~repro.core.montecarlo.single_pair_simrank`'s order;
- :func:`reference_scores` — a score source ``scores(vertices, R)`` for
  :func:`~repro.core.query.scan`, one keyed-block bundle per candidate;
- :func:`reference_signatures` — Algorithm 4 one vertex at a time.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import SimRankConfig
from repro.core.index import _signatures_from_block
from repro.core.linear import DiagonalLike, resolve_diagonal
from repro.core.walks import WalkEngine
from repro.graph.csr import CSRGraph
from repro.utils.rng import SeedLike, ensure_rng, root_seed

__all__ = [
    "PositionSketch",
    "reference_series",
    "reference_single_pair",
    "reference_scores",
    "reference_signatures",
]


class PositionSketch:
    """Per-step occupation counts of a walk bundle, one dict per step.

    ``sketch.counts[t]`` maps vertex w to ``#{r : u_r^(t) = w}``; dividing
    by R gives the empirical ``P^t e_u`` of eq. (14).
    """

    def __init__(self, walk_matrix: np.ndarray, R: Optional[int] = None) -> None:
        self.T, bundle = walk_matrix.shape
        self.R = R if R is not None else bundle
        self.counts: List[Dict[int, int]] = []
        for t in range(self.T):
            row = walk_matrix[t]
            vertices, counts = np.unique(row[row >= 0], return_counts=True)
            self.counts.append({int(v): int(cnt) for v, cnt in zip(vertices, counts)})

    def alive_fraction(self, t: int) -> float:
        """Fraction of the bundle still alive at step t."""
        return sum(self.counts[t].values()) / self.R

    def collision_value(self, other: "PositionSketch", t: int, diagonal: np.ndarray) -> float:
        """``(P^t e_u)^T D (P^t e_v)`` estimate, probing the smaller dict."""
        mine, theirs = self.counts[t], other.counts[t]
        if len(theirs) < len(mine):
            mine, theirs = theirs, mine
        total = 0.0
        for w, count in mine.items():
            other_count = theirs.get(w)
            if other_count:
                total += diagonal[w] * count * other_count
        return total / (self.R * other.R)

    def self_collision_value(self, t: int, diagonal: np.ndarray) -> float:
        """``||sqrt(D) P^t e_u||^2`` estimate from one bundle (Algorithm 3)."""
        total = 0.0
        for w, count in self.counts[t].items():
            total += diagonal[w] * (count / self.R) ** 2
        return total


def reference_series(
    sketch_u: PositionSketch, sketch_v: PositionSketch, c: float, diagonal: np.ndarray
) -> Tuple[float, int]:
    """Eq. (14)'s series term by term: ``(sum, number of positive terms)``."""
    total, meetings, weight = 0.0, 0, 1.0
    for t in range(min(sketch_u.T, sketch_v.T)):
        term = weight * sketch_u.collision_value(sketch_v, t, diagonal)
        total += term
        meetings += int(term > 0.0)
        weight *= c
    return total, meetings


def reference_single_pair(
    graph: CSRGraph,
    u: int,
    v: int,
    config: SimRankConfig,
    seed: SeedLike = None,
    diagonal: DiagonalLike = None,
) -> float:
    """Algorithm 1 on dict sketches, with the served estimator's draws."""
    if u == v:
        return 1.0
    engine = WalkEngine(graph, seed)
    sketch_u = PositionSketch(engine.walk_matrix(u, config.r_pair, config.T))
    sketch_v = PositionSketch(engine.walk_matrix(v, config.r_pair, config.T))
    d = resolve_diagonal(graph.n, config.c, diagonal)
    return reference_series(sketch_u, sketch_v, config.c, d)[0]


def reference_scores(
    graph: CSRGraph,
    u: int,
    config: SimRankConfig,
    seed: int,
    diagonal: DiagonalLike = None,
) -> Callable[[Sequence[int], int], np.ndarray]:
    """Score source for :func:`~repro.core.query.scan`, one bundle at a time.

    u's sketch comes from the first ``r_pair`` walks of ``seed``'s stream
    and candidate v's R-walk bundle from
    ``walk_matrix_seeded(v, R, T, seed, salt=R)`` — the draws of
    :class:`~repro.core.montecarlo.SingleSourceEstimator` built with the
    same int seed (a query plan's ``score_seed``).
    """
    engine = WalkEngine(graph, ensure_rng(seed))
    sketch_u = PositionSketch(engine.walk_matrix(u, config.r_pair, config.T))
    d = resolve_diagonal(graph.n, config.c, diagonal)

    def scores(vertices: Sequence[int], R: int) -> np.ndarray:
        values = np.ones(len(vertices))
        for i, v in enumerate(int(v) for v in vertices):
            if v != u:
                bundle = engine.walk_matrix_seeded(v, R, config.T, seed, R)
                values[i] = reference_series(sketch_u, PositionSketch(bundle), config.c, d)[0]
        return values

    return scores


def reference_signatures(
    graph: CSRGraph,
    config: SimRankConfig,
    seed: SeedLike = None,
    vertices: Optional[Sequence[int]] = None,
) -> List[List[int]]:
    """Algorithm 4 vertex by vertex, each from its own seeded bundle."""
    targets = [int(u) for u in (range(graph.n) if vertices is None else vertices)]
    base_seed = root_seed(seed)
    engine = WalkEngine(graph)
    width = config.index_walks * (1 + config.index_checks)
    return [
        _signatures_from_block(
            engine.walk_matrix_seeded(u, width, config.T, base_seed, 29),
            [u],
            config,
        )[0]
        for u in targets
    ]
