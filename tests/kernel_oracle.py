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
- :func:`reference_signatures` — Algorithm 4 one vertex at a time;
- :func:`full_width_walks` — keyed walk bundles stepped at full width,
  every slot on its own entry of the
  :func:`~repro.utils.rng.keyed_uniforms` block (a dead slot burns its
  draw), the layout the live-walk loops of ``src/`` must reproduce bit
  for bit; :func:`full_width_scores` and :func:`full_width_gamma_rows`
  reduce it with the float operations of the served kernels, so they
  compare with ``==``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import SimRankConfig
from repro.core.index import _signatures_from_block
from repro.core.linear import DiagonalLike, resolve_diagonal
from repro.core.walks import DEAD, FlatSketch, WalkEngine
from repro.graph.csr import CSRGraph
from repro.utils.rng import SeedLike, ensure_rng, keyed_uniforms, root_seed

__all__ = [
    "PositionSketch",
    "reference_series",
    "reference_single_pair",
    "reference_scores",
    "reference_signatures",
    "full_width_walks",
    "full_width_scores",
    "full_width_gamma_rows",
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
    ``full_width_walks(graph, [v], R, T, seed, salt=R)`` — the draws of
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
                bundle = full_width_walks(graph, [v], R, config.T, seed, R)
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
    width = config.index_walks * (1 + config.index_checks)
    return [
        _signatures_from_block(
            full_width_walks(graph, [u], width, config.T, base_seed, 29), [u], config
        )[0]
        for u in targets
    ]


def full_width_walks(
    graph: CSRGraph, starts: Sequence[int], R: int, T: int, seed: int, salt: int
) -> np.ndarray:
    """R keyed walks per start as one ``(T, len(starts)·R)`` matrix.

    Slot ``b·R + r`` steps from t to t + 1 on entry ``(t, b·R + r)`` of
    ``keyed_uniforms(seed, salt, starts, T - 1, R)`` whether or not it
    is alive, and a walk at a vertex without in-links turns DEAD.
    """
    starts = np.asarray(starts, dtype=np.int64)
    uniforms = keyed_uniforms(seed, salt, starts, T - 1, R)
    degrees, indptr, indices = graph.in_degrees, graph.in_indptr, graph.in_indices
    walks = np.full((T, starts.size * R), DEAD, dtype=np.int64)
    walks[0] = np.repeat(starts, R)
    for t in range(1, T):
        previous = walks[t - 1]
        movable = previous >= 0
        movable[movable] = degrees[previous[movable]] > 0
        sources = previous[movable]
        offsets = (uniforms[t - 1][movable] * degrees[sources]).astype(np.int64)
        walks[t][movable] = indices[indptr[sources] + offsets]
    return walks


def full_width_scores(
    graph: CSRGraph,
    u: int,
    config: SimRankConfig,
    seed: int,
    diagonal: DiagonalLike = None,
) -> Callable[[Sequence[int], int], np.ndarray]:
    """Score source of :class:`~repro.core.montecarlo.SingleSourceEstimator`'s
    batch on full-width walks.

    u's sketch is the estimator's (the first ``r_pair`` walks of
    ``seed``'s stream); the candidates' bundles are one
    :func:`full_width_walks` matrix (salt R).  Per step, every slot in
    slot order that sits on a u-sketch vertex w adds ``D_ww · count_w``
    to its candidate's sum, and the sums are scaled and accumulated as
    the served kernel does, so the scores are bit-identical to it.
    """
    engine = WalkEngine(graph, ensure_rng(seed))
    sketch_u = FlatSketch(engine.walk_matrix(u, config.r_pair, config.T))
    d = resolve_diagonal(graph.n, config.c, diagonal)

    def scores(vertices: Sequence[int], R: int) -> np.ndarray:
        cand = np.asarray(vertices, dtype=np.int64)
        values = np.ones(cand.size)
        others = np.flatnonzero(cand != u)
        if others.size == 0:
            return values
        walks = full_width_walks(graph, cand[others], R, config.T, seed, R)
        totals = np.zeros(others.size)
        weight, norm = 1.0, R * sketch_u.R
        for t in range(config.T):
            counts = dict(zip(*(row.tolist() for row in sketch_u.row(t))))
            hits = [
                (slot // R, d[w] * counts[w])
                for slot, w in enumerate(walks[t].tolist())
                if w in counts
            ]
            mass = np.zeros(others.size)
            if hits:
                segments, weights = zip(*hits)
                mass = np.bincount(segments, weights=weights, minlength=others.size)
            totals += mass * (weight / norm)
            weight *= config.c
        values[others] = totals
        return values

    return scores


def full_width_gamma_rows(
    graph: CSRGraph,
    vertices: Sequence[int],
    config: SimRankConfig,
    seed: SeedLike = None,
    diagonal: DiagonalLike = None,
) -> np.ndarray:
    """Algorithm 3 rows vertex by vertex on full-width walks (salt 31).

    γ(u, t)² sums ``D_ww (count_w / R)²`` over the distinct alive
    vertices of step t in ascending order, one addition at a time, as
    the served kernel's ``bincount`` does.
    """
    base_seed = root_seed(seed)
    d = resolve_diagonal(graph.n, config.c, diagonal)
    R, T = config.r_gamma, config.T
    rows = np.zeros((len(vertices), T))
    for i, u in enumerate(int(u) for u in vertices):
        walks = full_width_walks(graph, [u], R, T, base_seed, 31)
        for t in range(T):
            row = walks[t]
            alive, counts = np.unique(row[row >= 0], return_counts=True)
            total = 0.0
            for term in (d[alive] * (counts.astype(np.float64) / R) ** 2).tolist():
                total += term
            rows[i, t] = np.sqrt(total)
    return rows
