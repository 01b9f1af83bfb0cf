"""Monte-Carlo single-pair and single-source SimRank (Section 4).

Algorithm 1 of the paper: run R independent reverse walks from u and R
from v, and estimate each term of the truncated series (eq. 13) by the
occupation-count collision sum of eq. (14),

    c^t (P^t e_u)^T D (P^t e_v)  ≈  (c^t / R^2) Σ_w D_ww α_w β_w ,

where α_w, β_w count how many u-walks / v-walks sit at w after t steps.
The cost is O(T R) per pair — independent of n and m, which is the crux
of the paper's scalability argument.  Pairwise estimates sum the series
with :meth:`~repro.core.walks.FlatSketch.series`; batches of candidates
use the fused kernel of :meth:`SingleSourceEstimator.estimate_batch`,
which walks candidate v's R-walk bundle on the uniform block
:func:`~repro.utils.rng.keyed_uniforms` keys by ``(seed, R, v)``.

Concentration: Proposition 3 / Corollary 1 give
``R = 2 (1-c)^2 log(4 n T / δ) / ε^2`` for ε-accuracy with probability
1-δ; :func:`required_samples` computes that bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass as _dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError, VertexError
from repro.graph.csr import CSRGraph
from repro.core.config import SimRankConfig
from repro.core.linear import resolve_diagonal, DiagonalLike
from repro.core.walks import FlatSketch, WalkEngine, segment_collisions
from repro.obs import instrument as obs
from repro.utils.rng import SeedLike, derive_seed, ensure_rng, keyed_uniforms, root_seed


__all__ = [
    "required_samples",
    "single_pair_simrank",
    "SingleSourceEstimator",
    "PairEstimate",
    "single_pair_with_ci",
    "single_source_simrank",
]


def required_samples(
    c: float, n: int, T: int, epsilon: float, delta: float = 0.05
) -> int:
    """Corollary 1's sample count ``R = 2 (1-c)^2 log(4nT/δ) / ε^2``.

    The paper notes (§8, footnote 4) that Hoeffding is loose here and
    R = 100 suffices in practice; this function is the *theoretical*
    requirement, exposed for the concentration experiments.
    """
    if not 0.0 < c < 1.0:
        raise ConfigError(f"c must be in (0, 1), got {c}")
    if not 0.0 < epsilon < 1.0:
        raise ConfigError(f"epsilon must be in (0, 1), got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ConfigError(f"delta must be in (0, 1), got {delta}")
    if n < 1 or T < 1:
        raise ConfigError(f"n and T must be >= 1, got n={n}, T={T}")
    return max(1, math.ceil(2.0 * (1.0 - c) ** 2 * math.log(4.0 * n * T / delta) / epsilon**2))


def single_pair_simrank(
    graph: CSRGraph,
    u: int,
    v: int,
    config: Optional[SimRankConfig] = None,
    seed: SeedLike = None,
    diagonal: DiagonalLike = None,
    R: Optional[int] = None,
) -> float:
    """Algorithm 1: Monte-Carlo estimate of s^(T)(u, v).

    ``s(u, u)`` is 1 by definition and returned without simulation.
    ``R`` overrides ``config.r_pair`` (the adaptive query uses this to
    run the cheap screening pass).
    """
    config = config or SimRankConfig()
    if not 0 <= u < graph.n:
        raise VertexError(u, graph.n)
    if not 0 <= v < graph.n:
        raise VertexError(v, graph.n)
    if u == v:
        return 1.0
    samples = R if R is not None else config.r_pair
    d = resolve_diagonal(graph.n, config.c, diagonal)
    engine = WalkEngine(graph, seed)
    sketch_u = FlatSketch(engine.walk_matrix(u, samples, config.T))
    sketch_v = FlatSketch(engine.walk_matrix(v, samples, config.T))
    value, meetings = sketch_u.series(sketch_v, config.c, d)
    if obs.OBS.enabled:
        obs.record_walk_bundle(
            walks=2 * samples, steps=2 * samples * config.T, meetings=meetings
        )
    return value


class SingleSourceEstimator:
    """Shares the query vertex's walk bundle across many candidates.

    The query phase (Algorithm 5) evaluates s(u, v) for every surviving
    candidate v.  The u-side bundle is identical across those
    evaluations, so we simulate it once, sketch it, and only run fresh
    bundles for each candidate — halving the walk cost and, more
    importantly, making the adaptive double-evaluation (R=10 screen,
    R=100 refine) cheap.

    Two evaluation paths exist:

    - :meth:`estimate` — one candidate at a time, bundles drawn from the
      estimator's shared stream (the original Algorithm 1 draw order);
    - :meth:`estimate_batch` — all candidates at once.  Candidate v's
      uniforms are the keyed block ``keyed_uniforms(root, R, [v], …)``
      of the estimator's root seed, so its score is a deterministic
      function of ``(seed, v, R)`` and therefore independent of batch
      composition and order.  The whole batch draws its blocks in one
      call, steps as one fused ``(T, B·R)`` matrix and reduces against
      the u-sketch with segment sums (see ``docs/performance.md``).
    """

    def __init__(
        self,
        graph: CSRGraph,
        u: int,
        config: Optional[SimRankConfig] = None,
        seed: SeedLike = None,
        diagonal: DiagonalLike = None,
        sketch_u: Optional[FlatSketch] = None,
    ) -> None:
        """``sketch_u`` is the :attr:`sketch_u` of an estimator built
        from the same ``seed``, when one exists (a query plan carries
        it); u's walks are then not simulated again.  :meth:`estimate`
        draws from the stream those walks would have advanced, so only
        :meth:`estimate_batch` matches the original estimator.
        """
        self.graph = graph
        self.config = config or SimRankConfig()
        if not 0 <= u < graph.n:
            raise VertexError(u, graph.n)
        self.u = int(u)
        self.diagonal = resolve_diagonal(graph.n, self.config.c, diagonal)
        self.engine = WalkEngine(graph, ensure_rng(seed))
        self.walks_simulated = 0
        if sketch_u is None:
            sketch_u = FlatSketch(
                self.engine.walk_matrix(self.u, self.config.r_pair, self.config.T)
            )
            self.walks_simulated = self.config.r_pair
            if obs.OBS.enabled:
                obs.record_walk_bundle(
                    walks=self.config.r_pair, steps=self.config.r_pair * self.config.T
                )
        self.sketch_u = sketch_u
        # Int root of the per-candidate keyed blocks, drawn once (fresh
        # for seed=None).  Resolved *after* the u-bundle, so a Generator
        # seed's first draws go to u's walks.
        self._batch_seed = root_seed(seed)

    def estimate(self, v: int, R: Optional[int] = None) -> float:
        """Estimate s^(T)(u, v) with a fresh R-walk bundle for v."""
        if not 0 <= v < self.graph.n:
            raise VertexError(v, self.graph.n)
        if v == self.u:
            return 1.0
        samples = R if R is not None else self.config.r_pair
        sketch_v = FlatSketch(self.engine.walk_matrix(v, samples, self.config.T))
        self.walks_simulated += samples
        value, meetings = self.sketch_u.series(sketch_v, self.config.c, self.diagonal)
        if obs.OBS.enabled:
            obs.record_walk_bundle(
                walks=samples, steps=samples * self.config.T, meetings=meetings
            )
        return value

    def estimate_batch(
        self, candidates: Sequence[int], R: Optional[int] = None
    ) -> np.ndarray:
        """Scores for all ``candidates`` at once, aligned with the input.

        Every candidate v gets its own R-walk bundle, driven by the
        uniform block keyed by ``(seed, R, v)``; self-candidates score
        1.0 without simulation.  The bundles run fused (one position row
        per step for the whole batch) — the vectorised pass behind
        Algorithm 5's screen and refine phases.
        """
        samples = R if R is not None else self.config.r_pair
        # An int64 array passes through uncopied; anything else is coerced.
        cand = np.asarray(candidates, dtype=np.int64)
        if cand.size and (cand.min() < 0 or cand.max() >= self.graph.n):
            offender = int(cand[(cand < 0) | (cand >= self.graph.n)][0])
            raise VertexError(offender, self.graph.n)
        scores = np.ones(cand.size)
        others_idx = np.flatnonzero(cand != self.u)
        if others_idx.size == 0:
            return scores
        others = cand[others_idx]
        values, meetings = self._batch_array(others, samples)
        scores[others_idx] = values
        self.walks_simulated += int(others.size) * samples
        if obs.OBS.enabled:
            obs.record_walk_batch(int(others.size))
            obs.record_walk_bundle(
                walks=int(others.size) * samples,
                steps=int(others.size) * samples * self.config.T,
                meetings=meetings,
            )
        return scores

    def _batch_array(
        self, others: np.ndarray, samples: int
    ) -> Tuple[np.ndarray, int]:
        """Fused kernel: one (B·R)-wide position row stepped T-1 times.

        Per step: one :func:`segment_collisions` against the u-sketch's
        sorted row, then one :meth:`WalkEngine.step_given` with the
        candidates' side-by-side uniform blocks (one
        :func:`keyed_uniforms` call, salt R, key v).  Because uniforms
        are consumed positionally, the fused trajectories are
        bit-identical to :meth:`WalkEngine.walk_matrix_seeded` of each
        candidate alone.
        """
        T, c = self.config.T, self.config.c
        B = int(others.size)
        sketch_u = self.sketch_u
        uniforms = keyed_uniforms(self._batch_seed, samples, others, T - 1, samples)
        positions = np.repeat(others, samples)
        totals = np.zeros(B)
        meetings = 0
        weight = 1.0
        norm = samples * sketch_u.R
        for t in range(T):
            row_vertices, row_counts = sketch_u.row(t)
            segment_mass = segment_collisions(
                positions, row_vertices, row_counts, self.diagonal, samples, B
            )
            terms = segment_mass * (weight / norm)
            totals += terms
            meetings += int(np.count_nonzero(terms > 0.0))
            weight *= c
            if t + 1 < T:
                positions = self.engine.step_given(positions, uniforms[t])
        return totals, meetings

    def estimate_many(
        self, candidates: Sequence[int], R: Optional[int] = None
    ) -> Dict[int, float]:
        """Estimate scores for a batch of candidates (see :meth:`estimate_batch`)."""
        cand = [int(v) for v in candidates]
        scores = self.estimate_batch(cand, R=R)
        return {v: float(score) for v, score in zip(cand, scores)}


@_dataclass
class PairEstimate:
    """A Monte-Carlo score with a batch-means confidence interval."""

    value: float
    stderr: float
    confidence: float
    batches: int

    @property
    def interval(self) -> "tuple[float, float]":
        """(low, high) CI, floored at 0 (scores are nonnegative)."""
        from scipy import stats as _stats

        if self.batches < 2:
            return (self.value, self.value)
        t_crit = float(
            _stats.t.ppf(0.5 + self.confidence / 2.0, df=self.batches - 1)
        )
        half = t_crit * self.stderr
        return (max(0.0, self.value - half), self.value + half)


def single_pair_with_ci(
    graph: CSRGraph,
    u: int,
    v: int,
    config: Optional[SimRankConfig] = None,
    seed: SeedLike = None,
    diagonal: DiagonalLike = None,
    batches: int = 8,
    confidence: float = 0.95,
) -> PairEstimate:
    """Algorithm 1 with a batch-means confidence interval.

    Runs ``batches`` independent replicates of the estimator (each with
    the full ``r_pair`` walk budget) and forms a Student-t interval from
    their spread.  This is the honest way to attach uncertainty: the
    collision statistic's variance has no clean closed form (walks
    within a bundle are dependent through shared positions), but the
    replicates are i.i.d. by construction.
    """
    config = config or SimRankConfig()
    if batches < 2:
        raise ConfigError(f"batches must be >= 2, got {batches}")
    if not 0.0 < confidence < 1.0:
        raise ConfigError(f"confidence must be in (0, 1), got {confidence}")
    if int(u) == int(v):
        if not 0 <= int(u) < graph.n:
            raise VertexError(int(u), graph.n)
        return PairEstimate(1.0, 0.0, confidence, batches)
    replicates = np.array(
        [
            single_pair_simrank(
                graph,
                u,
                v,
                config=config,
                seed=derive_seed(seed, 17, b) if seed is not None else None,
                diagonal=diagonal,
            )
            for b in range(batches)
        ]
    )
    return PairEstimate(
        value=float(replicates.mean()),
        stderr=float(replicates.std(ddof=1) / math.sqrt(batches)),
        confidence=confidence,
        batches=batches,
    )


def single_source_simrank(
    graph: CSRGraph,
    u: int,
    candidates: Optional[Sequence[int]] = None,
    config: Optional[SimRankConfig] = None,
    seed: SeedLike = None,
    diagonal: DiagonalLike = None,
) -> Dict[int, float]:
    """Monte-Carlo single-source scores for ``candidates`` (default: all).

    This is the brute-force single-source path (no index, no pruning);
    the engine's query phase beats it by only touching candidates that
    survive the bounds — the comparison is one of the ablation benches.
    """
    estimator = SingleSourceEstimator(graph, u, config=config, seed=seed, diagonal=diagonal)
    if candidates is None:
        candidates = [v for v in range(graph.n) if v != u]
    return estimator.estimate_many(candidates)
