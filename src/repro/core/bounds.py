"""Distance-dependent upper bounds on SimRank (Section 6).

Both bounds dominate every term of the truncated series
``s^(T)(u, v) = Σ_t c^t (P^t e_u)^T D (P^t e_v)`` and are estimated by
Monte-Carlo walk bundles:

**L1 bound** (§6.1, Algorithm 2).  For a stochastic y,
``x^T D y ≤ max_{w ∈ supp(y)} x^T D e_w``; since ``supp(P^t e_v)`` lies
within t reverse steps of v, any w there has distance from u in
``[d-t, d+t]`` when d(u, v) = d.  With

    α(u, d, t) = max_{d(u,w)=d} D_ww P{u^(t) = w},
    β(u, d)    = Σ_t c^t max_{d-t ≤ d' ≤ d+t} α(u, d', t),

Proposition 4 gives ``s^(T)(u, v) ≤ β(u, d(u, v))``.  Tight when the
query vertex has *low* degree (``P^t e_u`` stays concentrated).

**L2 bound** (§6.2, Algorithm 3).  Cauchy–Schwarz with
``γ(u, t) = ||√D P^t e_u||`` gives (Proposition 6)

    s^(T)(u, v) ≤ Σ_t c^t γ(u, t) γ(v, t).

Tight when the query vertex has *high* degree (the walk distribution
flattens, so its 2-norm collapses).  γ is precomputed for every vertex
during preprocessing; α/β are computed per query (§7.1).  Vertex u's γ
walks run on the uniform block :func:`~repro.utils.rng.keyed_uniforms`
keys by ``(seed, 31, u)``, so a row is the same whether it is built
alone, in a subset repair, or in the full table.

A note on soundness: the ``d' ≥ d - t`` restriction uses the triangle
inequality symmetrically, which holds for the symmetrised distance.  On
asymmetric digraphs pass ``symmetric_distance=False`` to widen the
window to ``[0, d + t]`` (still a valid bound, slightly looser).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigError, VertexError
from repro.graph.csr import CSRGraph
from repro.graph.traversal import UNREACHABLE, bfs_distances
from repro.core.config import SimRankConfig
from repro.core.linear import DiagonalLike, resolve_diagonal
from repro.core.walks import FlatSketch, WalkEngine, segment_self_collisions
from repro.utils.contracts import contract
from repro.utils.rng import SeedLike, ensure_rng, keyed_uniforms, root_seed


__all__ = [
    "trivial_bound",
    "paper_trivial_bound",
    "L1Bound",
    "compute_alpha_beta",
    "GammaTable",
    "compute_gamma",
    "compute_gamma_rows",
    "compute_gamma_all",
    "combined_upper_bound",
]
def trivial_bound(c: float, d: int) -> float:
    """Sound distance bound ``c^{ceil(d/2)}`` from the surfer-pair model.

    Two reverse walks meeting at time τ satisfy 2τ ≥ d_sym(u, v), so
    ``s(u, v) = E[c^τ] ≤ c^{⌈d/2⌉}``.  (The paper quotes the looser
    ``c^d`` in passing — see :func:`paper_trivial_bound` — only to argue
    that distance-only bounds need sharpening.)
    """
    if not 0.0 < c < 1.0:
        raise ConfigError(f"c must be in (0, 1), got {c}")
    if d < 0:
        raise ConfigError(f"distance must be nonnegative, got {d}")
    return c ** math.ceil(d / 2)


def paper_trivial_bound(c: float, d: int) -> float:
    """The ``s(u, v) ≤ c^d`` figure quoted at the top of Section 6."""
    if not 0.0 < c < 1.0:
        raise ConfigError(f"c must be in (0, 1), got {c}")
    if d < 0:
        raise ConfigError(f"distance must be nonnegative, got {d}")
    return c**d


@dataclass
class L1Bound:
    """β(u, ·) table for one query vertex (output of Algorithm 2)."""

    u: int
    c: float
    d_max: int
    alpha: np.ndarray  # (d_max + 1, T)
    beta: np.ndarray  # (d_max + 1,)

    def bound(self, d: int) -> float:
        """Upper bound on s^(T)(u, v) for a vertex at distance ``d``.

        Distances beyond ``d_max`` clamp to the last (smallest-support)
        entry; by then the search has already stopped on the threshold.
        """
        if d < 0:
            raise ConfigError(f"distance must be nonnegative, got {d}")
        return float(self.beta[min(d, self.d_max)])


def compute_alpha_beta(
    graph: CSRGraph,
    u: int,
    config: Optional[SimRankConfig] = None,
    seed: SeedLike = None,
    diagonal: DiagonalLike = None,
    distances: Optional[np.ndarray] = None,
    symmetric_distance: bool = True,
) -> L1Bound:
    """Algorithm 2: Monte-Carlo α(u, d, t) and β(u, d).

    ``distances`` may carry a precomputed BFS distance array from u
    (the query phase passes its undirected one); otherwise an in-BFS
    is computed here.
    Concentration: Proposition 5 / Corollary 2.
    """
    config = config or SimRankConfig()
    if not 0 <= u < graph.n:
        raise VertexError(u, graph.n)
    d_vec = resolve_diagonal(graph.n, config.c, diagonal)
    if distances is None:
        distances = bfs_distances(graph, u, direction="in", max_distance=config.effective_d_max + config.T)
    d_max = config.effective_d_max
    T = config.T
    R = config.r_alphabeta
    engine = WalkEngine(graph, ensure_rng(seed))
    sketch = FlatSketch(engine.walk_matrix(u, R, T))

    alpha = np.zeros((d_max + 1, T))
    for t in range(T):
        vertices, counts = sketch.row(t)
        if vertices.size == 0:
            continue
        values = d_vec[vertices] * counts / R
        dist_of = distances[vertices]
        valid = (dist_of != UNREACHABLE) & (dist_of <= d_max)
        if valid.any():
            np.maximum.at(alpha[:, t], dist_of[valid], values[valid])

    # Row d of ``offset`` holds d' - d; step t's window is the d' with
    # -t <= d' - d <= t (only the upper side when asymmetric).  Entries
    # outside it read 0, which leaves each max unchanged since α >= 0.
    beta = np.zeros(d_max + 1)
    weights = config.c ** np.arange(T)
    levels = np.arange(d_max + 1, dtype=np.int64)
    offset = levels[None, :] - levels[:, None]
    for t in range(T):
        window = offset <= t
        if symmetric_distance:
            window &= offset >= -t
        beta += weights[t] * np.where(window, alpha[:, t], 0.0).max(axis=1)
    return L1Bound(u=u, c=config.c, d_max=d_max, alpha=alpha, beta=beta)


@dataclass
class GammaTable:
    """γ(·, t) for every vertex (output of Algorithm 3, the L2 bound data).

    ``values`` has shape (n, T); ``weights`` caches c^t so the pairwise
    bound is a dot product.
    """

    c: float
    values: np.ndarray

    def __post_init__(self) -> None:
        self.weights = self.c ** np.arange(self.values.shape[1])

    @property
    def n(self) -> int:
        """Number of vertices covered."""
        return self.values.shape[0]

    @property
    def T(self) -> int:
        """Number of walk steps covered."""
        return self.values.shape[1]

    def bound(self, u: int, v: int) -> float:
        """Proposition 6: s^(T)(u, v) ≤ Σ_t c^t γ(u, t) γ(v, t).

        For u ≠ v the t = 0 term of the series is exactly zero
        (``e_u^T D e_v = 0``), so the sum soundly starts at t = 1 — the
        naive t = 0 term ``γ(u,0)γ(v,0) ≈ (1-c)`` would otherwise put a
        floor of 1-c under every bound and make the L2 prune vacuous.
        """
        start = 0 if u == v else 1
        products = self.values[u] * self.values[v]
        return float(np.dot(self.weights[start:], products[start:]))

    def bound_many(self, u: int, candidates: np.ndarray) -> np.ndarray:
        """Vectorised L2 bounds of ``u`` against candidates (all ≠ u)."""
        weighted = self.values[u] * self.weights
        return (self.values[candidates][:, 1:] * weighted[1:]).sum(axis=1)

    def nbytes(self) -> int:
        """Payload bytes of the table (part of the preprocess index size)."""
        return int(self.values.nbytes)


@contract(returns="float64[1d]")
def compute_gamma(
    graph: CSRGraph,
    u: int,
    config: Optional[SimRankConfig] = None,
    seed: SeedLike = None,
    diagonal: DiagonalLike = None,
) -> np.ndarray:
    """Algorithm 3 for a single vertex: γ(u, t) for t = 0..T-1.

    Concentration: Proposition 7 / Corollary 3.  Delegates to
    :func:`compute_gamma_rows` so a standalone call draws the exact
    per-vertex stream the batched preprocess would.
    """
    config = config or SimRankConfig()
    if not 0 <= u < graph.n:
        raise VertexError(u, graph.n)
    return compute_gamma_rows(graph, [u], config=config, seed=seed,
                              diagonal=diagonal)[0]


def compute_gamma_rows(
    graph: CSRGraph,
    vertices: "Sequence[int] | np.ndarray | range",
    config: Optional[SimRankConfig] = None,
    seed: SeedLike = None,
    diagonal: DiagonalLike = None,
) -> np.ndarray:
    """Algorithm 3 rows for an arbitrary vertex subset, shape (len, T).

    Vertex u's walks draw the uniform block
    ``keyed_uniforms(seed, 31, [u], …)``, consumed positionally via
    :meth:`~repro.core.walks.WalkEngine.step_given`, so the row computed
    for ``u`` is a pure function of ``(graph, config, seed, u)`` — a
    subset recomputation (the dynamic engine's flush repair) is
    bit-identical to the corresponding rows of a full-table build.
    Vertices are processed in fixed-size blocks purely for memory
    locality; block composition cannot affect the numbers.
    """
    config = config or SimRankConfig()
    vertex_array = np.asarray(
        vertices if isinstance(vertices, np.ndarray) else list(vertices),
        dtype=np.int64,
    )
    if vertex_array.size and (
        vertex_array.min() < 0 or vertex_array.max() >= graph.n
    ):
        offender = int(vertex_array[(vertex_array < 0) | (vertex_array >= graph.n)][0])
        raise VertexError(offender, graph.n)
    d_vec = resolve_diagonal(graph.n, config.c, diagonal)
    R, T = config.r_gamma, config.T
    base_seed = root_seed(seed)
    engine = WalkEngine(graph)
    rows = np.zeros((len(vertex_array), T))
    block_size = max(1, 16384 // max(1, R))
    for start in range(0, len(vertex_array), block_size):
        block = vertex_array[start : start + block_size]
        width = len(block)
        positions = np.repeat(block, R)
        segments = np.repeat(np.arange(width, dtype=np.int64), R)
        uniforms = keyed_uniforms(base_seed, 31, block, T - 1, R)
        for t in range(T):
            sums = segment_self_collisions(positions, segments, d_vec, R, width)
            rows[start : start + width, t] = np.sqrt(sums)
            if t + 1 < T:
                positions = engine.step_given(positions, uniforms[t])
    return rows


def compute_gamma_all(
    graph: CSRGraph,
    config: Optional[SimRankConfig] = None,
    seed: SeedLike = None,
    diagonal: DiagonalLike = None,
) -> GammaTable:
    """Algorithm 3 batched over every vertex (the preprocess step of §7.1).

    Runs walks as flat position arrays and reduces occupation counts per
    (source, vertex) key with one
    :func:`~repro.core.walks.segment_self_collisions` pass per step —
    O(n R log(nR)) per step but fully vectorised, which is what makes
    O(n)-style preprocessing practical in Python.  Draws come from
    per-vertex keyed uniform blocks (see :func:`compute_gamma_rows`) so the
    dynamic engine can recompute any affected subset and land on the
    same bits as this full build.
    """
    config = config or SimRankConfig()
    return GammaTable(
        c=config.c,
        values=compute_gamma_rows(
            graph, range(graph.n), config=config, seed=seed, diagonal=diagonal
        ),
    )


def combined_upper_bound(
    l1: L1Bound,
    gamma: GammaTable,
    v: int,
    d: int,
    c: float,
) -> float:
    """min(L1, L2, trivial) — the pruning value used by the query phase."""
    return min(l1.bound(d), gamma.bound(l1.u, v), trivial_bound(c, d))
