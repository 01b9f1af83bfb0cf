"""The linear recursive formulation of SimRank (Section 3).

The paper replaces the non-linear recursion ``S = (c P^T S P) ∨ I`` with

    S = c P^T S P + D                                            (eq. 5)

for a *diagonal correction matrix* D, which unrolls into the series

    S = D + c P^T D P + c^2 (P^2)^T D P^2 + ...                  (eq. 7)

Truncating after T terms gives s^(T)(u, v) with error at most
``c^T / (1 - c)`` (eq. 10).  This module evaluates the truncated series
*deterministically*:

- :func:`single_pair_series` — O(T m) time, O(n) space; the paper notes
  this is already the first linear-time/linear-space single-pair
  algorithm (Section 4, first paragraph);
- :func:`single_source_series` — all of ``s^(T)(u, ·)`` in O(T m) via a
  forward pass computing ``x_t = P^t e_u`` and a Horner-style backward
  pass through ``P^T``;
- :func:`all_pairs_series` — dense fixed point, ground truth for tests.

The Monte-Carlo estimators in :mod:`repro.core.montecarlo` approximate
exactly these quantities.
"""

from __future__ import annotations

from typing import List, Optional, Union

import math

import numpy as np
import scipy.sparse as sp

from repro.errors import ConfigError, VertexError
from repro.graph.csr import CSRGraph


__all__ = [
    "DiagonalLike",
    "resolve_diagonal",
    "truncation_error_bound",
    "series_length_for_accuracy",
    "single_pair_series",
    "single_source_series",
    "all_pairs_series",
    "linear_residual",
]
DiagonalLike = Union[None, float, np.ndarray]


def resolve_diagonal(graph_n: int, c: float, diagonal: DiagonalLike) -> np.ndarray:
    """Normalize a diagonal-correction argument to a length-n vector.

    ``None`` selects the paper's working approximation ``D = (1 - c) I``
    (Section 3.3); a scalar broadcasts; an array is validated and copied,
    unless it is a read-only float64 vector: that one is passed through
    uncopied, so an engine's (read-only) diagonal reaches every
    estimator a query builds without an O(n) copy.
    """
    if diagonal is None:
        return np.full(graph_n, 1.0 - c, dtype=np.float64)
    if np.isscalar(diagonal):
        return np.full(graph_n, float(diagonal), dtype=np.float64)
    vector = np.asarray(diagonal, dtype=np.float64)
    if vector.shape != (graph_n,):
        raise ConfigError(
            f"diagonal must have shape ({graph_n},), got {vector.shape}"
        )
    return vector if not vector.flags.writeable else vector.copy()


def truncation_error_bound(c: float, T: int) -> float:
    """Right-hand side of eq. (10): ``c^T / (1 - c)``."""
    if not 0.0 < c < 1.0:
        raise ConfigError(f"c must be in (0, 1), got {c}")
    if T < 0:
        raise ConfigError(f"T must be nonnegative, got {T}")
    return c**T / (1.0 - c)


def series_length_for_accuracy(c: float, epsilon: float) -> int:
    """Smallest T with truncation error below ``epsilon`` (Section 3.2)."""
    if not 0.0 < c < 1.0:
        raise ConfigError(f"c must be in (0, 1), got {c}")
    if not 0.0 < epsilon < 1.0:
        raise ConfigError(f"epsilon must be in (0, 1), got {epsilon}")
    return max(1, math.ceil(math.log(epsilon * (1.0 - c)) / math.log(c)))


def _check_vertex(graph: CSRGraph, vertex: int) -> int:
    vertex = int(vertex)
    if not 0 <= vertex < graph.n:
        raise VertexError(vertex, graph.n)
    return vertex


def single_pair_series(
    graph: CSRGraph,
    u: int,
    v: int,
    c: float = 0.6,
    T: int = 11,
    diagonal: DiagonalLike = None,
    transition: Optional[sp.csr_matrix] = None,
) -> float:
    """Deterministic s^(T)(u, v) from eq. (9): Σ_t c^t (P^t e_u)^T D (P^t e_v).

    O(T m) time and O(n) space.  Note that with the approximate
    ``D = (1 - c) I`` the value is the paper's *approximate SimRank*
    (scores scale, rankings survive — Figure 1); with the exact D it is
    the exact truncated SimRank.
    """
    u = _check_vertex(graph, u)
    v = _check_vertex(graph, v)
    d = resolve_diagonal(graph.n, c, diagonal)
    P = transition if transition is not None else graph.transition_matrix()
    x = np.zeros(graph.n)
    y = np.zeros(graph.n)
    x[u] = 1.0
    y[v] = 1.0
    total = 0.0
    weight = 1.0
    for _ in range(T):
        total += weight * float(np.dot(x * d, y))
        x = P @ x
        y = P @ y
        weight *= c
    return total


def single_source_series(
    graph: CSRGraph,
    u: int,
    c: float = 0.6,
    T: int = 11,
    diagonal: DiagonalLike = None,
    transition: Optional[sp.csr_matrix] = None,
) -> np.ndarray:
    """Deterministic single-source vector ``s^(T)(u, ·)`` in O(T m).

    Forward pass: ``x_t = P^t e_u`` for t < T.  Backward Horner pass:
    with ``w_t = D x_t``, the answer ``Σ_t c^t (P^T)^t w_t`` is folded as
    ``z ← w_t + c P^T z`` from t = T-1 down to 0.  This is the Section 3.2
    method specialised to one source and is used as the deterministic
    reference the Monte-Carlo query must match.
    """
    u = _check_vertex(graph, u)
    d = resolve_diagonal(graph.n, c, diagonal)
    P = transition if transition is not None else graph.transition_matrix()
    PT = P.T.tocsr()
    forward: List[np.ndarray] = []
    x = np.zeros(graph.n)
    x[u] = 1.0
    for _ in range(T):
        forward.append(x)
        x = P @ x
    z = np.zeros(graph.n)
    for t in range(T - 1, -1, -1):
        z = d * forward[t] + c * (PT @ z)
    return z


def all_pairs_series(
    graph: CSRGraph,
    c: float = 0.6,
    T: int = 11,
    diagonal: DiagonalLike = None,
) -> np.ndarray:
    """Dense truncated series S^(T) = Σ_{t<T} c^t (P^t)^T D P^t.

    Materialises an n×n matrix — only for ground truth on small graphs.
    Computed by the fixed-point recurrence S_{k+1} = D + c P^T S_k P,
    which reproduces the truncated series after T iterations starting
    from S_0 = D (each iteration appends one higher-order term).
    """
    d = resolve_diagonal(graph.n, c, diagonal)
    P = graph.transition_matrix()
    D = np.diag(d)
    S = D.copy()
    for _ in range(T - 1):
        S = D + c * (P.T @ (P.T @ S.T).T)
    return S


def linear_residual(
    graph: CSRGraph,
    S: np.ndarray,
    c: float,
    diagonal: DiagonalLike = None,
) -> float:
    """Max-norm residual ``||S - (c P^T S P + D)||_inf`` of eq. (5).

    A converged SimRank matrix with its true diagonal correction has
    residual ~0; used by tests to certify fixed points.
    """
    d = resolve_diagonal(graph.n, c, diagonal)
    P = graph.transition_matrix()
    reconstructed = np.diag(d) + c * (P.T @ (P.T @ S.T).T)
    return float(np.abs(S - reconstructed).max())
