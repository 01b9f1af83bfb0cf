"""`SimRankEngine` — the public façade of the library.

Ties the two phases of the paper together:

>>> from repro.graph.generators import copying_web_graph
>>> from repro.core import SimRankEngine, SimRankConfig
>>> graph = copying_web_graph(300, seed=7)
>>> engine = SimRankEngine(graph, SimRankConfig.fast(), seed=7).preprocess()
>>> result = engine.top_k(5, k=10)
>>> len(result) <= 10
True

The engine owns the preprocess artefact (:class:`CandidateIndex`), seeds
every query deterministically from its base seed, and exposes the
single-pair / single-source / all-vertices entry points of Section 2.
"""

from __future__ import annotations

import copy
import time
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Union

import numpy as np

from repro.errors import IndexNotBuiltError, VertexError
from repro.graph.csr import CSRGraph
from repro.core.config import SimRankConfig
from repro.core.index import CandidateIndex, build_index
from repro.core.linear import (
    DiagonalLike,
    resolve_diagonal,
    single_pair_series,
    single_source_series,
)
from repro.core.montecarlo import single_pair_simrank
from repro.core.query import TopKResult, top_k_query
from repro.obs import instrument as obs
from repro.utils.rng import SeedLike, derive_seed

if TYPE_CHECKING:  # scipy is an optional runtime import (see _get_transition)
    import scipy.sparse as sp

__all__ = ["SimRankEngine"]


class SimRankEngine:
    """Top-k SimRank similarity search over one graph.

    Parameters
    ----------
    graph:
        The (frozen) graph to search.
    config:
        Algorithm parameters; defaults to the paper's Section 8 values.
    diagonal:
        Diagonal correction matrix as ``None`` (the paper's (1-c)I
        approximation), a scalar, or a per-vertex vector (e.g. from
        :func:`repro.core.diagonal.estimate_diagonal_mc` — Remark 1 notes
        a better D sharpens scores without changing the machinery).
    seed:
        Base seed; all preprocessing and every query derive their own
        deterministic child seed from it.
    """

    def __init__(
        self,
        graph: CSRGraph,
        config: Optional[SimRankConfig] = None,
        diagonal: DiagonalLike = None,
        seed: SeedLike = None,
    ) -> None:
        self.graph = graph
        self.config = config or SimRankConfig()
        self.diagonal = _read_only(resolve_diagonal(graph.n, self.config.c, diagonal))
        self._seed = seed
        self._index: Optional[CandidateIndex] = None
        self._transition: Optional["sp.csr_matrix"] = None
        self.preprocess_seconds: float = 0.0

    @classmethod
    def with_estimated_diagonal(
        cls,
        graph: CSRGraph,
        config: Optional[SimRankConfig] = None,
        seed: SeedLike = None,
        diagonal_walks: int = 100,
    ) -> "SimRankEngine":
        """Engine with a Monte-Carlo-estimated diagonal correction D.

        Remark 1 of the paper: the method does not depend on the
        D ≈ (1-c)I approximation — a better D makes the *scores* more
        accurate without touching the machinery.  This constructor runs
        :func:`repro.core.diagonal.estimate_diagonal_mc` (O(n·R·T)
        sampling) and threads the result through every estimator and
        bound.
        """
        from repro.core.diagonal import estimate_diagonal_mc

        config = config or SimRankConfig()
        estimated = estimate_diagonal_mc(
            graph,
            c=config.c,
            T=config.T,
            R=diagonal_walks,
            seed=derive_seed(seed, 23),
        )
        return cls(graph, config, diagonal=estimated, seed=seed)

    # ------------------------------------------------------------------
    # Preprocess phase
    # ------------------------------------------------------------------

    def preprocess(self) -> "SimRankEngine":
        """Run the §7.1 preprocess (Algorithm 4 + Algorithm 3); returns self."""
        start = time.perf_counter()
        with obs.trace("preprocess.build_index", n=self.graph.n, m=self.graph.m):
            self._index = build_index(
                self.graph, self.config, seed=derive_seed(self._seed, 7)
            )
        self.preprocess_seconds = time.perf_counter() - start
        return self

    @property
    def seed(self) -> SeedLike:
        """The base seed every preprocess/query stream derives from.

        Exposed so coordinating layers (:mod:`repro.shard`) can replay
        the exact per-query seed derivations — ``derive_seed(seed, 11, u)``
        for top-k, ``derive_seed(seed, 13, u, v)`` for single-pair — in
        another process and land on bit-identical walk streams.
        """
        return self._seed

    @property
    def index(self) -> CandidateIndex:
        """The preprocess artefact; raises if :meth:`preprocess` has not run."""
        if self._index is None:
            raise IndexNotBuiltError("call preprocess() before querying")
        return self._index

    @property
    def is_preprocessed(self) -> bool:
        """Whether the candidate index has been built (or loaded)."""
        return self._index is not None

    def index_nbytes(self) -> int:
        """Size of the preprocess index in (packed-payload) bytes."""
        return self.index.nbytes()

    def save_index(self, path: Union[str, Path]) -> None:
        """Persist the candidate index for later :meth:`load_index`."""
        self.index.save(path)

    def with_config(self, **overrides: object) -> "SimRankEngine":
        """A zero-copy engine view with query-time config fields replaced.

        Shares the graph, the preprocessed index, the diagonal, and the
        seed with this engine — only the :class:`SimRankConfig` changes,
        so the view costs one shallow copy.  Restricted to fields that
        do **not** invalidate the preprocess artefact (the walk budgets,
        the θ threshold, the screen/refine split, and the answer size);
        anything structural (``c``, ``T``, ``index_walks``, ...) needs a
        fresh engine and a rebuild.

        This is how the serve layer applies live tunables: the handle
        republishes a snapshot around a view instead of mutating the
        (shared, possibly concurrently-read) engine in place.
        """
        allowed = {"r_pair", "r_screen", "theta", "screen_slack", "k"}
        illegal = set(overrides) - allowed
        if illegal:
            raise ValueError(
                f"with_config can only replace query-time fields {sorted(allowed)}; "
                f"got {sorted(illegal)} (rebuild the engine for structural changes)"
            )
        view = copy.copy(self)
        view.config = self.config.with_(**overrides)
        return view

    def load_index(self, path: Union[str, Path]) -> "SimRankEngine":
        """Load a previously saved index (replaces config with the saved one).

        Refuses an index whose vertex count does not match this engine's
        graph — answering queries against the wrong graph's signatures
        would be silently wrong, the worst failure mode.
        """
        from repro.errors import SerializationError

        loaded = CandidateIndex.load(path)
        if loaded.n != self.graph.n:
            raise SerializationError(
                f"index at {path} covers {loaded.n} vertices but the graph "
                f"has {self.graph.n} — it was built for a different graph"
            )
        self._index = loaded
        self.config = loaded.config
        self.diagonal = _read_only(resolve_diagonal(self.graph.n, self.config.c, None))
        if obs.OBS.enabled:
            obs.record_index(loaded)
        return self

    # ------------------------------------------------------------------
    # Query phase
    # ------------------------------------------------------------------

    def top_k(
        self,
        u: int,
        k: Optional[int] = None,
        use_l1: bool = True,
        use_l2: bool = True,
        adaptive: bool = True,
        extra_candidates: Optional[Iterable[int]] = None,
    ) -> TopKResult:
        """Problem 1: the k most SimRank-similar vertices to ``u``.

        The ``use_l1`` / ``use_l2`` / ``adaptive`` flags exist for the
        ablation experiments; leave them on for the paper's algorithm.
        ``extra_candidates`` lets callers merge domain knowledge (e.g. a
        co-citation candidate set) into the index's candidate list.
        """
        with obs.trace("query.topk", u=u):
            return top_k_query(
                self.graph,
                self.index,
                u,
                k=k,
                config=self.config,
                seed=derive_seed(self._seed, 11, u),
                diagonal=self.diagonal,
                use_l1=use_l1,
                use_l2=use_l2,
                adaptive=adaptive,
                extra_candidates=list(extra_candidates)
                if extra_candidates is not None
                else None,
            )

    def top_k_all(
        self,
        k: Optional[int] = None,
        vertices: Optional[Iterable[int]] = None,
    ) -> Dict[int, TopKResult]:
        """The all-vertices mode of §2.2: run the search for every vertex.

        O(k n) output space; embarrassingly parallel in the paper (the
        M-machine remark) — here a simple deterministic loop.  See
        :meth:`top_k_all_parallel` for the multi-process version.
        """
        targets = list(vertices) if vertices is not None else range(self.graph.n)
        return {int(u): self.top_k(int(u), k=k) for u in targets}

    def top_k_all_parallel(
        self,
        k: Optional[int] = None,
        vertices: Optional[Iterable[int]] = None,
        workers: Optional[int] = None,
    ) -> Dict[int, List]:
        """§2.2's M-machine claim on one machine: a process-pool sweep.

        Returns ``{u: [(v, score), ...]}`` — exactly the item lists the
        sequential :meth:`top_k_all` produces (identical derived seeds),
        at roughly ``1/workers`` of the wall clock.  Requires an integer
        (or None) base seed so every worker derives the same per-vertex
        streams.
        """
        from repro.core.parallel import top_k_all_parallel

        if self._seed is not None and not isinstance(self._seed, int):
            raise ValueError(
                "top_k_all_parallel needs an integer (or None) engine seed"
            )
        return top_k_all_parallel(
            self.graph,
            self.index,
            self.config,
            self.diagonal,
            seed=self._seed,
            k=k,
            vertices=vertices,
            workers=workers,
        )

    # ------------------------------------------------------------------
    # Point estimates
    # ------------------------------------------------------------------

    def single_pair(self, u: int, v: int, method: str = "montecarlo") -> float:
        """s^(T)(u, v) by Monte-Carlo (Algorithm 1) or the deterministic series.

        ``method`` is ``"montecarlo"`` (O(TR), size-independent) or
        ``"deterministic"`` (O(Tm), exact given D).  ``s(u, u)`` is 1 by
        the SimRank definition under either method (the raw series
        diagonal is the approximate-D value; the definition overrides).
        """
        if method not in ("montecarlo", "deterministic"):
            raise ValueError(
                f"unknown method {method!r}; use 'montecarlo' or 'deterministic'"
            )
        if int(u) == int(v):
            if not 0 <= int(u) < self.graph.n:
                raise VertexError(int(u), self.graph.n)
            return 1.0
        if method == "montecarlo":
            return single_pair_simrank(
                self.graph,
                u,
                v,
                config=self.config,
                seed=derive_seed(self._seed, 13, u, v),
                diagonal=self.diagonal,
            )
        return single_pair_series(
            self.graph,
            u,
            v,
            c=self.config.c,
            T=self.config.T,
            diagonal=self.diagonal,
            transition=self._get_transition(),
        )

    def single_source(self, u: int) -> np.ndarray:
        """Deterministic single-source vector s^(T)(u, ·) in O(Tm) (§3.2)."""
        return single_source_series(
            self.graph,
            u,
            c=self.config.c,
            T=self.config.T,
            diagonal=self.diagonal,
            transition=self._get_transition(),
        )

    def _get_transition(self) -> "sp.csr_matrix":
        if self._transition is None:
            self._transition = self.graph.transition_matrix()
        return self._transition

    def __repr__(self) -> str:
        state = "preprocessed" if self._index is not None else "not preprocessed"
        return (
            f"SimRankEngine(n={self.graph.n}, m={self.graph.m}, "
            f"c={self.config.c}, T={self.config.T}, {state})"
        )


def _read_only(diagonal: np.ndarray) -> np.ndarray:
    """The engine's diagonal, frozen: every query shares it uncopied."""
    diagonal.setflags(write=False)
    return diagonal
