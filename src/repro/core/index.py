"""Preprocessing: the candidate bipartite graph H and the γ table (§7.1).

Algorithm 4 builds, for every vertex u, a small set of "signature"
vertices: repeat P times — run one walk W₀ of length T from u plus Q
confirmation walks W₁..W_Q, and record the step-t vertex of W₀ whenever
the confirmation walks show that position is *frequently* reached.  The
paper states this rule twice, slightly differently:

- the §7.1 **text** rule: record v = W₀[t] if at least two of W₁..W_Q
  are also at v at step t (default here);
- the **Algorithm 4 pseudocode** rule: record W₀[t] whenever any two
  confirmation walks collide at step t (selectable via
  ``candidate_rule="pseudocode"``).

H is stored as a :class:`~repro.graph.csr.CSRGraph` with an edge
u → w for each signature vertex w of u: out-row u is u's signature
set and in-row w is w's posting list.  Vertices u and v become mutual
candidates when their signature sets intersect — two hops u → w ← v,
so candidate enumeration is a union of short in-rows.  Total index
space is O(nP) plus the O(nT) γ table, the paper's "small space" claim.
H's arrays are read-only; a changed index is a new one
(:meth:`CandidateIndex.with_rows`), never a patched one.  Algorithm 4
runs as one fused walk matrix per block of vertices, vertex u's walks on
the stream :func:`~repro.utils.rng.stream_keys` keys by
``(seed, 29, u)``; the tests keep a per-vertex builder as its
equivalence oracle.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.errors import GraphFormatError, SerializationError, VertexError
from repro.graph.csr import CSRGraph
from repro.core.bounds import GammaTable, compute_gamma_all
from repro.core.config import SimRankConfig
from repro.core.walks import DEAD, WalkEngine
from repro.obs import instrument as obs
from repro.utils.rng import SeedLike, derive_seed, root_seed, stream_keys


__all__ = [
    "INDEX_FORMAT_VERSION",
    "CandidateIndex",
    "signature_for_vertex",
    "build_signatures",
    "build_index",
]
INDEX_FORMAT_VERSION = 1


@dataclass(frozen=True)
class CandidateIndex:
    """The preprocess artefact: the candidate graph H plus the γ table."""

    config: SimRankConfig
    H: CSRGraph
    gamma: GammaTable
    build_seconds: float = 0.0

    def __post_init__(self) -> None:
        # H's arrays are read-only already; γ joins them, so a snapshot
        # cannot be patched in place.
        self.gamma.values.setflags(write=False)

    @property
    def n(self) -> int:
        """Number of vertices covered."""
        return self.H.n

    def candidates(self, u: int, include_self: bool = False) -> List[int]:
        """All v whose signature set intersects u's (sorted, deduplicated).

        This is line 2 of Algorithm 5: S = {v | δ_H(u_left) ∩ δ_H(v_left) ≠ ∅}.
        """
        if not 0 <= u < self.n:
            raise VertexError(u, self.n)
        indptr, indices = self.H.in_indptr, self.H.in_indices
        found: Set[int] = set()
        for w in self.H.out_neighbors(u).tolist():
            found.update(indices[indptr[w] : indptr[w + 1]].tolist())
        if not include_self:
            found.discard(u)
        return sorted(found)

    def with_rows(
        self,
        rows: Sequence[int],
        signatures: Sequence[Iterable[int]],
        gamma_rows: np.ndarray,
        n: Optional[int] = None,
    ) -> "CandidateIndex":
        """A new index with the signature and γ rows of ``rows`` replaced.

        The incremental-maintenance path, shared by the in-process flush
        and the shard delta: each row is diffed against H, the diff goes
        through :meth:`CSRGraph.apply_delta` (bit-identical to a full
        rebuild), and γ rows are assigned into a fresh array.  ``n``
        grows the vertex set; grown vertices must be among ``rows``.
        This index is left untouched.
        """
        n_new = self.n if n is None else int(n)
        adds: List[Tuple[int, int]] = []
        removes: List[Tuple[int, int]] = []
        for u, signature in zip(rows, signatures):
            old = set(self.H.out_neighbors(u).tolist()) if u < self.n else set()
            new = {int(w) for w in signature}
            adds.extend((u, w) for w in sorted(new - old))
            removes.extend((u, w) for w in sorted(old - new))
        values = np.zeros((n_new, self.gamma.T))
        values[: self.n] = self.gamma.values
        if len(rows):
            values[np.asarray(rows, dtype=np.int64)] = gamma_rows
        return CandidateIndex(
            config=self.config,
            H=self.H.apply_delta(adds, removes, n=n_new),
            gamma=GammaTable(c=self.config.c, values=values),
            build_seconds=self.build_seconds,
        )

    def signature_size_stats(self) -> Dict[str, float]:
        """Mean/max signature-set sizes — diagnostic for index quality."""
        sizes = self.H.out_degrees.astype(np.float64)
        if sizes.size == 0:
            return {"mean": 0.0, "max": 0.0, "empty_fraction": 1.0}
        return {
            "mean": float(sizes.mean()),
            "max": float(sizes.max()),
            "empty_fraction": float((sizes == 0).mean()),
        }

    def nbytes(self) -> int:
        """Index payload bytes: signatures + posting lists + γ table.

        Counted as packed int64/float64 payloads (see
        :mod:`repro.utils.memory`) so comparisons against the baselines'
        O(nR'T) and O(n^2) indexes reflect algorithmic space.
        """
        edges = self.H.out_indices.nbytes + self.H.in_indices.nbytes
        return int(edges) + self.gamma.nbytes()

    # ------------------------------------------------------------------
    # Zero-copy buffer export / attach
    # ------------------------------------------------------------------

    def to_buffers(self) -> Dict[str, np.ndarray]:
        """H's four CSR arrays plus ``gamma``, all live (no copies).

        The inverse of :meth:`from_buffers`; together they form the
        shared-memory transport contract of :mod:`repro.shard`.
        """
        return {**self.H.to_buffers(), "gamma": self.gamma.values}

    @classmethod
    def from_buffers(
        cls,
        config: SimRankConfig,
        n: int,
        buffers: Dict[str, np.ndarray],
        build_seconds: float = 0.0,
    ) -> "CandidateIndex":
        """Reconstruct a queryable index over existing arrays, copying none.

        This is how shard workers answer queries out of a shared-memory
        segment owned by another process.
        """
        try:
            return cls(
                config=config,
                H=CSRGraph.from_buffers(n, buffers),
                gamma=GammaTable(c=config.c, values=buffers["gamma"]),
                build_seconds=build_seconds,
            )
        except KeyError as exc:
            raise SerializationError(
                f"index buffer set is missing array {exc}"
            ) from exc
        except GraphFormatError as exc:
            raise SerializationError(f"index buffers are inconsistent: {exc}") from exc

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        """Persist to a .npz alongside a JSON config sidecar payload."""
        meta = {
            "version": INDEX_FORMAT_VERSION,
            "n": self.n,
            "build_seconds": self.build_seconds,
            "config": self.config.to_dict(),
        }
        np.savez_compressed(
            Path(path),
            meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
            signatures=self.H.out_indices,
            signature_offsets=self.H.out_indptr,
            gamma=self.gamma.values,
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CandidateIndex":
        """Load an index written by :meth:`save`; H's in-rows are rebuilt.

        Every failure mode — unreadable file, truncated archive, wrong
        format version, missing arrays, internally inconsistent
        offsets, signature vertices or γ table — raises
        :class:`~repro.errors.SerializationError` with a message naming
        the problem, never a raw numpy/zip/struct error.
        """
        import zipfile

        path = Path(path)
        try:
            payload = np.load(path if path.suffix == ".npz" else path.with_suffix(".npz"))
        except (OSError, ValueError, zipfile.BadZipFile) as exc:
            raise SerializationError(f"cannot read index file {path}: {exc}") from exc
        try:
            meta = json.loads(bytes(payload["meta"]).decode("utf-8"))
            if not isinstance(meta, dict):
                raise SerializationError(
                    f"index file {path} header is not a JSON object"
                )
            if meta.get("version") != INDEX_FORMAT_VERSION:
                raise SerializationError(
                    f"index file {path} has unsupported format version "
                    f"{meta.get('version')!r} (this build reads version "
                    f"{INDEX_FORMAT_VERSION})"
                )
            # Older headers carry the retired ``kernel`` field; both of
            # its values built identical indexes, so it is dropped.
            fields = dict(meta["config"])
            fields.pop("kernel", None)
            config = SimRankConfig(**fields)
            offsets = payload["signature_offsets"]
            flat = payload["signatures"]
            n = int(meta["n"])
            gamma_values = payload["gamma"]
            _validate_index_arrays(path, n, config, offsets, flat, gamma_values)
            H = _candidate_graph(n, np.diff(offsets), flat)
        except KeyError as exc:
            raise SerializationError(f"index file {path} is missing field {exc}") from exc
        except VertexError as exc:
            raise SerializationError(
                f"index file {path} is corrupt: signature entry {exc}"
            ) from exc
        except (TypeError, ValueError, OSError, zipfile.BadZipFile) as exc:
            raise SerializationError(f"index file {path} is corrupt: {exc}") from exc
        return cls(
            config=config,
            H=H,
            gamma=GammaTable(c=config.c, values=gamma_values),
            build_seconds=float(meta.get("build_seconds", 0.0)),
        )


#: Kept for ``benchmarks/e2e/traced_server.py``, which imports this name.
BufferBackedCandidateIndex = CandidateIndex


def _candidate_graph(n: int, sizes: np.ndarray, flat: np.ndarray) -> CSRGraph:
    """H from concatenated signature rows: an edge u → w per entry."""
    sources = np.repeat(np.arange(n, dtype=np.int64), sizes)
    edges = np.column_stack([sources, flat]).astype(np.int64, copy=False)
    return CSRGraph.from_edges(n, edges)


def _validate_index_arrays(
    path: Path,
    n: int,
    config: SimRankConfig,
    offsets: np.ndarray,
    flat: np.ndarray,
    gamma_values: np.ndarray,
) -> None:
    """Structural consistency checks on a loaded index payload.

    A partially written or hand-truncated .npz can decompress fine yet
    hold arrays that disagree with the header; catching that here turns
    a would-be silent mis-answer (or an IndexError deep in a query) into
    a :class:`SerializationError` at load time.
    """
    if n < 0:
        raise SerializationError(f"index file {path} declares negative n={n}")
    if offsets.ndim != 1 or offsets.shape[0] != n + 1:
        raise SerializationError(
            f"index file {path} is truncated: expected {n + 1} signature "
            f"offsets for n={n}, found {offsets.shape[0] if offsets.ndim == 1 else offsets.shape}"
        )
    if n >= 0 and offsets.shape[0] and int(offsets[0]) != 0:
        raise SerializationError(
            f"index file {path} is corrupt: signature offsets start at "
            f"{int(offsets[0])}, not 0"
        )
    if np.any(np.diff(offsets) < 0):
        raise SerializationError(
            f"index file {path} is corrupt: signature offsets are not monotone"
        )
    if int(offsets[-1]) != flat.shape[0]:
        raise SerializationError(
            f"index file {path} is truncated: offsets expect "
            f"{int(offsets[-1])} signature entries, payload holds {flat.shape[0]}"
        )
    if gamma_values.ndim != 2 or gamma_values.shape != (n, config.T):
        raise SerializationError(
            f"index file {path} is corrupt: gamma table has shape "
            f"{gamma_values.shape}, header declares n={n} and T={config.T}"
        )


def _signatures_from_block(
    bundle: np.ndarray,
    starts: Sequence[int],
    config: SimRankConfig,
) -> List[List[int]]:
    """Signature sets of a fused Algorithm-4 walk block, fully vectorised.

    ``bundle`` has shape (T, B·P·(1+Q)) — B vertex blocks of P index
    iterations, each one anchor walk W₀ followed by Q confirmation
    walks.  The per-p/per-t anchor-vs-checks loop of Algorithm 4 becomes
    one broadcast comparison over the whole block; the original loop's
    ``break`` on a dead anchor is equivalent to masking dead anchors
    out, because a dead walk stays dead.
    """
    P, Q, T = config.index_walks, config.index_checks, config.T
    B = len(starts)
    shaped = bundle.reshape(T, B, P, 1 + Q)
    if T > 1:
        anchors = shaped[1:, :, :, 0]  # (T-1, B, P)
        checks = shaped[1:, :, :, 1:]  # (T-1, B, P, Q)
        if config.candidate_rule == "text":
            # ≥ 2 confirmation walks sit exactly at the (alive) anchor.
            hits = (checks == anchors[..., None]).sum(axis=-1) >= 2
        else:
            # Pseudocode rule: any collision among the Q alive walks —
            # dead slots sort first and never pair with a live value.
            ordered = np.sort(checks, axis=-1)
            hits = ((ordered[..., 1:] == ordered[..., :-1]) & (ordered[..., 1:] >= 0)).any(
                axis=-1
            )
        recorded = hits & (anchors >= 0)
    else:
        anchors = np.empty((0, B, P), dtype=np.int64)
        recorded = np.zeros((0, B, P), dtype=bool)
    signatures: List[List[int]] = []
    for b, u in enumerate(starts):
        found = anchors[:, b, :][recorded[:, b, :]]
        signature: Set[int] = {int(v) for v in np.unique(found)}
        signature.add(int(u))
        signatures.append(sorted(signature))
    return signatures


def signature_for_vertex(
    engine: WalkEngine,
    u: int,
    config: SimRankConfig,
) -> List[int]:
    """Algorithm 4's inner loop: the signature set of one vertex.

    All P·(1+Q) walks run as a single vectorised bundle drawn from the
    engine's shared stream.  The walk's own start vertex (t = 0) is
    always part of the signature, so a vertex is always its own
    candidate — harmless (the query drops u itself) and it guarantees
    non-empty postings.
    """
    P, Q, T = config.index_walks, config.index_checks, config.T
    bundle = engine.walk_matrix(u, P * (1 + Q), T)
    return _signatures_from_block(bundle, [u], config)[0]


def build_signatures(
    graph: CSRGraph,
    config: SimRankConfig,
    seed: SeedLike = None,
    vertices: Optional[Sequence[int]] = None,
) -> List[List[int]]:
    """Algorithm 4 over ``vertices`` (default: every vertex).

    The subset form is what incremental maintenance uses: after an edge
    update only the vertices whose reverse-walk ball touched the change
    need new signatures.

    Vertex u's P·(1+Q) walks draw from the keyed stream
    ``stream_keys(seed, 29, [u])``, so a vertex's signature is a
    deterministic function of ``(seed, u)`` and independent of which
    other vertices are (re)built alongside it — incremental rebuilds
    reproduce exactly what a full build produces.  Whole blocks of
    vertices step their live walks together and scatter each step's
    positions into a DEAD-filled walk matrix; a walk's draws are fixed
    by (vertex, step, lane), so each vertex's walks match its own
    seeded bundle (see ``docs/performance.md``).
    """
    targets = [int(u) for u in (range(graph.n) if vertices is None else vertices)]
    base_seed = root_seed(seed)
    engine = WalkEngine(graph)
    P, Q, T = config.index_walks, config.index_checks, config.T
    width = P * (1 + Q)
    signatures: List[List[int]] = []
    block_size = max(1, 16384 // width)
    for lo in range(0, len(targets), block_size):
        block = np.asarray(targets[lo : lo + block_size], dtype=np.int64)
        bundle = np.full((T, block.size * width), DEAD, dtype=np.int64)
        streams = stream_keys(base_seed, 29, block)
        for t, positions, segments, lanes in engine.live_walks(block, width, T, streams):
            bundle[t, segments * width + lanes] = positions
        signatures.extend(_signatures_from_block(bundle, block.tolist(), config))
    return signatures


def build_index(
    graph: CSRGraph,
    config: Optional[SimRankConfig] = None,
    seed: SeedLike = None,
) -> CandidateIndex:
    """Full §7.1 preprocess: signatures (Algorithm 4) + γ table (Algorithm 3).

    Time O(n (R + P Q) T), space O(nP + nT) — the paper's preprocess
    complexity.
    """
    import time

    config = config or SimRankConfig()
    start = time.perf_counter()
    with obs.trace("preprocess.signatures", n=graph.n):
        signatures = build_signatures(graph, config, seed=derive_seed(seed, 1))
    signature_mark = time.perf_counter()
    with obs.trace("preprocess.gamma", n=graph.n):
        gamma = compute_gamma_all(graph, config, seed=derive_seed(seed, 2))
    gamma_mark = time.perf_counter()
    with obs.trace("preprocess.invert"):
        sizes = np.fromiter(map(len, signatures), dtype=np.int64, count=graph.n)
        flat = np.fromiter(
            itertools.chain.from_iterable(signatures), dtype=np.int64, count=int(sizes.sum())
        )
        H = _candidate_graph(graph.n, sizes, flat)
    end = time.perf_counter()
    index = CandidateIndex(config=config, H=H, gamma=gamma, build_seconds=end - start)
    if obs.OBS.enabled:
        obs.record_preprocess(
            vertices=graph.n,
            seconds=end - start,
            signature_seconds=signature_mark - start,
            gamma_seconds=gamma_mark - signature_mark,
            invert_seconds=end - gamma_mark,
        )
        obs.record_index(index)
    return index
