"""Incremental index maintenance under edge updates (extension).

The paper treats graphs as static; several of the works it cites (e.g.
Li et al. [19] "static and dynamic information networks") motivate the
dynamic case.  The preprocess artefact of §7.1 turns out to localise
nicely under edge updates:

- inserting or deleting an edge ``(a, b)`` changes only the
  *in-neighborhood of b*, so a reverse walk is affected iff it can step
  through ``b`` within its first T-1 hops;
- the walks that can do so start exactly at the vertices reachable
  **from b along out-links** within T-1 hops (an in-link path u → … → b
  is an out-link path b → … → u read backwards);
- hence only that out-ball's signatures (Algorithm 4) and γ rows
  (Algorithm 3) need recomputation; everything else is provably
  untouched — *bit for bit*, because both signature and γ walks draw
  from per-vertex derived streams and every unaffected vertex's
  in-adjacency rows keep identical content and order under
  :meth:`~repro.graph.csr.CSRGraph.apply_delta`.

Write-path architecture (everything scales with Δ, the edit batch,
never m):

1. edits are staged **per vertex** (``{source: {targets}}`` add/remove
   overlays) — an add that cancels a staged remove costs nothing at
   flush time, and membership checks are O(log degree);
2. :meth:`DynamicSimRankEngine.flush` promotes the staged overlay to an
   *inflight* buffer under the state lock, then does all heavy work —
   delta CSR merge, blast-radius expansion, index row repair — **off
   the lock**, and publishes the new engine in a second short critical
   section (double-buffered publish: writers keep staging into the
   fresh overlay the whole time);
3. repair seeds reproduce the full-preprocess chain
   (``derive_seed(seed, 7)`` → signatures ``…,1`` / γ ``…,2``), so an
   incremental flush lands on exactly the bits
   ``SimRankEngine(new_graph, config, seed).preprocess()`` would;
4. :class:`FlushPipeline` runs flushes on a dedicated thread with a
   ``max_staleness`` / ``max_pending`` contract, so queries serve the
   last published snapshot instead of rebuilding synchronously.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.bounds import compute_gamma_rows
from repro.core.config import SimRankConfig
from repro.core.engine import SimRankEngine
from repro.core.index import build_signatures
from repro.core.query import TopKResult
from repro.errors import VertexError
from repro.graph.csr import CSRGraph
from repro.graph.traversal import distance_ball
from repro.obs import instrument as obs
from repro.utils.rng import SeedLike, derive_seed
from repro.utils.sync import make_lock, make_rlock


__all__ = ["FlushStats", "DynamicSimRankEngine", "FlushPipeline"]

_EMPTY: Set[int] = set()


@dataclass
class FlushStats:
    """What one :meth:`DynamicSimRankEngine.flush` actually rebuilt.

    Beyond the headline counters, a flush records the exact delta it
    applied (``adds``/``removes``/``affected``) — the shard layer ships
    those rows to workers as a patch instead of re-exporting the whole
    index (:meth:`repro.shard.pool.ShardPool.publish_delta`).
    """

    edits_applied: int = 0
    vertices_affected: int = 0
    full_rebuild: bool = False
    elapsed_seconds: float = 0.0
    #: Seconds spent on index repair (signature + γ recomputation) alone.
    repair_seconds: float = 0.0
    #: Flush epoch this publish produced (0 = never flushed).
    epoch: int = 0
    old_n: int = 0
    new_n: int = 0
    adds: List[Tuple[int, int]] = field(default_factory=list)
    removes: List[Tuple[int, int]] = field(default_factory=list)
    #: Sorted vertices whose index rows were recomputed.
    affected: List[int] = field(default_factory=list)


class DynamicSimRankEngine:
    """A :class:`SimRankEngine` that absorbs edge insertions/deletions.

    Parameters mirror :class:`SimRankEngine`; the initial preprocess
    runs eagerly.  ``rebuild_fraction`` caps incrementality: when an
    edit wave touches more than that fraction of all vertices, a full
    rebuild is cheaper than row surgery and is performed instead.
    """

    def __init__(
        self,
        graph: CSRGraph,
        config: Optional[SimRankConfig] = None,
        seed: SeedLike = None,
        rebuild_fraction: float = 0.5,
    ) -> None:
        if not 0.0 < rebuild_fraction <= 1.0:
            raise ValueError(
                f"rebuild_fraction must be in (0, 1], got {rebuild_fraction}"
            )
        self.config = config or SimRankConfig()
        self._seed = seed
        # RLock, not Lock: defensive against a listener (fired by flush)
        # re-entering an accessor on the same thread.
        self._state_lock = make_rlock("DynamicSimRankEngine._state_lock")
        # Serialises flushes; acquired *before* _state_lock (lock order:
        # _flush_serial < _state_lock) so concurrent flush() calls queue
        # while edit staging stays lock-cheap.
        self._flush_serial = make_lock("DynamicSimRankEngine._flush_serial")
        self._n = graph.n
        self._engine = SimRankEngine(graph, self.config, seed=seed).preprocess()  # locked-by: _state_lock
        # Staged edit overlay, per source vertex.  An edge exists iff:
        # staged overlay says so, else inflight overlay, else base graph.
        self._staged_adds: Dict[int, Set[int]] = {}  # locked-by: _state_lock
        self._staged_removes: Dict[int, Set[int]] = {}  # locked-by: _state_lock
        self._staged_since: Optional[float] = None  # locked-by: _state_lock
        # Promoted overlay a running flush is applying.  Written only by
        # the (serialised) flush path; read under _state_lock by the
        # membership check, which never mutates it.
        self._inflight_adds: Dict[int, Set[int]] = {}  # locked-by: _state_lock
        self._inflight_removes: Dict[int, Set[int]] = {}  # locked-by: _state_lock
        self._rebuild_fraction = rebuild_fraction
        self._flush_epoch = 0  # locked-by: _state_lock
        self._published_at = time.perf_counter()  # locked-by: _state_lock
        self._pipeline: Optional["FlushPipeline"] = None  # locked-by: _state_lock
        self._flush_listeners: List[Callable[[SimRankEngine, FlushStats], None]] = []
        self.last_flush = FlushStats()

    # ------------------------------------------------------------------
    # Edit staging
    # ------------------------------------------------------------------

    @property
    def engine(self) -> SimRankEngine:
        """The inner (flushed) :class:`SimRankEngine`, read-only.

        Callers that need the static-engine surface — wrapping it in a
        :class:`~repro.workloads.CachedSimRankEngine`, handing its index
        to :func:`~repro.core.join.similarity_join` — should go through
        this rather than the private attribute.  The object is replaced
        wholesale by :meth:`flush`, so don't hold it across updates.
        """
        with self._state_lock:
            return self._engine

    @property
    def graph(self) -> CSRGraph:
        """The current (flushed) graph."""
        with self._state_lock:
            return self._engine.graph

    @property
    def pending_edits(self) -> int:
        """Staged + inflight edits not yet visible in a published engine."""
        with self._state_lock:
            return self._pending_locked()

    def _pending_locked(self) -> int:
        return (
            sum(len(s) for s in self._staged_adds.values())
            + sum(len(s) for s in self._staged_removes.values())
            + sum(len(s) for s in self._inflight_adds.values())
            + sum(len(s) for s in self._inflight_removes.values())
        )

    @property
    def flush_epoch(self) -> int:
        """Number of applied flushes since construction."""
        with self._state_lock:
            return self._flush_epoch

    @property
    def snapshot_age_seconds(self) -> float:
        """Seconds since the served engine was last published."""
        with self._state_lock:
            return time.perf_counter() - self._published_at

    @property
    def staged_age_seconds(self) -> float:
        """Age of the oldest staged-but-unflushed edit (0 when none)."""
        with self._state_lock:
            if self._staged_since is None:
                return 0.0
            return time.perf_counter() - self._staged_since

    def _edge_exists_locked(self, u: int, v: int) -> bool:
        """Edge membership through the staged → inflight → base overlay."""
        if v in self._staged_adds.get(u, _EMPTY):
            return True
        if v in self._staged_removes.get(u, _EMPTY):
            return False
        if v in self._inflight_adds.get(u, _EMPTY):
            return True
        if v in self._inflight_removes.get(u, _EMPTY):
            return False
        graph = self._engine.graph
        if u >= graph.n or v >= graph.n:
            return False
        row = graph.out_neighbors(u)
        at = int(np.searchsorted(row, v))
        return at < row.size and int(row[at]) == v

    def add_edge(self, u: int, v: int) -> bool:
        """Stage inserting u -> v; returns False if the edge exists already.

        Endpoints beyond the current vertex range grow the graph.  O(log
        degree) — no global edge set is consulted, only the staged
        overlay and one binary search in the base adjacency row.
        """
        u, v = int(u), int(v)
        if u < 0 or v < 0:
            raise VertexError(min(u, v), self._n)
        with self._state_lock:
            if self._edge_exists_locked(u, v):
                return False
            staged_removes = self._staged_removes.get(u)
            if staged_removes is not None and v in staged_removes:
                # Re-adding an edge whose removal is still staged: the two
                # edits cancel; the flush never sees either.
                staged_removes.discard(v)
                if not staged_removes:
                    del self._staged_removes[u]
            else:
                self._staged_adds.setdefault(u, set()).add(v)
            self._n = max(self._n, u + 1, v + 1)
            if self._staged_since is None:
                self._staged_since = time.perf_counter()
            pipeline = self._pipeline
        if pipeline is not None:
            pipeline.note_edit()
        return True

    def remove_edge(self, u: int, v: int) -> bool:
        """Stage deleting u -> v; returns False if the edge is absent."""
        u, v = int(u), int(v)
        if u < 0 or v < 0:
            raise VertexError(min(u, v), self._n)
        with self._state_lock:
            if not self._edge_exists_locked(u, v):
                return False
            staged_adds = self._staged_adds.get(u)
            if staged_adds is not None and v in staged_adds:
                staged_adds.discard(v)
                if not staged_adds:
                    del self._staged_adds[u]
            else:
                self._staged_removes.setdefault(u, set()).add(v)
            if self._staged_since is None:
                self._staged_since = time.perf_counter()
            pipeline = self._pipeline
        if pipeline is not None:
            pipeline.note_edit()
        return True

    # ------------------------------------------------------------------
    # Flush listeners
    # ------------------------------------------------------------------

    def add_flush_listener(
        self, listener: Callable[[SimRankEngine, FlushStats], None]
    ) -> Callable[[SimRankEngine, FlushStats], None]:
        """Call ``listener(new_engine, stats)`` after every applied flush.

        The fix for the stale-cache footgun: instead of every caller
        remembering ``cache.replace_engine(dynamic.engine)`` after a
        flush, a :class:`~repro.workloads.CachedSimRankEngine` (via
        :meth:`~repro.workloads.CachedSimRankEngine.follow`) or a
        serve-layer :class:`~repro.serve.lifecycle.EngineHandle`
        registers once and is re-pointed automatically.  Listeners fire
        only when edits were actually applied — a no-op :meth:`flush`
        never invalidates anything.  Returns the listener for symmetry
        with :meth:`remove_flush_listener`.
        """
        self._flush_listeners.append(listener)
        return listener

    def remove_flush_listener(
        self, listener: Callable[[SimRankEngine, FlushStats], None]
    ) -> None:
        """Unregister a listener added by :meth:`add_flush_listener`."""
        try:
            self._flush_listeners.remove(listener)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # Flush
    # ------------------------------------------------------------------

    def _affected_vertices(
        self,
        old_graph: CSRGraph,
        new_graph: CSRGraph,
        adds: List[Tuple[int, int]],
        removes: List[Tuple[int, int]],
    ) -> Set[int]:
        """Vertices whose reverse-walk distribution may have changed.

        For each edited edge (a, b): the out-ball of b with radius T-1 —
        in the old graph for removals (walks that used to route through
        the edge) and the new graph for insertions (walks that now can).
        The edge's source a needs no special casing: its own walks are
        only affected if it lies in such a ball anyway.  Targets are
        deduplicated *before* expansion: N edits landing on the same
        vertex b share one ball, not N recomputations of it.
        """
        radius = self.config.T - 1
        affected: Set[int] = set()
        for b in {v for _, v in adds}:
            if b < new_graph.n:
                affected.update(distance_ball(new_graph, b, radius, direction="out"))
        for b in {v for _, v in removes}:
            if b < old_graph.n:
                affected.update(distance_ball(old_graph, b, radius, direction="out"))
        return affected

    def flush(self) -> FlushStats:
        """Apply staged edits; rebuild only the affected index rows.

        Publishes a **new** :class:`SimRankEngine` (the previous one and
        its index are never mutated — the incremental path builds a new
        index with :meth:`~repro.core.index.CandidateIndex.with_rows`),
        so readers holding the old ``engine`` keep a consistent
        snapshot.  The heavy work — delta CSR merge, ball expansion,
        row repair — runs **outside** the state lock: edit staging and
        reads proceed concurrently, and newly staged edits simply wait
        for the next flush (double-buffered publish).  After an applied
        flush every registered flush listener is invoked with
        ``(new_engine, stats)``.
        """
        with self._flush_serial:
            return self._flush_serialized()

    def _flush_serialized(self) -> FlushStats:
        start = time.perf_counter()
        with self._state_lock:
            if not self._staged_adds and not self._staged_removes:
                stats = FlushStats(epoch=self._flush_epoch)
                self.last_flush = stats
                return stats
            # Promote the staged overlay to inflight; writers keep
            # staging into the fresh dicts while we work off-lock.
            self._inflight_adds = self._staged_adds
            self._inflight_removes = self._staged_removes
            self._staged_adds = {}
            self._staged_removes = {}
            self._staged_since = None
            base_engine = self._engine
            epoch = self._flush_epoch + 1

        # ---- heavy section: no locks held -------------------------------
        # The inflight dicts are only ever written by this (serialised)
        # flush path; concurrent readers see a frozen overlay.
        adds = [
            (u, v)
            for u, targets in sorted(self._inflight_adds.items())  # repro: noqa R1 -- frozen overlay: written only by this serialised flush path
            for v in sorted(targets)
        ]
        removes = [
            (u, v)
            for u, targets in sorted(self._inflight_removes.items())  # repro: noqa R1 -- frozen overlay: written only by this serialised flush path
            for v in sorted(targets)
        ]
        old_graph = base_engine.graph
        new_n = old_graph.n
        if adds:
            new_n = max(new_n, 1 + max(max(u, v) for u, v in adds))
        new_graph = old_graph.apply_delta(adds, removes, n=new_n)
        grew = new_n > old_graph.n
        affected = self._affected_vertices(old_graph, new_graph, adds, removes)
        if grew:
            affected.update(range(old_graph.n, new_n))
        ordered = sorted(affected)
        full_rebuild = len(affected) > self._rebuild_fraction * new_graph.n

        repair_start = time.perf_counter()
        if full_rebuild:
            engine = SimRankEngine(new_graph, self.config, seed=self._seed).preprocess()
        else:
            engine = self._patch_engine(base_engine, new_graph, ordered)
        repair_seconds = time.perf_counter() - repair_start

        stats = FlushStats(
            edits_applied=len(adds) + len(removes),
            vertices_affected=len(affected),
            full_rebuild=full_rebuild,
            repair_seconds=repair_seconds,
            epoch=epoch,
            old_n=old_graph.n,
            new_n=new_n,
            adds=adds,
            removes=removes,
            affected=ordered,
        )

        # ---- publish ----------------------------------------------------
        with self._state_lock:
            self._engine = engine
            self._flush_epoch = epoch
            self._inflight_adds = {}
            self._inflight_removes = {}
            self._published_at = time.perf_counter()
            stats.elapsed_seconds = time.perf_counter() - start
            self.last_flush = stats
            queue_depth = self._pending_locked()
        obs.record_flush(
            edits_applied=stats.edits_applied,
            vertices_affected=stats.vertices_affected,
            repair_seconds=stats.repair_seconds,
            queue_depth=queue_depth,
        )
        obs.set_dynamic_snapshot_age(0.0)
        # Listeners run outside the critical section: EngineHandle.swap
        # takes its own lock, and a slow listener must not extend the
        # window during which edit staging and health reads block.
        for listener in list(self._flush_listeners):
            listener(engine, stats)
        return stats

    def _patch_engine(
        self,
        base_engine: SimRankEngine,
        new_graph: CSRGraph,
        ordered: List[int],
    ) -> SimRankEngine:
        """``base_engine``'s index with the ``ordered`` rows recomputed on ``new_graph``.

        Recomputation uses the exact full-preprocess seed chain
        (``derive_seed(seed, 7)`` then ``…,1`` for signatures / ``…,2``
        for γ), and both kernels draw per-vertex streams — so every row,
        recomputed or inherited, is bit-identical to what
        ``SimRankEngine(new_graph, config, seed).preprocess()`` builds.
        """
        config = self.config
        preprocess_seed = derive_seed(self._seed, 7)
        signatures = build_signatures(
            new_graph,
            config,
            seed=derive_seed(preprocess_seed, 1),
            vertices=ordered,
        )
        gamma_rows = compute_gamma_rows(
            new_graph, ordered, config, seed=derive_seed(preprocess_seed, 2)
        )
        index = base_engine.index.with_rows(ordered, signatures, gamma_rows, n=new_graph.n)
        engine = SimRankEngine(new_graph, config, seed=self._seed)
        engine._index = index  # noqa: SLF001 - deliberate surgery
        return engine

    # ------------------------------------------------------------------
    # Pipeline attachment
    # ------------------------------------------------------------------

    def attach_pipeline(self, pipeline: "FlushPipeline") -> None:
        """Register the background flusher; queries stop auto-flushing."""
        with self._state_lock:
            if self._pipeline is not None and self._pipeline is not pipeline:
                raise RuntimeError("a FlushPipeline is already attached")
            self._pipeline = pipeline

    def detach_pipeline(self, pipeline: "FlushPipeline") -> None:
        """Unregister ``pipeline``; queries auto-flush again."""
        with self._state_lock:
            if self._pipeline is pipeline:
                self._pipeline = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _query_engine(self) -> SimRankEngine:
        """Engine to serve a query from.

        Without a pipeline, queries flush first (callers never see a
        stale index — the seed behaviour).  With a pipeline attached,
        queries serve the last *published* snapshot and freshness is the
        pipeline's ``max_staleness`` contract: the query path never
        performs a rebuild.
        """
        with self._state_lock:
            pipeline = self._pipeline
        if pipeline is None:
            self.flush()
        with self._state_lock:
            return self._engine

    def top_k(self, u: int, k: Optional[int] = None) -> TopKResult:
        """Top-k query against the freshest available index."""
        return self._query_engine().top_k(u, k=k)

    def single_pair(self, u: int, v: int, method: str = "montecarlo") -> float:
        """Single-pair score against the freshest available graph."""
        return self._query_engine().single_pair(u, v, method=method)

    def single_source(self, u: int) -> np.ndarray:
        """Deterministic single-source vector on the freshest graph."""
        return self._query_engine().single_source(u)

    def __repr__(self) -> str:
        with self._state_lock:
            return (
                f"DynamicSimRankEngine(n={self._n}, m={self._engine.graph.m}, "
                f"pending={self._pending_locked()})"
            )


class FlushPipeline:
    """Dedicated flusher thread: the off-query-path write pipeline.

    Contract:

    - **bounded staleness** — staged edits are flushed once the oldest
      has waited ``max_staleness`` seconds (coalescing everything that
      arrived meanwhile into one delta);
    - **backpressure** — once ``max_pending`` edits are staged the
      pipeline flushes immediately, and writers calling
      :meth:`throttle` block until the backlog drains below the limit;
    - queries **never** rebuild: they serve the last published snapshot
      (see :meth:`DynamicSimRankEngine._query_engine`).

    Both knobs are live-tunable (registered in
    :data:`repro.core.config.TUNABLES` as ``flush_max_staleness`` /
    ``flush_max_pending``); :meth:`apply` is the
    :class:`~repro.serve.tunables.TunableSet` listener target.  A flush
    that raises keeps the thread alive (the error is stored in
    :attr:`last_error` and re-raised by :meth:`stop`).
    """

    def __init__(
        self,
        dynamic: DynamicSimRankEngine,
        max_staleness: float = 0.2,
        max_pending: int = 1024,
    ) -> None:
        if max_staleness <= 0:
            raise ValueError(f"max_staleness must be > 0, got {max_staleness}")
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self._dynamic = dynamic
        # Read racily by the flusher/writers; float/int stores are atomic
        # and a torn read would only mistime one flush decision.
        self.max_staleness = float(max_staleness)
        self.max_pending = int(max_pending)
        self._wake = threading.Event()
        self._stopping = threading.Event()
        self._flushed = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.last_error: Optional[BaseException] = None
        self.flush_count = 0

    def start(self) -> "FlushPipeline":
        """Attach to the engine and start the flusher thread."""
        if self._thread is not None:
            raise RuntimeError("pipeline already started")
        self._dynamic.attach_pipeline(self)
        self._stopping.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-flush-pipeline", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, flush: bool = True) -> None:
        """Stop the thread; optionally drain remaining staged edits."""
        thread = self._thread
        if thread is None:
            return
        self._stopping.set()
        self._wake.set()
        thread.join(timeout=30.0)
        self._thread = None
        self._dynamic.detach_pipeline(self)
        if flush:
            self._dynamic.flush()
        if self.last_error is not None:
            error = self.last_error
            self.last_error = None
            raise error

    def note_edit(self) -> None:
        """Writer-side nudge: staged state changed, re-evaluate deadlines."""
        self._wake.set()

    def throttle(self, timeout: Optional[float] = None) -> bool:
        """Block while the staged backlog exceeds ``max_pending``.

        Returns True once below the limit, False on timeout.  This is
        the producer half of the backpressure contract: the serve layer
        calls it (off the event loop) before acking a batch of updates.
        """
        deadline = None if timeout is None else time.perf_counter() + timeout
        while self._dynamic.pending_edits > self.max_pending:
            if self._thread is None or self._stopping.is_set():
                return True
            self._wake.set()
            wait = 0.005
            if deadline is not None:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    return False
                wait = min(wait, remaining)
            self._flushed.clear()
            self._flushed.wait(wait)
        return True

    def apply(self, name: str, value: float) -> None:
        """Live-tunable hook (`flush_max_staleness` / `flush_max_pending`)."""
        if name == "flush_max_staleness":
            self.max_staleness = float(value)
        elif name == "flush_max_pending":
            self.max_pending = int(value)
        else:
            raise KeyError(name)
        self._wake.set()

    def _run(self) -> None:
        while not self._stopping.is_set():
            # Sleep until an edit arrives or a fraction of the staleness
            # budget elapses; cheap wakeups, no busy spin.
            self._wake.wait(timeout=max(0.001, self.max_staleness / 4.0))
            self._wake.clear()
            if self._stopping.is_set():
                break
            pending = self._dynamic.pending_edits
            if pending == 0:
                continue
            age = self._dynamic.staged_age_seconds
            if pending < self.max_pending and age < self.max_staleness:
                continue
            try:
                self._dynamic.flush()
                self.flush_count += 1
            except BaseException as exc:  # noqa: BLE001 - surfaced via stop()
                self.last_error = exc
            finally:
                self._flushed.set()

    def __repr__(self) -> str:
        state = "running" if self._thread is not None else "stopped"
        return (
            f"FlushPipeline({state}, max_staleness={self.max_staleness}, "
            f"max_pending={self.max_pending}, flushes={self.flush_count})"
        )
