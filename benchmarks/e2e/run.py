"""End-to-end serving benchmark: open-loop NDJSON over TCP against ``repro serve``.

Run from the repository root::

    python3 benchmarks/e2e/run.py                      # every workload, untraced
    python3 benchmarks/e2e/run.py --workload zipf --seed 3
    python3 benchmarks/e2e/run.py --traced             # per-layer metrics
    python3 benchmarks/e2e/run.py --quick              # smoke test only

Each workload starts the shipped server (``repro.cli.main(["serve",
...])``) as a child process on a fixed web graph and drives it from this
one asyncio process over two TCP connections, the host's core count:
the server answers one line at a time per connection, so more
connections would measure the scheduler rather than the server.

Each phase of a run asks about its share of one fixed mix of vertices,
drawn from the workload's generator with ``MIX_SEED``; ``--seed`` draws
the order within each phase (and, on ``churn``, the writes).  A query's
cost depends heavily on its vertex, so a mix drawn per seed would move
the work of a run by more than any regression bound.

An untraced run starts the server three times (``setup_s`` is the
median), warms the last one up, then runs rounds of a ``low`` and a
``high`` fixed-rate step and a closed-loop capacity slice, each of the
same number of requests.  Spreading each phase over the whole run keeps
a few seconds of host slowdown from landing on one metric, and
``hostspeed.py`` scales the times to one reference host speed.  A traced
run (``--trace 1``) starts a plain server and one launched through
``traced_server.py`` side by side and alternates ``high`` slices between
them; the per-layer metrics come from the traced one, and the gap
between the two is the tracing overhead.  Every run checks the answers
(see ``gate.py``) and that each server stops cleanly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metrics are
the ``end_to_end`` (untraced) or ``per_layer`` (traced) names of
``BENCHMARK.json``.  The exit code is 0 only when every answer checked
out and every server stopped cleanly.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import dataclasses
import itertools
import json
import os
import random
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from gate import (  # noqa: E402
    ChurnModel,
    StaticGate,
    epoch_regressions,
    first_distinct,
    reference_items,
    request_failures,
)
from hostspeed import SpeedProbe  # noqa: E402
from layers import layer_metrics, step_spans  # noqa: E402
from loadgen import (  # noqa: E402
    MAX_LATE_MS,
    TAIL,
    Connection,
    Message,
    Sample,
    closed_loop,
    late_p99_ms,
    open_loop,
    quantile,
    tail_percentile,
)
from serverproc import ServerProcess, kill_children  # noqa: E402

#: The graph of BENCH_shard.json; only the request streams depend on --seed.
GRAPH = {"n": 6000, "out_degree": 6, "seed": 31}
CONNECTIONS = 2
#: Server start-ups per untraced run; setup_s is their median.
SETUPS = 3
#: Rounds of (low, high, capacity) slices per run.
ROUNDS = 6
#: Shares of the run for the warm-up and for the two fixed-rate steps;
#: the capacity slices take the rest.
WARMUP_SHARE = 0.05
STEP_SHARE = 0.8
#: Seed of every workload's vertex mix; --seed draws only its order.
MIX_SEED = 0
#: On churn every fifth event is a one-edge write (write_fraction 0.2).
WRITE_EVERY = 5
PHASES = ("warmup", "low", "high", "capacity")
SLO_P99_MS = 100.0
STATIC_GATE_SAMPLE = 200
CHURN_GATE_SAMPLE = 30
QUICK_SECONDS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    stream: str
    low: float
    high: float
    flags: Tuple[str, ...] = ()
    shards: int = 0
    #: Whether read latency and capacity are CPU work, scaled to the
    #: reference host speed like CPU time and set-up time.
    cpu_bound: bool = True

    @property
    def serve_args(self) -> List[str]:
        return [*self.flags, *(["--shards", str(self.shards)] if self.shards else [])]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # The paper's setup: uniform queries, almost all cache misses.
        Workload("uniform", "uniform", 20, 30),
        # A hot set the result cache absorbs; protocol and batching dominate.
        # Half its latency is the batcher's 2 ms linger, which host speed
        # does not stretch, so its wall-clock times stay unscaled.
        Workload("zipf", "zipf", 60, 150, cpu_bound=False),
        # Popular, heavier vertices scattered over two shard processes.
        Workload("sharded", "degree", 20, 30, shards=2),
        # One-edge writes beside reads through the off-path flush pipeline.
        Workload("churn", "churn", 20, 30, flags=("--flush-pipeline",)),
    )
}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def prepare_graph(workdir: Path) -> Tuple[Path, Any]:
    """Write the benchmark graph as an edge list; return it as the server reads it."""
    from repro.graph.generators import copying_web_graph
    from repro.graph.io import read_edge_list, write_edge_list

    path = workdir / "graph.txt"
    write_edge_list(copying_web_graph(GRAPH["n"], out_degree=GRAPH["out_degree"],
                                      seed=GRAPH["seed"]), path)
    return path, read_edge_list(path, directed=True)


def plan(workload: Workload, seconds: float, traced: bool) -> Dict[str, int]:
    """Requests per phase; ``low``, ``high`` and ``capacity`` split into ROUNDS slices.

    Untraced, both steps send as many requests and together take
    STEP_SHARE of the run, and each capacity slice sends as many as a
    step.  Traced, two servers each get a warm-up and then half of the
    rest of the run at the ``high`` rate.
    """
    warmup = round(workload.low * WARMUP_SHARE * seconds)
    if traced:
        per_slice = round(workload.high * (1 - 2 * WARMUP_SHARE) * seconds / (2 * ROUNDS))
        return {"warmup": warmup, "low": 0, "high": ROUNDS * per_slice, "capacity": 0}
    per_slice = round(STEP_SHARE * seconds / (ROUNDS * (1 / workload.low + 1 / workload.high)))
    return {"warmup": warmup, "low": ROUNDS * per_slice, "high": ROUNDS * per_slice,
            "capacity": ROUNDS * per_slice}


def make_streams(workload: Workload, graph: Any, counts: Dict[str, int],
                 seed: int) -> Dict[str, List[Message]]:
    """Each phase's requests: its share of the fixed mix, in an order drawn from ``seed``."""
    from repro import workloads as wl

    churn = workload.stream == "churn"
    reads = {p: c - c // WRITE_EVERY if churn else c for p, c in counts.items()}
    total = sum(reads.values())
    mix = iter({
        # Churn reads are uniform over the base graph: a read may reach the
        # server before the flush that publishes a vertex the writes grew.
        "churn": lambda: wl.uniform_workload(graph, total, seed=MIX_SEED),
        "uniform": lambda: wl.uniform_workload(graph, total, seed=MIX_SEED),
        "zipf": lambda: wl.zipf_workload(graph, total, hot_set_size=100, exponent=1.1,
                                         seed=MIX_SEED),
        "degree": lambda: wl.degree_biased_workload(graph, total, seed=MIX_SEED),
    }[workload.stream]())
    if churn:
        events = wl.churn_workload(graph, 2 * sum(counts.values()), write_fraction=0.2,
                                   grow_fraction=0.05, seed=seed)
        writes = iter([{"op": "update", e.op: [[e.u, e.v]]} for e in events if e.op != "query"])
    rng = random.Random(seed)
    ids = itertools.count()
    streams: Dict[str, List[Message]] = {}
    for phase in PHASES:
        stream: List[Message] = [{"op": "top_k", "vertex": next(mix)} for _ in range(reads[phase])]
        rng.shuffle(stream)
        if churn:
            queue = iter(stream)
            stream = [next(writes) if i % WRITE_EVERY == WRITE_EVERY - 1 else next(queue)
                      for i in range(counts[phase])]
        for request in stream:
            request["id"] = next(ids)
        streams[phase] = stream
    return streams


def read_vertices(streams: Dict[str, List[Message]]) -> Iterator[int]:
    """The vertices read, in send order."""
    return (r["vertex"] for phase in PHASES for r in streams[phase] if r["op"] == "top_k")


def route(i: int, request: Message) -> int:
    """Reads go round-robin; an edge's writes always share one connection."""
    if request["op"] == "update":
        (edge,) = request.get("add") or request["remove"]
        return hash(tuple(edge)) % CONNECTIONS
    return i % CONNECTIONS


# ----------------------------------------------------------------------
# Load on one server
# ----------------------------------------------------------------------


class Session:
    """The load connections to one server, consuming its phase streams."""

    def __init__(self, server: Any, streams: Dict[str, List[Message]]) -> None:
        self.server = server
        self.streams = streams
        self.cursors = dict.fromkeys(streams, 0)
        self.conns: List[Connection] = []
        self.samples: List[Sample] = []

    async def __aenter__(self) -> "Session":
        for _ in range(CONNECTIONS):
            self.conns.append(await Connection.open("127.0.0.1", self.server.port))
        return self

    async def __aexit__(self, *exc: Any) -> None:
        for conn in self.conns:
            await conn.close()

    def _take(self, phase: str, count: int) -> Sequence[Message]:
        start = self.cursors[phase]
        part = self.streams[phase][start : start + count]
        if len(part) < count:
            raise RuntimeError(f"{phase} stream exhausted")
        self.cursors[phase] = start + count
        return part

    async def step(self, phase: str, rate: float, count: int) -> List[Sample]:
        """The next ``count`` requests of ``phase``, open-loop at ``rate`` per second."""
        samples = await open_loop(self.conns, self._take(phase, count), rate, route)
        self.samples += samples
        return samples

    async def capacity(self, count: int) -> Tuple[int, float]:
        """The next ``count`` capacity requests, closed-loop: (completions, seconds)."""
        samples, elapsed = await closed_loop(self.conns, self._take("capacity", count), route)
        self.samples += samples
        return len(samples), elapsed


@dataclass
class Outcome:
    """What one workload run measured and found."""

    metrics: Dict[str, float] = field(default_factory=dict)
    samples: List[Sample] = field(default_factory=list)
    failed: int = 0
    extra_attempted: int = 0
    problems: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: How late the generator sent at p99 over the measured steps, in ms.
    late_ms: float = 0.0
    #: Reference over measured host speed during the load (untraced runs).
    speed: Optional[float] = None

    @property
    def attempted(self) -> int:
        return len(self.samples) + self.extra_attempted

    @property
    def valid(self) -> bool:
        return self.late_ms <= MAX_LATE_MS


def reads(samples: Sequence[Sample]) -> List[float]:
    return [s.latency * 1e3 for s in samples if s.request["op"] == "top_k"]


def untraced_metrics(setup_s: Sequence[float], rss_mb: float, low: Sequence[Sample],
                     high: Sequence[Sample], capacity_qps: float, cpu_ms_per_query: float,
                     wall: float) -> Dict[str, float]:
    """The end-to-end metrics of one untraced run.

    Read latency quantiles pool every slice of a rate and are multiplied
    by ``wall``; the other inputs come already scaled.
    """
    return {
        "setup_s": statistics.median(setup_s),
        "rss_mb": rss_mb,
        "p50_ms_low": quantile(reads(low), 50) * wall,
        f"p{TAIL:g}_ms_low": quantile(reads(low), TAIL) * wall,
        "p50_ms_high": quantile(reads(high), 50) * wall,
        f"p{TAIL:g}_ms_high": quantile(reads(high), TAIL) * wall,
        "capacity_qps": capacity_qps,
        "cpu_ms_per_query": cpu_ms_per_query,
    }


def write_metrics(samples: Sequence[Sample]) -> Dict[str, float]:
    """Latency of the ``update`` requests among ``samples`` (0 without any)."""
    writes = [s.latency * 1e3 for s in samples if s.request["op"] == "update"]
    return {
        "write_p50_ms": quantile(writes, 50) if writes else 0.0,
        f"write_p{TAIL:g}_ms": quantile(writes, TAIL) if writes else 0.0,
    }


def slo_note(label: str, samples: Sequence[Sample]) -> str:
    """Whether a rate met the read latency limit with no growing backlog."""
    latencies = reads(samples)
    tail = quantile(latencies, TAIL)
    quarter = max(1, len(latencies) // 4)
    growth = statistics.median(latencies[-quarter:]) - statistics.median(latencies[:quarter])
    met = tail <= SLO_P99_MS and growth <= SLO_P99_MS / 2
    warning = (f"; UNDER-SAMPLED: p{TAIL:g} needs more reads"
               if (tail_percentile(len(latencies)) or 0) < TAIL else "")
    return (f"slo_p99_ms={SLO_P99_MS:g} {label}: {'met' if met else 'MISSED'} "
            f"(p{TAIL:g} {tail:.1f} ms wall clock over {len(latencies)} reads, "
            f"backlog growth {growth:+.1f} ms{warning})")


def check_generator(outcome: Outcome, samples: Sequence[Sample]) -> None:
    """Mark the run invalid if the generator fell behind its schedule."""
    outcome.late_ms = late_p99_ms(samples)
    if not outcome.valid:
        outcome.notes.append(f"INVALID: the generator sent {outcome.late_ms:.1f} ms late at p99 "
                             f"(limit {MAX_LATE_MS:g} ms); compare.py leaves this run out")


class Served:
    """One server under load, with the churn checks it needs."""

    def __init__(self, server: Any, streams: Dict[str, List[Message]],
                 model: Optional[ChurnModel]) -> None:
        self.server = server
        self.session = Session(server, streams)
        self.model = model
        self.final: Optional[Tuple[int, List[Tuple[int, Any]]]] = None

    def finish(self, outcome: Outcome) -> None:
        """Check epochs; on churn also replay writes, flush, read a sample back."""
        outcome.samples += self.session.samples
        outcome.failed += epoch_regressions(self.session.samples)
        if self.model is None:
            return
        self.model.observe(self.session.samples)
        control = self.server.control
        control.flush()
        health = control.healthz()
        problem = self.model.final_problems(int(health["vertices"]), int(health["edges"]))
        if problem:
            outcome.problems.append(problem)
        vertices = first_distinct(read_vertices(self.session.streams), CHURN_GATE_SAMPLE)
        outcome.extra_attempted += len(vertices)
        answers = [(u, [[v, s] for v, s in control.top_k(u).items]) for u in vertices]
        self.final = (int(health["vertices"]), answers)

    def churn_mismatches(self) -> int:
        """Read-back answers that differ from a fresh engine on the final edge set."""
        if self.model is None or self.final is None:
            return 0
        from repro import SimRankConfig, SimRankEngine
        from repro.graph.csr import CSRGraph

        n, answers = self.final
        graph = CSRGraph.from_edges(n, sorted(self.model.edges))
        engine = SimRankEngine(graph, SimRankConfig.fast(), seed=0).preprocess()
        reference = reference_items(engine, [u for u, _ in answers])
        return self.model.ack_mismatches + sum(
            1 for u, items in answers if items != reference[u]
        )


def drive(served: Sequence[Served], load: Any) -> None:
    """Open every session, run the ``load`` coroutine, close the sessions."""

    async def main() -> None:
        async with contextlib.AsyncExitStack() as sessions:
            for s in served:
                await sessions.enter_async_context(s.session)
            await load()

    asyncio.run(main())


def run_untraced(workload: Workload, argv: List[str], streams: Dict[str, List[Message]],
                 counts: Dict[str, int], model: Optional[ChurnModel],
                 outcome: Outcome) -> List[Served]:
    probe = SpeedProbe()
    setups: List[Tuple[float, float, float]] = []
    for i in range(SETUPS):
        start = time.monotonic()
        server = ServerProcess(argv)
        setups.append((start, time.monotonic(), server.setup_s))
        if i < SETUPS - 1:
            outcome.problems += server.stop()
    served = Served(server, streams, model)
    per_slice = counts["low"] // ROUNDS
    low: List[Sample] = []
    high: List[Sample] = []
    capacity: List[Tuple[int, float]] = []
    #: Start and end of the measured rounds: monotonic time, server CPU, replies.
    marks: List[Tuple[float, float, int]] = []

    async def load() -> None:
        session = served.session
        await session.step("warmup", workload.low, counts["warmup"])
        marks.append((time.monotonic(), server.cpu_seconds(), len(session.samples)))
        for _ in range(ROUNDS):
            low.extend(await session.step("low", workload.low, per_slice))
            high.extend(await session.step("high", workload.high, per_slice))
            capacity.append(await session.capacity(per_slice))
        marks.append((time.monotonic(), server.cpu_seconds(), len(session.samples)))

    drive([served], load)
    probe.stop()
    (t0, cpu0, replies0), (t1, cpu1, replies1) = marks
    outcome.speed = probe.factor(t0, t1)
    wall = outcome.speed if workload.cpu_bound else 1.0
    capacity_qps = sum(n for n, _ in capacity) / (sum(s for _, s in capacity) * wall)
    cpu_ms_per_query = (cpu1 - cpu0) * 1e3 / (replies1 - replies0) * outcome.speed
    outcome.metrics = untraced_metrics(
        [setup_s * probe.factor(start, end) for start, end, setup_s in setups],
        server.peak_rss_mb(), low, high, capacity_qps, cpu_ms_per_query, wall)
    scaled = "every time" if workload.cpu_bound else "set-up and CPU time"
    outcome.notes += [
        f"host speed: {scaled} scaled by {outcome.speed:.3f} to the reference speed",
        slo_note(f"low {workload.low:g}/s", low),
        slo_note(f"high {workload.high:g}/s", high),
    ]
    check_generator(outcome, low + high)
    served.finish(outcome)
    outcome.problems += server.stop()
    return [served]


def run_traced(workload: Workload, argv: List[str], streams: Dict[str, List[Message]],
               counts: Dict[str, int], make_model: Any, outcome: Outcome,
               workdir: Path) -> List[Served]:
    spans_path = workdir / "spans.jsonl"
    launcher = [str(HERE / "traced_server.py"), "--spans", str(spans_path)]
    plain = Served(ServerProcess(argv), streams, make_model())
    traced = Served(ServerProcess(argv, launcher=launcher), streams, make_model())
    per_slice = counts["high"] // ROUNDS
    plain_high: List[Sample] = []
    traced_high: List[Sample] = []
    counters: List[Dict[str, float]] = []
    worker_cpu: List[float] = []

    async def load() -> None:
        for served in (plain, traced):
            await served.session.step("warmup", workload.low, counts["warmup"])
        counters.append(traced.server.counters())
        worker_cpu.append(traced.server.worker_cpu_seconds())
        for _ in range(ROUNDS):
            plain_high.extend(await plain.session.step("high", workload.high, per_slice))
            traced_high.extend(await traced.session.step("high", workload.high, per_slice))
        counters.append(traced.server.counters())
        worker_cpu.append(traced.server.worker_cpu_seconds())

    drive([plain, traced], load)
    for served in (plain, traced):
        served.finish(outcome)
        outcome.problems += served.server.stop()
    with open(spans_path, encoding="utf-8") as handle:
        spans = [json.loads(line) for line in handle]
    outcome.metrics = layer_metrics(step_spans(spans, traced_high), traced_high, counters[0],
                                    counters[1], worker_cpu[1] - worker_cpu[0])
    # Both servers receive the same writes; together they send enough for the tail.
    outcome.metrics.update(write_metrics(plain_high + traced_high))
    check_generator(outcome, plain_high + traced_high)
    plain_p50 = quantile(reads(plain_high), 50)
    outcome.metrics["trace.overhead_pct"] = (
        100.0 * (quantile(reads(traced_high), 50) - plain_p50) / plain_p50
    )
    outcome.notes.append(slo_note(f"traced high {workload.high:g}/s", traced_high))
    return [plain, traced]


def run_workload(workload: Workload, seed: int, seconds: float, traced: bool) -> Outcome:
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-"))
    try:
        graph_path, graph = prepare_graph(workdir)
        counts = plan(workload, seconds, traced)
        streams = make_streams(workload, graph, counts, seed)
        churn = workload.stream == "churn"
        edges = [(int(u), int(v)) for u, v in graph.edges()] if churn else []

        def make_model() -> Optional[ChurnModel]:
            return ChurnModel(edges, graph.n) if churn else None

        argv = ["--graph", str(graph_path), *workload.serve_args]
        outcome = Outcome()
        if traced:
            served = run_traced(workload, argv, streams, counts, make_model, outcome, workdir)
        else:
            served = run_untraced(workload, argv, streams, counts, make_model(), outcome)
        outcome.failed += request_failures(outcome.samples)
        outcome.failed += sum(s.churn_mismatches() for s in served)
        if not churn:
            gate = StaticGate(first_distinct(read_vertices(streams), STATIC_GATE_SAMPLE))
            gate.observe(outcome.samples)
            from repro import SimRankConfig, SimRankEngine

            engine = SimRankEngine(graph, SimRankConfig.fast(), seed=0).preprocess()
            reference = reference_items(engine, sorted({u for u, _ in gate.replies}))
            outcome.failed += gate.mismatches(reference)
            outcome.notes.append(f"correctness: {len(gate.replies)} replies for "
                                 f"{len(reference)} sampled vertices compared bit-for-bit")
        return outcome
    finally:
        # A failed run may leave servers behind; a finished one leaves none.
        kill_children()
        shutil.rmtree(workdir, ignore_errors=True)


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def print_outcome(workload: Workload, outcome: Outcome, unit_of: Dict[str, str]) -> None:
    print(f"== {workload.name} (serve {' '.join(workload.serve_args) or 'defaults'}; "
          f"{CONNECTIONS} connections; low {workload.low:g}/s, high {workload.high:g}/s): "
          f"attempted {outcome.attempted}, failed {outcome.failed}")
    for metric, value in outcome.metrics.items():
        print(f"  {metric:32s} {value:14.4f} {unit_of[metric]}")
    for note in outcome.notes + [f"PROBLEM: {p}" for p in outcome.problems]:
        print(f"  {note}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the request streams")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = per-layer metrics from a traced server")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--quick", action="store_true",
                        help=f"smoke test: {QUICK_SECONDS} s per workload, never for comparisons")
    parser.add_argument("--shards", type=int, default=None,
                        help="shard processes of the sharded workload (default 2)")
    parser.add_argument("--out", default=None,
                        help="append this run's results as one JSON line to PATH")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the servers are killed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} must hold src/repro and BENCHMARK.json", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Temporary files of this process and the servers stay in the checkout.
    workroot = HERE / ".work"
    workroot.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(workroot)
    tempfile.tempdir = None
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = QUICK_SECONDS if args.quick else (args.seconds or spec["run_seconds"])
    names = args.workload or list(WORKLOADS)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    unit_of = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    cpus = os.cpu_count() or 1

    results: Dict[str, Dict[str, Any]] = {}
    for name in names:
        workload = WORKLOADS[name]
        if args.shards is not None and workload.shards:
            workload = dataclasses.replace(workload, shards=args.shards)
        if workload.shards > cpus:
            print(f"== {name} --shards {workload.shards}: unmeasurable on this host "
                  f"({workload.shards} shard processes > {cpus} CPUs); no number is reported")
            return 3
        outcome = run_workload(workload, args.seed, seconds, bool(args.trace))
        missing = [m for m in wanted if m not in outcome.metrics]
        if missing:
            outcome.problems.append(f"metrics not measured: {missing}")
        print_outcome(workload, outcome, unit_of)
        results[name] = {
            "correct": outcome.failed == 0 and not outcome.problems,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "valid": outcome.valid,
            "speed": outcome.speed,
            "metrics": outcome.metrics,
            "problems": outcome.problems,
        }

    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"seed": args.seed, "seconds": seconds, "trace": args.trace,
                                     "cpu_count": cpus, "workloads": results}) + "\n")
    correct = all(r["correct"] for r in results.values())
    prefix = len(names) > 1
    metrics = {
        (f"{w}.{m}" if prefix else m): {"value": r["metrics"][m], "unit": unit_of[m]}
        for w, r in results.items()
        for m in wanted
        if m in r["metrics"]
    }
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
