"""End-user command line: build indexes, run queries, inspect graphs.

This is the operational surface a downstream user drives without
writing Python:

.. code-block:: bash

    # one-off: generate a synthetic graph (or bring your own SNAP file)
    python -m repro.cli generate --family web --n 5000 --out web.txt

    # preprocess once ...
    python -m repro.cli build-index --graph web.txt --index web-index.npz

    # ... then query as often as needed
    python -m repro.cli query --graph web.txt --index web-index.npz --vertex 42 -k 10
    python -m repro.cli pair  --graph web.txt --vertex 42 --other 99
    python -m repro.cli info  --graph web.txt

    # or run the query server and point clients at it (docs/serving.md)
    python -m repro.cli serve --graph web.txt --port 7531
    python -m repro.cli query --remote 127.0.0.1:7531 --vertex 42 -k 10

    # any command takes --metrics {off,summary,json,prom} to dump the
    # observability registry after the run (see docs/observability.md)
    python -m repro.cli query --graph web.txt --vertex 42 --metrics prom

The experiment harness has its own CLI (``python -m
repro.experiments.runner``); this one is for the library's primary use
case, top-k similarity search.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro import obs
from repro.core.config import SimRankConfig
from repro.core.engine import SimRankEngine
from repro.graph.csr import CSRGraph
from repro.graph.io import read_edge_list, write_edge_list
from repro.utils.memory import human_bytes
from repro.utils.tables import Table, format_seconds

FAMILIES = ("web", "social", "citation", "vote", "community", "random")

METRICS_MODES = ("off", "summary", "json", "prom")


def _emit_metrics(mode: str, snapshot: dict) -> None:
    """Print a registry snapshot in the requested exposition format."""
    if mode == "summary":
        table = Table(["metric", "kind", "value"], title="metrics")
        for row in obs.export.summary_rows(snapshot):
            table.add_row(row)
        print(table.render())
    elif mode == "json":
        sys.stdout.write(obs.export.to_jsonl(snapshot))
    elif mode == "prom":
        sys.stdout.write(obs.export.to_prometheus(snapshot))


def _load_graph(path: str, directed: bool) -> CSRGraph:
    graph = read_edge_list(path, directed=directed)
    assert isinstance(graph, CSRGraph)
    return graph


def _config_from_args(args: argparse.Namespace) -> SimRankConfig:
    base = SimRankConfig.paper() if args.profile == "paper" else SimRankConfig.fast()
    overrides = {}
    if args.c is not None:
        overrides["c"] = args.c
    if args.T is not None:
        overrides["T"] = args.T
    if args.theta is not None:
        overrides["theta"] = args.theta
    return base.with_(**overrides) if overrides else base


def cmd_generate(args: argparse.Namespace) -> int:
    """Write a synthetic graph in one of the paper's structural families."""
    from repro.graph import generators

    makers = {
        "web": lambda: generators.host_block_web_graph(args.n, seed=args.seed),
        "social": lambda: generators.preferential_attachment(args.n, seed=args.seed),
        "citation": lambda: generators.forest_fire(args.n, seed=args.seed),
        "vote": lambda: generators.wiki_vote_like(args.n, seed=args.seed),
        "community": lambda: generators.community_social_graph(args.n, seed=args.seed),
        "random": lambda: generators.erdos_renyi(
            args.n, min(1.0, 8.0 / args.n), seed=args.seed
        ),
    }
    graph = makers[args.family]()
    write_edge_list(graph, args.out, header=f"family={args.family} seed={args.seed}")
    print(f"wrote {graph.n} vertices / {graph.m} edges to {args.out}")
    return 0


def cmd_build_index(args: argparse.Namespace) -> int:
    """Preprocess a graph (Algorithms 3 + 4) and persist the index."""
    graph = _load_graph(args.graph, args.directed)
    engine = SimRankEngine(graph, _config_from_args(args), seed=args.seed)
    engine.preprocess()
    engine.save_index(args.index)
    stats = engine.index.signature_size_stats()
    print(
        f"indexed {graph.n} vertices / {graph.m} edges in "
        f"{format_seconds(engine.preprocess_seconds)}; "
        f"index {human_bytes(engine.index_nbytes())} "
        f"(mean signature {stats['mean']:.1f}) -> {args.index}"
    )
    return 0


def _print_top_k(vertex: int, k: int, items, footer: str) -> None:
    table = Table(["rank", "vertex", "simrank"], title=f"top-{k} for vertex {vertex}")
    for rank, (v, score) in enumerate(items, start=1):
        table.add_row([rank, v, f"{score:.5f}"])
    print(table.render())
    print(footer)


def _cmd_query_remote(args: argparse.Namespace) -> int:
    """Answer the query through a running ``repro serve`` instance."""
    from repro.serve.client import ServeClient

    host, _, port = args.remote.rpartition(":")
    host = host or "127.0.0.1"
    if not port.isdigit():
        print(f"error: --remote must be HOST:PORT, got {args.remote!r}", file=sys.stderr)
        return 2
    with ServeClient(host, int(port)) as client:
        result = client.top_k(args.vertex, k=args.k)
    _print_top_k(
        result.vertex,
        result.k,
        result.items,
        f"(remote {host}:{port}, snapshot epoch {result.epoch})",
    )
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    """Top-k similarity search against a saved (or freshly built) index."""
    if args.remote:
        return _cmd_query_remote(args)
    if not args.graph:
        print("error: query needs --graph (local) or --remote HOST:PORT",
              file=sys.stderr)
        return 2
    graph = _load_graph(args.graph, args.directed)
    engine = SimRankEngine(graph, _config_from_args(args), seed=args.seed)
    if args.index and Path(args.index).exists():
        engine.load_index(args.index)
    else:
        engine.preprocess()
    result = engine.top_k(args.vertex, k=args.k)
    _print_top_k(
        args.vertex,
        args.k,
        result.items,
        f"({result.stats.candidates} candidates, "
        f"{result.stats.pruned_by_bound} pruned, "
        f"{result.stats.refined} refined, "
        f"{format_seconds(result.stats.elapsed_seconds)})",
    )
    return 0


def cmd_pair(args: argparse.Namespace) -> int:
    """Single-pair s(u, v) by both evaluation methods."""
    graph = _load_graph(args.graph, args.directed)
    engine = SimRankEngine(graph, _config_from_args(args), seed=args.seed)
    mc = engine.single_pair(args.vertex, args.other)
    det = engine.single_pair(args.vertex, args.other, method="deterministic")
    print(f"s({args.vertex}, {args.other}) monte-carlo:    {mc:.6f}")
    print(f"s({args.vertex}, {args.other}) deterministic:  {det:.6f}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the batching, load-shedding query server (docs/serving.md)."""
    import asyncio

    from repro.core.dynamic import DynamicSimRankEngine
    from repro.serve import ServeConfig, SimRankServer

    graph = _load_graph(args.graph, args.directed)
    config = _config_from_args(args)
    print(f"preprocessing {graph.n} vertices / {graph.m} edges ...", flush=True)
    dynamic = DynamicSimRankEngine(graph, config, seed=args.seed)
    serve_config = ServeConfig(
        host=args.host,
        port=args.port,
        queue_capacity=args.capacity,
        shed_policy=args.shed_policy,
        max_batch=args.max_batch,
        batch_window=args.batch_window_ms / 1000.0,
        workers=args.serve_workers,
        cache_capacity=args.cache_capacity if args.cache_capacity > 0 else None,
        shards=args.shards,
        flush_max_staleness=args.flush_max_staleness,
        flush_max_pending=args.flush_max_pending,
        autotune=args.autotune,
        control_interval=args.control_interval,
        slo_p99_ms=args.slo_p99_ms,
    )
    server = SimRankServer(dynamic, serve_config)

    async def _run() -> None:
        port = await server.start()
        backend = (
            f"{serve_config.shards}-shard query routing"
            if serve_config.shards
            else "single-process"
        )
        autotune = (
            f"; autotune on (SLO p99 {serve_config.slo_p99_ms:g} ms)"
            if serve_config.autotune
            else ""
        )
        print(
            f"serving on {serve_config.host}:{port} "
            f"({backend}; NDJSON protocol; HTTP GET /healthz /metrics{autotune})",
            flush=True,
        )
        await server.wait_stopped()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("interrupted; shutting down")
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    """Offline knob tuning: hill-climb P/Q + batch window, emit the sidecar.

    Starts from the profile's static defaults, keeps only improving
    moves on the p99-at-fixed-accuracy objective, and writes a
    ``BENCH_tune.json`` (schema'd via :mod:`repro.utils.bench`) with
    the defaults-vs-tuned comparison per workload shape.
    """
    from repro.control.offline import WORKLOAD_SHAPES, tune_offline
    from repro.graph.generators import copying_web_graph
    from repro.utils.bench import write_sidecar

    shapes = tuple(s.strip() for s in args.shapes.split(",") if s.strip())
    unknown = set(shapes) - set(WORKLOAD_SHAPES)
    if unknown:
        print(
            f"error: unknown workload shapes {sorted(unknown)}; "
            f"choose from {WORKLOAD_SHAPES}",
            file=sys.stderr,
        )
        return 2
    if args.graph:
        graph = _load_graph(args.graph, args.directed)
    else:
        n = args.n if args.n is not None else (150 if args.quick else 400)
        graph = copying_web_graph(n, seed=args.seed)
        print(f"tuning against a generated web graph (n={graph.n}, m={graph.m})")
    payload = tune_offline(
        graph,
        base=_config_from_args(args),
        shapes=shapes,
        quick=args.quick,
        seed=args.seed,
        include_serving=args.tune_serve,
        progress=lambda msg: print(msg, flush=True),
    )
    write_sidecar(args.out, "tune", payload)
    table = Table(
        ["workload", "default p99 (ms)", "tuned p99 (ms)", "accuracy", "knobs"],
        title="offline tune",
    )
    for shape, entry in payload["workloads"].items():
        knobs = ", ".join(
            f"{name}={value:g}" for name, value in sorted(entry["knobs"].items())
        )
        table.add_row([
            shape,
            f"{entry['default']['p99_ms']:.2f}",
            f"{entry['tuned']['p99_ms']:.2f}",
            f"{entry['tuned']['accuracy']:.3f}",
            knobs,
        ])
    print(table.render())
    print(f"wrote {args.out}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the project's static-analysis rules (docs/static-analysis.md)."""
    from repro.analysis.cli import main as lint_main

    argv = list(args.paths)
    if args.rules:
        argv += ["--select", args.rules]
    if args.ignore:
        argv += ["--ignore", args.ignore]
    if args.root:
        argv += ["--root", args.root]
    if args.output_format != "text":
        argv += ["--format", args.output_format]
    if args.show_suppressed:
        argv.append("--show-suppressed")
    if args.no_cache:
        argv.append("--no-cache")
    if args.explain:
        argv.append("--explain")
    return lint_main(argv)


def cmd_info(args: argparse.Namespace) -> int:
    """Structural summary of a graph file."""
    from repro.graph.stats import average_distance, degree_summary, reciprocity

    graph = _load_graph(args.graph, args.directed)
    in_summary = degree_summary(graph, "in")
    table = Table(["property", "value"], title=str(Path(args.graph).name))
    table.add_row(["vertices", graph.n])
    table.add_row(["edges", graph.m])
    table.add_row(["mean in-degree", f"{in_summary.mean:.2f}"])
    table.add_row(["max in-degree", in_summary.maximum])
    table.add_row(["dead-end vertices", in_summary.zeros])
    table.add_row(["reciprocity", f"{reciprocity(graph):.3f}"])
    table.add_row(
        ["avg distance (sampled)", f"{average_distance(graph, samples=30, seed=0):.2f}"]
    )
    table.add_row(["adjacency bytes", human_bytes(graph.nbytes())])
    print(table.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Top-k SimRank similarity search (SIGMOD 2014 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(
        p: argparse.ArgumentParser,
        needs_graph: bool = True,
        graph_required: bool = True,
    ) -> None:
        if needs_graph:
            p.add_argument(
                "--graph",
                required=graph_required,
                default=None,
                help="edge-list file (.txt/.gz)",
            )
            p.add_argument(
                "--undirected",
                dest="directed",
                action="store_false",
                help="store each edge in both directions",
            )
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--profile", choices=("fast", "paper"), default="fast")
        p.add_argument("--c", type=float, default=None, help="decay factor")
        p.add_argument("--T", type=int, default=None, help="series length")
        p.add_argument("--theta", type=float, default=None, help="score threshold")
        p.add_argument(
            "--metrics",
            choices=METRICS_MODES,
            default="off",
            help="collect pipeline metrics and print them after the command",
        )

    p_gen = sub.add_parser("generate", help="write a synthetic graph")
    p_gen.add_argument("--family", choices=FAMILIES, default="web")
    p_gen.add_argument("--n", type=int, default=1000)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--metrics", choices=METRICS_MODES, default="off",
                       help=argparse.SUPPRESS)
    p_gen.set_defaults(fn=cmd_generate)

    p_build = sub.add_parser("build-index", help="preprocess and save the index")
    common(p_build)
    p_build.add_argument("--index", required=True, help="output .npz path")
    p_build.set_defaults(fn=cmd_build_index)

    p_query = sub.add_parser("query", help="top-k similarity search")
    common(p_query, graph_required=False)
    p_query.add_argument("--index", default=None, help="saved index (.npz)")
    p_query.add_argument("--vertex", type=int, required=True)
    p_query.add_argument("-k", type=int, default=10)
    p_query.add_argument(
        "--remote",
        default=None,
        metavar="HOST:PORT",
        help="answer through a running `repro serve` instead of a local engine",
    )
    p_query.set_defaults(fn=cmd_query)

    p_serve = sub.add_parser("serve", help="run the batching query server")
    common(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=7531,
                         help="listening port (0 = kernel-assigned)")
    p_serve.add_argument("--capacity", type=int, default=256,
                         help="admission queue bound before shedding")
    p_serve.add_argument("--shed-policy", choices=("reject-new", "drop-oldest"),
                         default="reject-new")
    p_serve.add_argument("--max-batch", type=int, default=16,
                         help="top-k requests grouped per micro-batch")
    p_serve.add_argument("--batch-window-ms", type=float, default=0.5,
                         help="how long the batcher lingers to fill a batch "
                              "(the loop times it in whole ms, so 0.5 lingers "
                              "one 1 ms tick; 0 = dispatch each read at once)")
    p_serve.add_argument("--serve-workers", type=int, default=4,
                         help="executor threads answering queries")
    p_serve.add_argument("--shards", type=int, default=0,
                         help="serve through N sharded worker processes "
                              "(0 = single-process backend)")
    p_serve.add_argument("--cache-capacity", type=int, default=1024,
                         help="per-snapshot LRU result cache size (0 disables)")
    # Accepted and ignored, so older command lines still parse: every
    # dynamic server flushes through the pipeline (docs/dynamic.md).
    p_serve.add_argument("--flush-pipeline", action="store_true",
                         help=argparse.SUPPRESS)
    p_serve.add_argument("--flush-max-staleness", type=float, default=0.2,
                         help="seconds a staged edit may wait before the "
                              "background flusher applies it")
    p_serve.add_argument("--flush-max-pending", type=int, default=1024,
                         help="staged edits that force a flush and throttle "
                              "writers")
    p_serve.add_argument("--autotune", action="store_true",
                         help="run the feedback controller that adapts batch "
                              "and walk-budget knobs toward the SLO "
                              "(docs/tuning.md)")
    p_serve.add_argument("--control-interval", type=float, default=1.0,
                         help="seconds between controller ticks")
    p_serve.add_argument("--slo-p99-ms", type=float, default=250.0,
                         help="guarded p99 latency objective for --autotune")
    p_serve.set_defaults(fn=cmd_serve)

    p_tune = sub.add_parser(
        "tune",
        help="offline hill-climb of index (P/Q) and batch-window knobs",
    )
    common(p_tune, graph_required=False)
    p_tune.add_argument("--out", default="BENCH_tune.json",
                        help="sidecar output path (default: BENCH_tune.json)")
    p_tune.add_argument("--quick", action="store_true",
                        help="CI smoke mode: fewer queries, shallower climb")
    p_tune.add_argument("--n", type=int, default=None,
                        help="generated seed-graph size when --graph is "
                             "omitted (default 150 quick / 400 full)")
    p_tune.add_argument("--shapes", default="uniform,hub",
                        help="comma-separated workload shapes to tune")
    p_tune.add_argument("--no-serve", dest="tune_serve", action="store_false",
                        help="skip the live-server batch-window measurement")
    p_tune.set_defaults(fn=cmd_tune)

    p_pair = sub.add_parser("pair", help="single-pair SimRank score")
    common(p_pair)
    p_pair.add_argument("--vertex", type=int, required=True)
    p_pair.add_argument("--other", type=int, required=True)
    p_pair.set_defaults(fn=cmd_pair)

    p_info = sub.add_parser("info", help="graph structural summary")
    common(p_info)
    p_info.set_defaults(fn=cmd_info)

    p_lint = sub.add_parser(
        "lint", help="run the project-specific static-analysis rules "
        "(R1, R3, R4, R6-R16)"
    )
    p_lint.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    p_lint.add_argument("--select", "--rules", dest="rules", default=None,
                        metavar="R1,R3,...",
                        help="comma-separated rule ids to run "
                        "(--rules is the legacy spelling)")
    p_lint.add_argument("--ignore", default=None, metavar="R1,R3,...",
                        help="comma-separated rule ids to drop from the "
                        "selected set")
    p_lint.add_argument("--root", default=None, metavar="DIR",
                        help="directory findings are rendered relative to")
    p_lint.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", dest="output_format",
                        help="output format")
    p_lint.add_argument("--show-suppressed", action="store_true",
                        help="also report findings waived by `# repro: noqa`")
    p_lint.add_argument("--no-cache", action="store_true",
                        help="bypass the .repro-lint-cache/ incremental cache")
    p_lint.add_argument("--explain", action="store_true",
                        help="list the registered rules and exit")
    p_lint.set_defaults(fn=cmd_lint)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    metrics_mode = getattr(args, "metrics", "off")
    if metrics_mode == "off":
        return int(args.fn(args))
    was_enabled = obs.enabled()
    obs.enable()
    try:
        # Collect into a private registry so repeated in-process runs
        # (tests, notebooks) each report exactly their own command.
        with obs.collecting() as registry:
            code = int(args.fn(args))
        _emit_metrics(metrics_mode, registry.snapshot())
    finally:
        if not was_enabled:
            obs.disable()
    return code


if __name__ == "__main__":
    sys.exit(main())
