"""Command-line interface: ``tea-repro`` / ``python -m repro``.

Subcommands
-----------
``info``      — dataset registry and graph statistics.
``generate``  — materialise a synthetic dataset analogue to an edge list.
``walk``      — run a walk workload on a chosen engine and print paths
                or a summary.
``compare``   — run several engines on one dataset/application and print
                the speedup table (a handheld Table 4 cell).
``serve``     — long-lived walk-serving daemon with request batching
                (see ``docs/serving.md``); ``--streaming-app`` /
                ``--wal-dir`` attach a live-ingest lane.
``ingest``    — durably ingest an edge stream into a WAL-backed
                streaming store (see ``docs/streaming.md``).
``recover``   — replay a WAL-backed store, report what survived, and
                optionally compact it into a checkpoint.
``scrub``     — verify every checksum of a persisted out-of-core trunk
                store *or* a streaming WAL directory (auto-detected)
                and locate corruption.
``bench``     — record, tabulate and regression-gate the bench history
                (paper figures run as ``pytest benchmarks/test_<fig>.py``).

Every :class:`~repro.exceptions.TeaError` raised by a subcommand exits
cleanly (message on stderr, exit code 2) instead of dumping a
traceback — operational failures are expected outcomes, not crashes.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.engines import (
    BatchTeaEngine,
    BatchTeaOutOfCoreEngine,
    CtdneEngine,
    GraphWalkerEngine,
    KnightKingEngine,
    ParallelBatchTeaEngine,
    TeaEngine,
    Workload,
)
from repro.engines.session import ENGINE_KINDS
from repro.engines.tea_outofcore import (
    DEFAULT_OOC_CACHE_BYTES,
    DEFAULT_OOC_TRUNK_SIZE,
)
from repro.benchhistory import DEFAULT_HISTORY_DIR, DEFAULT_THRESHOLD
from repro.compare import format_rows, run_engines
from repro.exceptions import TeaError
from repro.graph import io as graph_io
from repro.graph.datasets import DATASETS, load_dataset
from repro.graph.temporal_graph import TemporalGraph
from repro.kernels import BACKEND_CHOICES
from repro.parallel.engine import BACKENDS
from repro.walks.apps import APPLICATIONS

ENGINES = {
    "tea": lambda g, s: TeaEngine(g, s),
    "tea-batch": lambda g, s: BatchTeaEngine(g, s),
    "tea-pat": lambda g, s: TeaEngine(g, s, structure="pat"),
    "tea-its": lambda g, s: TeaEngine(g, s, structure="its"),
    "tea-ooc-batch": lambda g, s: BatchTeaOutOfCoreEngine(g, s),
    "graphwalker": lambda g, s: GraphWalkerEngine(g, s),
    "graphwalker-ooc": lambda g, s: GraphWalkerEngine(g, s, out_of_core=True),
    "knightking": lambda g, s: KnightKingEngine(g, s, nodes=8),
    "knightking-1node": lambda g, s: KnightKingEngine(g, s, nodes=1),
    "ctdne": lambda g, s: CtdneEngine(g, s),
    "tea-parallel": lambda g, s: ParallelBatchTeaEngine(g, s),
}


def _load_graph(args) -> TemporalGraph:
    if args.input:
        return TemporalGraph.from_stream(graph_io.load_auto(args.input))
    return load_dataset(args.dataset, seed=args.seed, scale=args.scale)


def _add_graph_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default="growth", choices=sorted(DATASETS))
    parser.add_argument("--input", help="edge-list file instead of a named dataset")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    """The executor flags ``walk`` and ``serve`` share; :func:`_engine_kwargs`
    maps them to constructor arguments."""
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="run chunk-parallel with N pool workers "
                             "(walk: implies --engine tea-parallel)")
    parser.add_argument("--chunk-size", type=int, default=None, metavar="M",
                        help="lanes per work-queue chunk (default: one equal "
                             "share per worker, each at most one frontier slice)")
    parser.add_argument("--parallel-backend", default="auto",
                        choices=list(BACKENDS),
                        help="worker pool type for tea-parallel")
    parser.add_argument("--kernel-backend", default="auto",
                        choices=list(BACKEND_CHOICES),
                        help="sampling-kernel implementation for the batch "
                             "engines (auto = the compiled C passes when the "
                             "system cc built them, else numpy; same walks "
                             "either way)")
    parser.add_argument("--retries", type=int, default=2, metavar="R",
                        help="retry budget: transient I/O retries per read and "
                             "re-executions per failed parallel chunk")
    parser.add_argument("--chunk-timeout", type=float, default=None, metavar="S",
                        help="seconds before a parallel chunk is declared hung "
                             "and requeued (default: no watchdog)")
    parser.add_argument("--fault-plan", metavar="PLAN",
                        help="chaos testing: JSON fault plan (inline or a file "
                             "path) injected into the engine's risky layers")


def _engine_kwargs(args, kind: str) -> dict:
    """Constructor arguments of engine ``kind`` from :func:`_add_engine_args`.
    The fault plan is parsed whatever the kind, so a bad one always fails."""
    from repro.resilience import RetryPolicy, load_fault_injector

    injector = load_fault_injector(args.fault_plan)
    if kind == "tea-parallel":
        return {
            "workers": args.workers,
            "chunk_size": args.chunk_size,
            "backend": args.parallel_backend,
            "retries": args.retries,
            "chunk_timeout": args.chunk_timeout,
            "fault_injector": injector,
            "kernel_backend": args.kernel_backend,
        }
    if kind == "tea-ooc-batch":
        # Backoff jitter is seeded from the run seed, so it reproduces too.
        return {
            "retry_policy": RetryPolicy(max_retries=args.retries, seed=args.seed),
            "fault_injector": injector,
        }
    if kind == "tea-batch":
        return {"kernel_backend": args.kernel_backend}
    return {}


def cmd_info(args) -> int:
    if args.dataset or args.input:
        graph = _load_graph(args)
        print(graph)
        degrees = graph.degrees()
        if degrees.size:
            print(f"degree: mean={graph.mean_degree():.2f} max={graph.max_degree()}")
        return 0
    return 0


def cmd_generate(args) -> int:
    spec = DATASETS[args.dataset]
    stream = spec.generate(seed=args.seed, scale=args.scale)
    if args.output.endswith(".tegb"):
        graph_io.save_binary(stream, args.output)
    else:
        graph_io.save_edge_list(stream, args.output)
    print(f"wrote {len(stream)} edges to {args.output}")
    return 0


def cmd_walk(args) -> int:
    graph = _load_graph(args)
    spec = APPLICATIONS[args.app]
    # --workers selects the chunk-parallel executor and overrides --engine
    # (the parallel engine runs the tea-batch kernel, so semantics match).
    kind = "tea-parallel" if args.workers else args.engine
    kwargs = _engine_kwargs(args, kind)
    if kind == "tea-parallel":
        engine = ParallelBatchTeaEngine(graph, spec, **kwargs)
    elif kind == "tea-ooc-batch":
        engine = BatchTeaOutOfCoreEngine(
            graph, spec, trunk_size=args.ooc_trunk_size,
            cache_bytes=args.cache_bytes,
            prefetch=args.prefetch == "on",
            verify_checksums=args.verify_checksums,
            **kwargs,
        )
    elif kind == "tea-batch":
        engine = BatchTeaEngine(graph, spec, **kwargs)
    else:
        engine = ENGINES[kind](graph, spec)
    workload = Workload(
        walks_per_vertex=args.walks_per_vertex,
        max_length=args.length,
        max_walks=args.max_walks,
    )
    from repro.telemetry import (
        EventLog,
        MetricsRegistry,
        PhaseProfiler,
        format_stats_table,
        to_prometheus,
        write_run_report,
    )
    from repro.telemetry import events as telemetry_events
    from repro.telemetry.clock import now as _now

    registry = MetricsRegistry()
    # One event log per run, installed process-wide so every
    # instrumented layer (and forked pool workers) stamps the same
    # run_id. Installed even without --events-out: the run report's
    # meta carries the run_id either way.
    event_log = EventLog()
    previous_log = telemetry_events.install(event_log)
    profiling = bool(args.profile or args.profile_out)
    if profiling or args.trace_sample:
        # One recorder for the profile and the sampled walk spans.
        engine.profiler = PhaseProfiler(calibrate=profiling)
        engine.profiler.walk_sample_every = args.trace_sample
    try:
        wall_start = _now()
        result = engine.run(workload, seed=args.seed, registry=registry)
        wall_seconds = _now() - wall_start
    finally:
        telemetry_events.install(previous_log)
        # One CLI invocation = one engine lifetime: release warm pools
        # before reporting.
        close = getattr(engine, "close", None)
        if close is not None:
            close()
    report = result.run_report(meta={
        "dataset": args.dataset or args.input,
        "run_id": event_log.run_id,
    })
    if args.stats:
        print(format_stats_table(report))
    else:
        for key, value in result.summary().items():
            print(f"{key}: {value}")
    if profiling:
        print(engine.profiler.format_table(wall_seconds=wall_seconds))
    try:
        if args.trace_out:
            write_run_report(args.trace_out, report)
            print(f"run report -> {args.trace_out}")
        if args.prom_out:
            with open(args.prom_out, "w") as fh:
                fh.write(to_prometheus(registry))
            print(f"prometheus exposition -> {args.prom_out}")
        if args.profile_out:
            with open(args.profile_out, "w") as fh:
                fh.write(engine.profiler.collapsed_stacks())
            print(f"collapsed stacks -> {args.profile_out}")
        if args.events_out:
            count = event_log.write(args.events_out)
            print(f"event log ({count} events, run {event_log.run_id}) "
                  f"-> {args.events_out}")
    except OSError as exc:
        print(f"cannot write telemetry output: {exc}", file=sys.stderr)
        return 1
    if args.show_paths:
        for path in result.paths[: args.show_paths]:
            hops = " -> ".join(
                f"{v}" if t is None else f"{v}@{t:g}" for v, t in path.hops
            )
            print(hops)
    return 0


#: Streaming-capable applications (weight-only; node2vec's Dynamic
#: parameter needs the static adjacency oracle and is rejected by the
#: streaming engine).
STREAM_APPS = ("linear", "exponential", "unbiased", "decay")


def _stream_spec(app: str, scale: Optional[float] = None):
    """Build the weight-only :class:`WalkSpec` for streaming commands."""
    from repro.core.weights import WeightModel
    from repro.walks.apps import (
        DEFAULT_EXP_SCALE,
        exponential_walk,
        linear_walk,
        unbiased_walk,
    )
    from repro.walks.spec import WalkSpec

    if app == "linear":
        return linear_walk()
    if app == "unbiased":
        return unbiased_walk()
    if app == "exponential":
        return exponential_walk(
            scale=scale if scale is not None else DEFAULT_EXP_SCALE
        )
    return WalkSpec(
        name="decay",
        weight_model=WeightModel(
            "exponential_decay",
            scale=scale if scale is not None else DEFAULT_EXP_SCALE,
        ),
    )


def _load_stream(args):
    if args.input:
        return graph_io.load_auto(args.input)
    return DATASETS[args.dataset].generate(seed=args.seed, scale=args.scale)


def cmd_ingest(args) -> int:
    """Durably ingest an edge stream into a WAL-backed streaming store."""
    from repro.streaming import StreamingTeaEngine
    from repro.telemetry.clock import now as _now

    stream = _load_stream(args)
    spec = _stream_spec(args.app, args.exp_scale)
    with StreamingTeaEngine(
        spec, wal_dir=args.wal_dir, group_commit=args.group_commit
    ) as engine:
        if engine.recovered_batches:
            print(f"recovered {engine.recovered_batches} batch(es) "
                  f"({engine.recovered_edges} edges) -> epoch {engine.epoch}")
        t0 = _now()
        if args.batch_size:
            batches = engine.ingest(stream, batch_size=args.batch_size)
        else:
            engine.add_multiple_edges(stream.src, stream.dst, stream.time)
            batches = 1
        engine.wal.sync()
        elapsed = _now() - t0
        rate = len(stream) / max(elapsed, 1e-9)
        print(f"ingested {len(stream)} edges in {batches} batch(es) "
              f"({rate:,.0f} edges/s) -> epoch {engine.epoch}, "
              f"{engine.num_edges} edges total")
        if args.checkpoint:
            manifest = engine.checkpoint()
            print(f"checkpoint: epoch {manifest['epoch']}, "
                  f"{manifest['num_edges']} edges, WAL trimmed to "
                  f"segment {manifest['wal']['segment']}")
    return 0


def cmd_recover(args) -> int:
    """Replay a durable streaming store and report what survived."""
    from pathlib import Path

    from repro.streaming import StreamingTeaEngine

    if not Path(args.wal_dir).is_dir():
        print(f"not a directory: {args.wal_dir}", file=sys.stderr)
        return 2
    spec = _stream_spec(args.app, args.exp_scale)
    with StreamingTeaEngine(spec, wal_dir=args.wal_dir) as engine:
        print(f"{args.wal_dir}: recovered {engine.recovered_batches} "
              f"batch(es), {engine.recovered_edges} edges -> "
              f"epoch {engine.epoch}, {engine.num_edges} edges")
        torn = engine.wal.truncated_tail_bytes
        if torn:
            print(f"torn tail: {torn} byte(s) truncated from the last segment")
        if args.walks:
            starts = engine.active_vertices()[: args.walks]
            paths = engine.run_walks(starts, max_length=args.length,
                                     seed=args.seed)
            hops = sum(p.num_edges for p in paths)
            print(f"verification walks: {len(paths)} walks, {hops} hops")
        if args.checkpoint:
            manifest = engine.checkpoint()
            print(f"checkpoint: epoch {manifest['epoch']}, "
                  f"{manifest['num_edges']} edges, WAL trimmed to "
                  f"segment {manifest['wal']['segment']}")
    return 0


def cmd_stats(args) -> int:
    if args.report:
        from repro.telemetry import format_stats_table, load_run_report

        try:
            report = load_run_report(args.report)
        except OSError as exc:
            print(f"cannot read run report: {exc}", file=sys.stderr)
            return 1
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        print(format_stats_table(report))
        return 0
    graph = _load_graph(args)
    from repro.core.weights import WeightModel
    from repro.graph.stats import graph_stats, predict_sampling_costs

    for key, value in graph_stats(graph).snapshot().items():
        print(f"{key}: {value}")
    if args.predict_costs:
        pred = predict_sampling_costs(
            graph, WeightModel("exponential", scale=args.exp_scale)
        )
        print("\nanalytic sampling cost (edges/step, paper Figure 2 model):")
        for key, value in pred.snapshot().items():
            print(f"  {key}: {value}")
    return 0


def cmd_corpus(args) -> int:
    graph = _load_graph(args)
    spec = APPLICATIONS[args.app]
    engine = ENGINES[args.engine](graph, spec)
    from repro.walks.sink import WalkSink

    workload = Workload(walks_per_vertex=args.walks_per_vertex,
                        max_length=args.length, max_walks=args.max_walks)
    with WalkSink(args.output) as sink:
        result = engine.run(workload, seed=args.seed, record_paths=False, sink=sink)
    print(f"wrote {sink.walks_written} walks ({result.total_steps} hops) "
          f"to {args.output} in {sink.flushes} blocks")
    return 0


def cmd_validate_corpus(args) -> int:
    graph = _load_graph(args)
    from repro.walks.sink import validate_corpus

    count, problems = validate_corpus(graph, args.corpus)
    print(f"{args.corpus}: {count} walks, {len(problems)} problems")
    for index, reason in problems[:20]:
        print(f"  walk {index}: {reason}")
    return 0 if not problems else 1


def _bench_record(args) -> int:
    """``bench record``: append one normalized record to the history."""
    import json

    from repro import benchhistory

    if not args.bench:
        print("bench record requires --bench NAME", file=sys.stderr)
        return 2
    if not args.metrics:
        print("bench record requires --metrics JSON", file=sys.stderr)
        return 2
    try:
        metrics = json.loads(args.metrics)
    except ValueError as exc:
        print(f"--metrics is not valid JSON: {exc}", file=sys.stderr)
        return 2
    if not isinstance(metrics, dict):
        print("--metrics must be a JSON object of name -> number",
              file=sys.stderr)
        return 2
    try:
        record = benchhistory.make_record(args.bench, metrics)
    except TypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    path = benchhistory.append_record(record, args.history_dir)
    print(f"recorded {len(metrics)} metric(s) for {args.bench} -> {path}")
    return 0


def _bench_history(args) -> int:
    """``bench history``: print the trend table for one benchmark."""
    from repro import benchhistory

    if not args.bench:
        print("bench history requires --bench NAME", file=sys.stderr)
        return 2
    records = benchhistory.load_history(args.bench, args.history_dir)
    if not records:
        print(f"no history for {args.bench!r} in {args.history_dir}")
        return 1
    print(benchhistory.format_history(records, limit=args.limit))
    return 0


def _bench_compare(args) -> int:
    """``bench compare``: regression-gate latest vs baseline (exit 1)."""
    from repro import benchhistory

    if not args.bench:
        print("bench compare requires --bench NAME", file=sys.stderr)
        return 2
    try:
        result = benchhistory.compare(
            args.bench, args.history_dir,
            baseline_index=args.baseline, threshold=args.threshold,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(benchhistory.format_compare(result))
    return 0 if result["ok"] else 1


BENCH_VERBS = {
    "record": _bench_record,
    "history": _bench_history,
    "compare": _bench_compare,
}


def cmd_bench(args) -> int:
    """One bench-history verb: record, history or compare."""
    return BENCH_VERBS[args.verb](args)


def _scrub_wal_dir(directory: str) -> int:
    """WAL-directory arm of ``repro scrub`` (same 0/1/2 exit contract)."""
    from repro.streaming.wal import scrub_wal

    try:
        report = scrub_wal(directory)
    except OSError as exc:
        print(f"cannot open WAL directory: {exc}", file=sys.stderr)
        return 2
    print(f"{report['directory']}: {report['frames_checked']} WAL frame(s) "
          f"in {report['segments']} segment(s) checked")
    manifest = report.get("manifest")
    if manifest is not None:
        state = "ok" if manifest["ok"] else "CORRUPT"
        print(f"  checkpoint manifest: epoch {manifest['epoch']}, "
              f"{manifest['num_edges']} edges — {state}")
    torn = report.get("torn_tail")
    if torn is not None:
        print(f"  torn tail in {torn['file']} at byte {torn['offset_bytes']}: "
              f"{torn['reason']} — repaired on next open, not corruption")
    for rec in report["corrupt"]:
        print(f"  {rec['file']} (byte offset {rec['offset_bytes']}): "
              f"{rec['reason']}")
    if report["clean"]:
        print("clean: all frame and checkpoint checksums match")
        return 0
    print(f"CORRUPT: {len(report['corrupt'])} problem(s) found")
    return 1


def cmd_scrub(args) -> int:
    """Verify a persisted trunk store's (or WAL directory's) checksums."""
    from pathlib import Path

    from repro.core.outofcore import scrub_store

    target = Path(args.directory)
    if (target / "MANIFEST.json").exists() or any(target.glob("wal-*.log")):
        return _scrub_wal_dir(args.directory)
    try:
        report = scrub_store(args.directory)
    except OSError as exc:
        print(f"cannot open trunk store: {exc}", file=sys.stderr)
        return 2
    print(f"{report['directory']}: {report['pages_checked']} pages checked")
    for rec in report["corrupt"]:
        if rec.get("page") is None:
            print(f"  {rec['file']}: {rec['reason']}")
        else:
            print(
                f"  {rec['file']} page {rec['page']} "
                f"(byte offset {rec['offset_bytes']}): "
                f"expected {rec['expected']:#010x}, got {rec['actual']:#010x}"
            )
    if report["clean"]:
        print("clean: all checksums match")
        return 0
    print(f"CORRUPT: {len(report['corrupt'])} problem(s) found")
    return 1


def cmd_compare(args) -> int:
    graph = _load_graph(args)
    spec = APPLICATIONS[args.app]
    engines = {name: ENGINES[name] for name in args.engines}
    workload = Workload(max_length=args.length, max_walks=args.max_walks)
    rows = run_engines(graph, spec, engines, workload, seed=args.seed,
                       dataset=args.dataset, telemetry_dir=args.telemetry_dir)
    print(format_rows(rows, title=f"{args.dataset} / {args.app} ({workload.describe()})"))
    if args.telemetry_dir:
        print(f"per-engine run reports -> {args.telemetry_dir}/")
    return 0


#: Events a daemon started with --events-out keeps (the most recent).
SERVE_EVENT_TAIL = 65_536


def cmd_serve(args) -> int:
    from repro.serve import WalkService
    from repro.telemetry import EventLog
    from repro.telemetry import events as telemetry_events

    graph = _load_graph(args)
    engine_kwargs = _engine_kwargs(args, args.serve_engine)
    streaming = None
    if args.streaming_app or args.wal_dir:
        from repro.streaming import StreamingTeaEngine

        streaming = StreamingTeaEngine(
            _stream_spec(args.streaming_app or "exponential",
                         args.streaming_scale),
            wal_dir=args.wal_dir,
            group_commit=args.group_commit,
            retain_epochs=args.retain_epochs,
        )
    # No --events-out, no log: nobody would ever drain it.
    event_log = EventLog() if args.events_out else None
    previous_log = telemetry_events.install(event_log)
    service = WalkService(
        graph,
        engine=args.serve_engine,
        engine_kwargs=engine_kwargs,
        max_engines=args.max_engines,
        max_bytes=args.max_bytes,
        queue_depth=args.queue_depth,
        max_batch=args.max_batch,
        batching=not args.no_batching,
        host=args.host,
        port=args.port,
        streaming=streaming,
    )
    try:
        service.start()
        print(f"serving on http://{service.host}:{service.port} "
              f"(engine={args.serve_engine}, "
              f"batching={'off' if args.no_batching else 'on'})")
        print("endpoints: POST /walk /recommend /gnn/sample · "
              "GET /healthz /metrics /stats — Ctrl-C to stop")
        if streaming is not None:
            durable = "durable" if streaming.durable else "in-memory"
            print(f"streaming: POST /stream/ingest /stream/walk "
                  f"/stream/recommend · GET /stream/epoch "
                  f"(epoch {streaming.epoch}, {durable})")
        try:
            while True:  # idle, but keep only the log's recent tail
                time.sleep(1.0)
                if event_log is not None:
                    event_log.trim(SERVE_EVENT_TAIL)
        except KeyboardInterrupt:
            print("\nshutting down ...")
    finally:
        clean = service.close(timeout=10.0)
        telemetry_events.install(previous_log)
        if event_log is not None:
            count = event_log.write(args.events_out)
            print(f"event log ({count} events, {event_log.dropped} older "
                  f"dropped) -> {args.events_out}")
    print(f"shutdown {'clean' if clean else 'TIMED OUT'}")
    return 0 if clean else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tea-repro",
        description="TEA temporal graph random walk engine (EuroSys '23 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="dataset registry / graph statistics")
    _add_graph_args(p)
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("generate", help="write a synthetic dataset to disk")
    _add_graph_args(p)
    p.add_argument("output")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("walk", help="run a walk workload")
    _add_graph_args(p)
    p.add_argument("--app", default="node2vec", choices=sorted(APPLICATIONS))
    p.add_argument("--engine", default="tea", choices=sorted(ENGINES))
    p.add_argument("--length", type=int, default=80)
    p.add_argument("--walks-per-vertex", type=int, default=1)
    p.add_argument("--max-walks", type=int, default=None)
    _add_engine_args(p)
    p.add_argument("--cache-bytes", type=int, default=DEFAULT_OOC_CACHE_BYTES,
                   metavar="B",
                   help="re-entry cache budget for the out-of-core engines "
                        "(0 disables caching)")
    p.add_argument("--ooc-trunk-size", type=int,
                   default=DEFAULT_OOC_TRUNK_SIZE, metavar="T",
                   help="trunk size for the out-of-core PAT spill")
    p.add_argument("--prefetch", default="on", choices=["on", "off"],
                   help="async trunk prefetch for tea-ooc-batch")
    p.add_argument("--verify-checksums", action="store_true",
                   help="verify per-page CRC32 checksums on every "
                        "out-of-core trunk read")
    p.add_argument("--show-paths", type=int, default=0)
    p.add_argument("--stats", action="store_true",
                   help="print the full telemetry table instead of the summary")
    p.add_argument("--trace-out", metavar="PATH",
                   help="write the schema-versioned JSON run report here")
    p.add_argument("--trace-sample", type=int, default=16, metavar="N",
                   help="trace 1 in N walks with per-step spans (0 disables)")
    p.add_argument("--prom-out", metavar="PATH",
                   help="write Prometheus text exposition here")
    p.add_argument("--profile", action="store_true",
                   help="phase-profile the run and print the cost table "
                        "(gather/draw/scatter, ooc read/decode/cache, ...)")
    p.add_argument("--profile-out", metavar="PATH",
                   help="write flamegraph-compatible collapsed stacks here "
                        "(implies --profile)")
    p.add_argument("--events-out", metavar="PATH",
                   help="write the structured JSONL event log here "
                        "(retries, degradations, evictions, ... with run_id)")
    p.set_defaults(fn=cmd_walk)

    p = sub.add_parser("serve", help="walk-serving daemon (see docs/serving.md)")
    _add_graph_args(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8214,
                   help="listen port (0 picks a free one)")
    p.add_argument("--engine", dest="serve_engine", default="tea-batch",
                   choices=list(ENGINE_KINDS),
                   help="engine kind built per cached (window, weights) entry")
    _add_engine_args(p)
    p.add_argument("--max-engines", type=int, default=8,
                   help="prepared-engine LRU capacity")
    p.add_argument("--max-bytes", type=int, default=None,
                   help="resident-index byte budget for the engine LRU")
    p.add_argument("--queue-depth", type=int, default=64,
                   help="admission bound: parked requests before 429")
    p.add_argument("--max-batch", type=int, default=64,
                   help="max requests coalesced into one frontier run")
    p.add_argument("--no-batching", action="store_true",
                   help="serve each request as its own frontier run")
    p.add_argument("--streaming-app", default=None, choices=STREAM_APPS,
                   help="attach a live-ingest lane (/stream/* endpoints) "
                        "running this weight-only application")
    p.add_argument("--streaming-scale", type=float, default=None,
                   help="weight-model scale for the streaming application")
    p.add_argument("--wal-dir", metavar="DIR",
                   help="durable streaming: write-ahead log + checkpoint "
                        "directory (implies --streaming-app exponential; "
                        "recovers existing state on startup)")
    p.add_argument("--group-commit", type=int, default=8, metavar="N",
                   help="WAL fsync barrier every N appended batches")
    p.add_argument("--retain-epochs", type=int, default=4, metavar="K",
                   help="recent epoch views pinnable by id via /stream/walk")
    p.add_argument("--events-out", metavar="PATH",
                   help="write the structured event log as JSONL on shutdown")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "ingest", help="durably ingest an edge stream (see docs/streaming.md)"
    )
    _add_graph_args(p)
    p.add_argument("wal_dir", help="WAL + checkpoint directory (created if "
                                   "missing; recovered first if not empty)")
    p.add_argument("--app", default="exponential", choices=STREAM_APPS)
    p.add_argument("--exp-scale", type=float, default=None,
                   help="weight-model scale (default: the app's default)")
    p.add_argument("--batch-size", type=int, default=0, metavar="B",
                   help="ingest in B-edge batches instead of one bulk "
                        "add_multiple_edges call")
    p.add_argument("--group-commit", type=int, default=8, metavar="N",
                   help="WAL fsync barrier every N appended batches")
    p.add_argument("--checkpoint", action="store_true",
                   help="write a checkpoint and trim the WAL afterwards")
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser(
        "recover", help="replay a durable streaming store and report"
    )
    p.add_argument("wal_dir", help="WAL + checkpoint directory to recover")
    p.add_argument("--app", default="exponential", choices=STREAM_APPS)
    p.add_argument("--exp-scale", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--walks", type=int, default=0, metavar="N",
                   help="run N verification walks on the recovered store")
    p.add_argument("--length", type=int, default=20,
                   help="max length of the verification walks")
    p.add_argument("--checkpoint", action="store_true",
                   help="compact: write a checkpoint and trim the WAL")
    p.set_defaults(fn=cmd_recover)

    p = sub.add_parser("bench", help="record or query bench history")
    p.add_argument("verb", choices=sorted(BENCH_VERBS),
                   help="record (append --metrics JSON), history (trend "
                        "table), compare (regression gate, exit 1)")
    p.add_argument("--bench", metavar="NAME",
                   help="benchmark name for record/history/compare")
    p.add_argument("--metrics", metavar="JSON",
                   help="flat JSON object of metric -> number (record)")
    p.add_argument("--history-dir", default=str(DEFAULT_HISTORY_DIR),
                   metavar="DIR",
                   help="bench-history store (default bench_results/history)")
    p.add_argument("--baseline", type=int, default=None, metavar="I",
                   help="history record index to compare against "
                        "(default -2: the previous run; negatives count "
                        "from the end)")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                   metavar="F",
                   help="relative regression gate for compare (default 0.10)")
    p.add_argument("--limit", type=int, default=10,
                   help="rows in the history trend table")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("corpus", help="generate a walk corpus to disk")
    _add_graph_args(p)
    p.add_argument("output", help="corpus path (.txt or .twalks)")
    p.add_argument("--app", default="exponential", choices=sorted(APPLICATIONS))
    p.add_argument("--engine", default="tea-batch", choices=sorted(ENGINES))
    p.add_argument("--length", type=int, default=80)
    p.add_argument("--walks-per-vertex", type=int, default=1)
    p.add_argument("--max-walks", type=int, default=None)
    p.set_defaults(fn=cmd_corpus)

    p = sub.add_parser("validate-corpus", help="check a corpus against a graph")
    _add_graph_args(p)
    p.add_argument("corpus")
    p.set_defaults(fn=cmd_validate_corpus)

    p = sub.add_parser("stats", help="graph statistics + analytic cost model")
    _add_graph_args(p)
    p.add_argument("--predict-costs", action="store_true")
    p.add_argument("--exp-scale", type=float, default=6.0)
    p.add_argument("--report", metavar="PATH",
                   help="replay a saved JSON run report instead of graph stats")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser(
        "scrub", help="verify checksums of a trunk store or WAL directory"
    )
    p.add_argument("directory",
                   help="trunk store (c.bin etc.) or streaming WAL "
                        "directory (wal-*.log / MANIFEST.json) — detected "
                        "automatically")
    p.set_defaults(fn=cmd_scrub)

    p = sub.add_parser("compare", help="run several engines and tabulate")
    _add_graph_args(p)
    p.add_argument("--app", default="node2vec", choices=sorted(APPLICATIONS))
    p.add_argument(
        "--engines", nargs="+", default=["tea", "graphwalker", "knightking"],
        choices=sorted(ENGINES),
    )
    p.add_argument("--length", type=int, default=80)
    p.add_argument("--max-walks", type=int, default=200)
    p.add_argument("--telemetry-dir", metavar="DIR",
                   help="write one JSON run report per engine into DIR")
    p.set_defaults(fn=cmd_compare)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except TeaError as exc:
        # Operational failures (bad fault plan, corrupt store, exhausted
        # retry budget, ...) are expected outcomes of a CLI run: report
        # them cleanly instead of dumping a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
