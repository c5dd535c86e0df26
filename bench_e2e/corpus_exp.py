"""``corpus_exp``: the paper's Table 4 shape — a whole walk corpus in memory.

Why it exists: every vertex starts many walkers, so the frontier is
wide (hundreds of thousands of lanes) and ~96 % of a round is the
``repro.kernels`` gather/draw/scatter loop. The kernel and engine layers
do nearly all the work; I/O, HTTP and the WAL do none. A kernel change
tuned for wide frontiers shows here first.

Unit = one ``BatchTeaEngine.run`` round; work unit = walk step; set-up =
``TemporalGraph.from_stream`` + ``engine.prepare()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.core import builder
from repro.engines.base import Workload
from repro.engines.batch import BatchTeaEngine, hpat_sample_batch
from repro.graph.temporal_graph import TemporalGraph
from repro.parallel import ParallelBatchTeaEngine
from repro.rng import make_rng, spawn_seeds
from repro.telemetry import NULL_PROFILER, PhaseProfiler
from repro.walks.sink import WalkSink

from bench_e2e import checks, rounds
from bench_e2e.common import fresh_dir, round_seed
from bench_e2e.spans import Recorder

NAME = "corpus_exp"
WHY = ("wide frontier in memory: the sampling kernel and batch engine do "
       "~96% of the work, I/O, HTTP and WAL none (paper Table 4 shape)")


@dataclass(frozen=True)
class Size:
    scale: float           # twitter analogue scale (3.0 -> 8100 V / 600k E)
    walks_per_vertex: int  # ~0.5 s rounds at full size
    sink_walks_per_vertex: int
    chi2_draws: int


FULL = Size(scale=3.0, walks_per_vertex=120, sink_walks_per_vertex=8,
            chi2_draws=checks.CHI2_DRAWS)
QUICK = Size(scale=0.3, walks_per_vertex=120, sink_walks_per_vertex=8,
             chi2_draws=4_000)

KERNEL_WIDTHS = (256, 4096, 65536)


def _workload(size: Size) -> Workload:
    return Workload(walks_per_vertex=size.walks_per_vertex,
                    max_length=rounds.MAX_LENGTH)


def _build(stream) -> BatchTeaEngine:
    engine = BatchTeaEngine(TemporalGraph.from_stream(stream), rounds.spec())
    engine.prepare()
    return engine


def measure(seed: int, seconds: float, quick: bool) -> Tuple[Dict[str, float], checks.Ops]:
    size = QUICK if quick else FULL
    stream = rounds.generate(seed, size.scale)
    return rounds.measure(NAME, stream, lambda: _build(stream), _workload(size),
                          seed, seconds, size.chi2_draws)


def trace(rec: Recorder, seed: int, quick: bool) -> Tuple[Dict[str, float], checks.Ops]:
    size = QUICK if quick else FULL
    spec = rounds.spec()
    stream = rounds.generate(seed, size.scale)
    out: Dict[str, float] = {}

    with rec.span("setup"):
        with rec.span("graph.from_stream", edges=len(stream)) as sp:
            graph = TemporalGraph.from_stream(stream)
        out["graph.from_stream_s"] = sp["end"] - sp["start"]
        with rec.span("core.preprocess") as sp:
            pre = builder.preprocess(graph, spec.weight_model)
            report = pre.report
            at = sp["start"]
            for name, seconds in (
                ("core.candidate_search", report.candidate_search_seconds),
                ("core.weights", report.weight_seconds),
                ("core.build_hpat", report.index_build_seconds),
                ("core.aux_index", report.aux_index_seconds),
            ):
                rec.add(name, at, seconds)
                at += seconds
        out["core.preprocess_s"] = sp["end"] - sp["start"]
    out["core.candidate_search_s"] = report.candidate_search_seconds
    out["core.build_hpat_s"] = report.index_build_seconds
    out["core.index_bytes"] = pre.index.nbytes()
    out["core.index_bytes_per_edge"] = pre.index.nbytes() / graph.num_edges
    engine = BatchTeaEngine.from_prepared(graph, spec, pre.index,
                                          pre.candidate_sizes)

    workload = _workload(size)
    out.update(rounds.trace_rounds(rec, engine, workload, seed))
    out.update(_kernel_draws(rec, engine, seed))
    out.update(_profiled_round(rec, engine, workload, seed))
    out.update(_parallel_round(rec, graph, spec, workload, seed))
    out.update(_sink(rec, engine, size, seed))

    walks = graph.num_vertices * size.walks_per_vertex
    with rec.span("rng.spawn_seeds", walks=walks) as sp:
        spawn_seeds(make_rng(seed), walks)
    out["rng.spawn_seeds_ns_per_walk"] = (sp["end"] - sp["start"]) / walks * 1e9

    ops = checks.Ops()
    rounds.check_engine(ops, NAME, engine, stream, seed, size.chi2_draws)
    return out, ops


def _kernel_draws(rec: Recorder, engine, seed: int) -> Dict[str, float]:
    """ns per draw of the standalone frontier kernel on the workload's
    own index, at a narrow, a medium and a wide frontier."""
    graph = engine.graph
    degrees = np.diff(graph.indptr)
    sources = np.flatnonzero(degrees > 0)
    rng = np.random.default_rng(seed)
    out = {}
    for width in KERNEL_WIDTHS:
        vs = rng.choice(sources, size=width)
        ss = degrees[vs].astype(np.int64)
        repeats = max(3, 65536 // width // 8)
        with rec.span("kernels.hpat_sample_batch", width=width, calls=repeats):
            best = rounds.best_of(
                lambda: hpat_sample_batch(engine.index, vs, ss, rng), repeats)
        out[f"kernels.draw_ns_w{width}"] = best / width * 1e9
    return out


def _profiled_round(rec: Recorder, engine, workload, seed: int) -> Dict[str, float]:
    """One round with the program's PhaseProfiler on, against the same
    round with it off: the gather/draw/scatter split of the walk phase
    and what the profiler costs (ROADMAP budget: ratio < 1.05)."""
    run = lambda: engine.run(workload, seed=round_seed(seed, 0), record_paths=False)
    off = rounds.best_of(run, 2)
    profiler = engine.profiler = PhaseProfiler()
    try:
        with rec.span("telemetry.profiled_round"):
            on = rounds.best_of(run, 2)
    finally:
        engine.profiler = NULL_PROFILER
    walk = profiler.phase_seconds("walk")
    return {
        "telemetry.profiler_overhead_ratio": on / off,
        **{f"kernels.{phase}_share": profiler.phase_seconds(phase) / walk
           for phase in ("gather", "draw", "scatter")},
    }


def _parallel_round(rec: Recorder, graph, spec, workload, seed: int) -> Dict[str, float]:
    """One corpus round through 2 forked workers (informational on a
    2-core box where the bench process itself holds a core). Workers
    inherit the index copy-on-write, so nothing is written to /dev/shm."""
    engine = ParallelBatchTeaEngine(graph, spec, workers=2, backend="process",
                                    share_mode="inherit")
    try:
        with rec.span("parallel.prepare"):
            engine.prepare()
        with rec.span("parallel.cold_round"):
            cold = engine.run(workload, seed=round_seed(seed, 0), record_paths=False)
        with rec.span("parallel.warm_round") as sp:
            warm = engine.run(workload, seed=round_seed(seed, 0), record_paths=False)
    finally:
        engine.close()
    registry = cold.registry
    return {
        "parallel.w2_round_s": sp["end"] - sp["start"],
        "parallel.w2_startup_attach_s": (
            registry.gauge_value("parallel.pool_startup_seconds")
            + registry.gauge_value("parallel.attach_seconds")),
        "parallel.w2_queue_wait_s":
            warm.registry.histogram("parallel.queue_wait_seconds").total,
    }


def _sink(rec: Recorder, engine, size: Size, seed: int) -> Dict[str, float]:
    """Write one (smaller) round's paths through ``WalkSink``. Corpus
    rounds do not write today; this guards the path for later issues."""
    result = engine.run(
        Workload(walks_per_vertex=size.sink_walks_per_vertex,
                 max_length=rounds.MAX_LENGTH),
        seed=seed, record_paths=True,
    )
    path = fresh_dir("corpus-sink") / "walks.twalks"
    with rec.span("walks.sink_write", walks=len(result.paths)) as sp:
        with WalkSink(path) as sink:
            for walk in result.paths:
                sink.append(walk)
    return {
        "walks.sink_write_s": sp["end"] - sp["start"],
        "walks.sink_bytes_per_step": path.stat().st_size / max(1, result.total_steps),
    }
