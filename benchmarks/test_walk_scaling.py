"""Strong scaling of the chunk-parallel walk executor.

Not a paper figure: the paper's engine is multi-threaded C++ and its
Table 4 numbers already assume all cores; this bench characterises the
reproduction's analogue — :class:`repro.parallel.ParallelBatchTeaEngine`
at 1 and 2 workers on the ``process`` and the ``thread`` backend, with
the kernel backend left at ``auto`` (the compiled C passes, which
release the GIL, when the system ``cc`` built them), on two workloads:

* ``sweep`` — the R·|V| node2vec workload (Table 4's shape) capped at
  2 000 walks: a few-millisecond walk phase, so it measures dispatch;
* ``corpus`` — ``bench_e2e``'s ``corpus_exp`` round (the twitter
  analogue at scale 3.0, R = 120 exponential walks, ≈972 k lanes),
  repeated :data:`CORPUS_REPEATS` times per point, min / median / max,
  plus an ``inline`` row: :class:`~repro.engines.batch.BatchTeaEngine`
  itself, which walks a request of more than one slice on one thread per
  usable CPU (its ``workers`` column is that thread count).

Each reports:

* wall time and speedup per (backend, worker count), against the same
  backend's 1-worker run (the ``inline`` row: against ``process``'s,
  which walks inline on one thread);
* ``hop_share``: seconds inside the compiled ``hop`` phase — the calls
  that release the GIL — per walk second and per worker, from one
  profiled run. At one worker it is the share of the walk that threads
  can overlap;
* queue-wait share (work-queue pressure: time chunks spent enqueued
  relative to total worker-seconds);
* sampled steps per run — asserted identical across backends and worker
  counts, the executor's bit-determinism contract.

No speedup is asserted: on a 1-core host the 2-worker points are
skipped with a note, and on a shared one the speedup column documents
what the host gave. The determinism assertion is the portable invariant.
"""

import os
import statistics
from dataclasses import dataclass
from typing import List

import pytest

from benchmarks.conftest import (
    BENCH_R,
    BENCH_SCALE,
    record_history,
    write_json_result,
)
from repro.engines.base import Workload
from repro.engines.batch import BatchTeaEngine, usable_cpus
from repro.graph.datasets import load_dataset
from repro.parallel.engine import ParallelBatchTeaEngine
from repro.telemetry import MetricsRegistry, NULL_PROFILER, PhaseProfiler
from repro.walks.apps import exponential_walk, temporal_node2vec

BACKENDS = ("process", "thread")
WORKER_COUNTS = (1, 2)

#: ``corpus_exp``'s round (``bench_e2e/corpus_exp.py``, full size).
CORPUS_SCALE = 3.0
CORPUS_R = 120
#: Warm runs per corpus-width point.
CORPUS_REPEATS = 5

_rows = {}
_notes = {"sweep": [], "corpus": []}


@dataclass
class ScalingRow:
    """One sweep point: cold + warm runs at a fixed worker count.

    ``walk_seconds``/``speedup`` describe the *warm* (steady-state)
    runs — their median, between ``walk_seconds_min`` and
    ``walk_seconds_max``; ``cold_walk_seconds`` and
    ``pool_startup_seconds`` show what the first run additionally paid,
    and ``warm_startup_seconds`` is the reuse contract (0.0 when every
    warm run found its pool alive).
    """

    workers: int
    backend: str
    chunks: int
    steps: int
    walk_seconds: float
    walk_seconds_min: float
    walk_seconds_max: float
    speedup: float
    queue_wait_share: float
    cold_walk_seconds: float
    pool_startup_seconds: float
    warm_startup_seconds: float
    pool_reuses: int
    dispatch_overhead_seconds: float
    hop_share: float

    def snapshot(self) -> dict:
        return {
            "workers": self.workers,
            "backend": self.backend,
            "chunks": self.chunks,
            "steps": self.steps,
            "walk_s": round(self.walk_seconds, 4),
            "walk_s_min": round(self.walk_seconds_min, 4),
            "walk_s_max": round(self.walk_seconds_max, 4),
            "speedup": round(self.speedup, 3),
            "queue_wait_share": round(self.queue_wait_share, 4),
            "cold_walk_s": round(self.cold_walk_seconds, 4),
            "pool_startup_s": round(self.pool_startup_seconds, 4),
            "warm_startup_s": round(self.warm_startup_seconds, 4),
            "pool_reuses": self.pool_reuses,
            "dispatch_overhead_s": round(self.dispatch_overhead_seconds, 4),
            "hop_share": round(self.hop_share, 4),
        }


def run_scaling(graph, spec, workload, seed, notes,
                repeats: int = 1) -> List[ScalingRow]:
    """Run ``workload`` per backend and worker count; speedup is vs the
    backend's first row.

    Each executed point runs against one engine: cold (pool build),
    then ``repeats`` warm runs (pool reuse); ``walk_seconds`` and
    ``speedup`` come from the warm runs' median, the cold costs ride
    along in their own columns. Per-walk seeding makes every run
    bit-identical whatever the chunk plan, so the engine's default plan
    is used. Worker counts above ``os.cpu_count()`` are skipped with a
    note in ``notes``: oversubscribed points measure scheduler thrash,
    not scaling.
    """
    rows: List[ScalingRow] = []
    cores = os.cpu_count() or 1
    for backend in BACKENDS:
        for workers in WORKER_COUNTS:
            if workers > max(1, cores):
                notes.append(f"skipped {backend} workers={workers}: exceeds "
                             f"cpu_count={cores} (oversubscription measures "
                             f"scheduler thrash)")
                continue
            rows.append(_measure(graph, spec, workload, seed, backend, workers,
                                 base=rows[-1] if workers > 1 and rows else None,
                                 repeats=repeats))
    return rows


def _measure(graph, spec, workload, seed, backend, workers, base,
             repeats) -> ScalingRow:
    """One sweep point; ``base`` is the same backend's 1-worker row."""
    engine = ParallelBatchTeaEngine(graph, spec, workers=workers,
                                    backend=backend, kernel_backend="auto")
    walls = []
    warm_startup = 0.0
    try:
        cold = engine.run(workload, seed=seed, record_paths=False,
                          registry=MetricsRegistry())
        pool_startup = float(engine.last_pool["startup_seconds"])
        for _ in range(repeats):
            registry = MetricsRegistry()
            result = engine.run(workload, seed=seed, record_paths=False,
                                registry=registry)
            walls.append(result.walk_seconds)
            warm_startup += float(engine.last_pool["startup_seconds"])
        pool_reuses = int(engine.last_pool["reuses"])
        hop_share = _hop_share(engine, workload, seed, workers)
    finally:
        engine.close()
    # One worker runs inline whatever the backend; two must not have
    # degraded to another backend, or the row would be mislabelled.
    assert workers == 1 or engine.last_backend == backend, engine.last_backend
    wall = statistics.median(walls)
    base_wall = base.walk_seconds if base is not None else wall
    chunks = int(registry.counter_value("parallel.chunks"))
    # Average fraction of the walk phase a chunk spent enqueued
    # (mean wait / wall): ~0.5 for a fully serialised queue,
    # approaching 0 when workers drain chunks as they arrive.
    wait_total = registry.histogram("parallel.queue_wait_seconds").total
    mean_wait = (wait_total / chunks) if chunks else 0.0
    return ScalingRow(
        workers=workers,
        backend=backend,
        chunks=chunks,
        steps=result.counters.steps,
        walk_seconds=wall,
        walk_seconds_min=min(walls),
        walk_seconds_max=max(walls),
        speedup=(base_wall / wall) if wall else 1.0,
        queue_wait_share=(mean_wait / wall) if wall else 0.0,
        cold_walk_seconds=cold.walk_seconds,
        pool_startup_seconds=pool_startup,
        warm_startup_seconds=warm_startup,
        pool_reuses=pool_reuses,
        dispatch_overhead_seconds=float(
            registry.gauge_value("parallel.dispatch_overhead_seconds") or 0.0),
        hop_share=hop_share,
    )


def _hop_share(engine, workload, seed, workers) -> float:
    """Seconds in the ``hop`` phase (every thread's, every worker's) per
    walk second and per worker, from one profiled run of ``engine``."""
    profiler = engine.profiler = PhaseProfiler()
    try:
        engine.run(workload, seed=seed, record_paths=False)
    finally:
        engine.profiler = NULL_PROFILER
    walk = profiler.phase_seconds("walk")
    return profiler.phase_seconds("hop") / (walk * workers) if walk else 0.0


def _measure_inline(graph, spec, workload, seed, base, repeats) -> ScalingRow:
    """The ``inline`` row: ``BatchTeaEngine`` with no pool of its own to
    keep warm, its slices on :func:`usable_cpus` threads per call."""
    engine = BatchTeaEngine(graph, spec, kernel_backend="auto")
    cold = engine.run(workload, seed=seed, record_paths=False)
    walls = []
    for _ in range(repeats):
        result = engine.run(workload, seed=seed, record_paths=False)
        walls.append(result.walk_seconds)
    walk = next(s for s in result.spans if s.name == "walk")
    threads = walk.attributes["threads"]
    wall = statistics.median(walls)
    return ScalingRow(
        workers=threads, backend="inline", chunks=walk.attributes["chunks"],
        steps=result.counters.steps, walk_seconds=wall,
        walk_seconds_min=min(walls), walk_seconds_max=max(walls),
        speedup=(base.walk_seconds / wall) if wall else 1.0,
        queue_wait_share=0.0, cold_walk_seconds=cold.walk_seconds,
        pool_startup_seconds=0.0, warm_startup_seconds=0.0, pool_reuses=0,
        dispatch_overhead_seconds=0.0,
        hop_share=_hop_share(engine, workload, seed, threads),
    )


def format_scaling_table(rows: List[ScalingRow], title: str, notes) -> str:
    header = ("workers", "backend", "chunks", "steps", "walk_s", "min_s",
              "max_s", "speedup", "q_wait", "cold_s", "pool_s", "warm_p_s",
              "hop_shr")
    keys = ("workers", "backend", "chunks", "steps", "walk_s", "walk_s_min",
            "walk_s_max", "speedup", "queue_wait_share", "cold_walk_s",
            "pool_startup_s", "warm_startup_s", "hop_share")
    lines = [title, "  ".join(f"{h:>8}" for h in header)]
    for row in rows:
        snap = row.snapshot()
        lines.append("  ".join(f"{str(snap[key]):>8}" for key in keys))
    lines.extend(f"note: {note}" for note in notes)
    return "\n".join(lines)


@pytest.fixture(scope="module")
def scaling_graph():
    # ~100k edges at scale 1.0: the Table 4 shape on the synthetic
    # twitter analogue, halved to keep the four-point sweep tractable
    # in pure Python.
    return load_dataset("twitter", seed=0, scale=0.5 * BENCH_SCALE)


def test_walk_scaling_sweep(benchmark, scaling_graph):
    spec = temporal_node2vec(p=4.0, q=0.25, scale=6.0)
    workload = Workload(walks_per_vertex=BENCH_R, max_length=80,
                        max_walks=2000)

    def run():
        _notes["sweep"].clear()
        return run_scaling(scaling_graph, spec, workload, seed=0,
                           notes=_notes["sweep"])

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    _rows["sweep"] = rows
    benchmark.extra_info.update(
        {f"{row.backend}-W={row.workers}": row.snapshot() for row in rows}
    )


def test_walk_scaling_corpus_width(benchmark):
    """``corpus_exp``'s round through the executor and through
    ``BatchTeaEngine``'s own threads: ≈972 k lanes, a walk phase of a few
    hundred milliseconds, so the speedup is the walk's and not
    dispatch's. Informational: nothing is gated on it."""
    graph = load_dataset("twitter", seed=1, scale=CORPUS_SCALE)
    spec = exponential_walk(scale=6.0)
    workload = Workload(walks_per_vertex=CORPUS_R, max_length=80)

    def run():
        _notes["corpus"].clear()
        rows = run_scaling(graph, spec, workload, seed=0,
                           notes=_notes["corpus"], repeats=CORPUS_REPEATS)
        return rows + [_measure_inline(graph, spec, workload, 0, rows[0],
                                       CORPUS_REPEATS)]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    _rows["corpus"] = rows
    benchmark.extra_info.update(
        {f"{row.backend}-W={row.workers}": row.snapshot() for row in rows}
    )


def _report(key: str, title: str, suffix: str, **meta) -> None:
    """Check, print, write and record one workload's rows."""
    rows = _rows.get(key)
    if not rows:
        return
    notes = _notes[key]
    # Oversubscribed counts (> cpu_count) are skipped with a note, so
    # each backend's executed rows are a prefix of WORKER_COUNTS.
    executed = [(row.backend, row.workers) for row in rows]
    expected = [(b, w) for b in BACKENDS for w in WORKER_COUNTS
                if w <= max(1, os.cpu_count() or 1)]
    if key == "corpus":
        expected.append(("inline", usable_cpus()))
    assert executed == expected, (
        f"sweep executed {executed}, expected {expected} on this host"
    )
    # Determinism: per-walk seeding -> identical sampled steps everywhere.
    steps = {row.steps for row in rows}
    assert len(steps) == 1, (
        f"steps varied across backends and worker counts: {steps}")
    # Warm-pool reuse: every multi-worker point's measured runs must
    # have found its pool alive.
    for row in rows:
        if row.workers > 1:
            assert row.warm_startup_seconds == 0.0, (
                f"{row.workers}-worker warm run rebuilt its pool "
                f"({row.warm_startup_seconds:.4f}s startup)"
            )
    text = format_scaling_table(rows, title=title, notes=notes)
    print(f"\n===== walk_scaling ({key}) =====\n{text}")
    # Machine-readable normal form (the .txt artifact is retired): the
    # sweep rows verbatim, plus the rendered table for human diffing.
    write_json_result(f"walk_scaling{suffix}", {
        "title": title,
        "backends": list(BACKENDS),
        "worker_counts": list(WORKER_COUNTS),
        "executed": [f"{b}-w{w}" for b, w in executed],
        "notes": list(notes),
        "rows": [row.snapshot() for row in rows],
        "table": text,
    })
    # History: flatten the curve into one record so `repro bench
    # compare` can gate regressions on any point of it. Warm walk time
    # and cold pool startup are recorded separately — the pool-reuse
    # contract makes them independent axes of regression. The corpus
    # record's names carry a suffix, so a compare against a sweep
    # record skips them instead of comparing two workloads.
    metrics = {}
    for row in rows:
        point = f"w{row.workers}_{row.backend}{suffix}"
        metrics[f"walk_s_{point}"] = row.walk_seconds
        metrics[f"speedup_{point}"] = row.speedup
        metrics[f"pool_startup_s_{point}"] = row.pool_startup_seconds
        metrics[f"warm_startup_s_{point}"] = row.warm_startup_seconds
        metrics[f"hop_share_{point}"] = row.hop_share
    from repro.kernels import resolve_backend

    record_history("walk_scaling", metrics, notes=list(notes),
                   kernel_backend=resolve_backend("auto").name, **meta)


@pytest.fixture(scope="module", autouse=True)
def report():
    yield
    _report("sweep",
            "Parallel walk executor strong scaling "
            f"(twitter@{0.5 * BENCH_SCALE:g}, node2vec, R={BENCH_R}, L=80)",
            "", dataset="twitter", scale=0.5 * BENCH_SCALE, r=BENCH_R,
            length=80)
    _report("corpus",
            "Parallel walk executor at corpus width "
            f"(twitter@{CORPUS_SCALE:g} seed 1, exponential, R={CORPUS_R}, "
            f"L=80, median of {CORPUS_REPEATS} warm runs)",
            "_corpus", dataset="twitter", scale=CORPUS_SCALE, r=CORPUS_R,
            length=80, repeats=CORPUS_REPEATS)
