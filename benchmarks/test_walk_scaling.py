"""Strong scaling of the chunk-parallel walk executor.

Not a paper figure: the paper's engine is multi-threaded C++ and its
Table 4 numbers already assume all cores; this bench characterises the
reproduction's analogue — :class:`repro.parallel.ParallelBatchTeaEngine`
running the R·|V| node2vec workload (Table 4's shape) over 1/2/4/8
workers with one fixed chunk plan, so the sweep isolates pure execution
scaling:

* wall time and speedup per worker count (the strong-scaling curve);
* queue-wait share (work-queue pressure: time chunks spent enqueued
  relative to total worker-seconds);
* sampled steps per run — asserted identical across worker counts,
  the executor's bit-determinism contract.

On single-core CI hosts the speedup column documents overhead rather
than scaling; the determinism assertion is the portable invariant.
"""

import os
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
from repro.graph.datasets import load_dataset
from repro.parallel.engine import ParallelBatchTeaEngine
from repro.telemetry import MetricsRegistry
from repro.walks.apps import temporal_node2vec

WORKER_COUNTS = (1, 2, 4, 8)

_rows = {}
_notes = []


@dataclass
class ScalingRow:
    """One sweep point: cold + warm runs at a fixed worker count.

    ``walk_seconds``/``speedup`` describe the *warm* (steady-state) run;
    ``cold_walk_seconds`` and ``pool_startup_seconds`` show what the
    first run additionally paid, and ``warm_startup_seconds`` is the
    reuse contract (0.0 when the warm run found its pool alive).
    """

    workers: int
    backend: str
    share_mode: str
    chunks: int
    steps: int
    walk_seconds: float
    speedup: float
    queue_wait_share: float
    cold_walk_seconds: float
    pool_startup_seconds: float
    warm_startup_seconds: float
    pool_reuses: int
    dispatch_overhead_seconds: float

    def snapshot(self) -> dict:
        return {
            "workers": self.workers,
            "backend": self.backend,
            "share_mode": self.share_mode,
            "chunks": self.chunks,
            "steps": self.steps,
            "walk_s": round(self.walk_seconds, 4),
            "speedup": round(self.speedup, 3),
            "queue_wait_share": round(self.queue_wait_share, 4),
            "cold_walk_s": round(self.cold_walk_seconds, 4),
            "pool_startup_s": round(self.pool_startup_seconds, 4),
            "warm_startup_s": round(self.warm_startup_seconds, 4),
            "pool_reuses": self.pool_reuses,
            "dispatch_overhead_s": round(self.dispatch_overhead_seconds, 4),
        }


def run_scaling(graph, spec, workload, seed, notes) -> List[ScalingRow]:
    """Run ``workload`` per worker count; speedup is vs the first row.

    Each executed count runs twice against one engine: cold (pool
    build + attach) then warm (pool reuse); ``walk_seconds`` and
    ``speedup`` come from the warm run, the cold costs ride along in
    their own columns. Per-walk seeding makes every run bit-identical
    regardless of chunking, so the adaptive planner picks chunk sizes.
    Worker counts above ``os.cpu_count()`` are skipped with a note in
    ``notes``: oversubscribed points measure scheduler thrash, not
    scaling.
    """
    rows: List[ScalingRow] = []
    cores = os.cpu_count() or 1
    for workers in WORKER_COUNTS:
        if workers > max(1, cores):
            notes.append(f"skipped workers={workers}: exceeds cpu_count={cores} "
                         f"(oversubscription measures scheduler thrash)")
            continue
        engine = ParallelBatchTeaEngine(graph, spec, workers=workers)
        try:
            cold = engine.run(workload, seed=seed, record_paths=False,
                              registry=MetricsRegistry())
            pool_startup = float(engine.last_pool["startup_seconds"])
            registry = MetricsRegistry()
            result = engine.run(workload, seed=seed, record_paths=False,
                                registry=registry)
            warm_startup = float(engine.last_pool["startup_seconds"])
            pool_reuses = int(engine.last_pool["reuses"])
        finally:
            engine.close()
        wall = result.walk_seconds
        base_wall = rows[0].walk_seconds if rows else wall
        chunks = int(registry.counter_value("parallel.chunks"))
        # Average fraction of the walk phase a chunk spent enqueued
        # (mean wait / wall): ~0.5 for a fully serialised queue,
        # approaching 0 when workers drain chunks as they arrive.
        wait_total = registry.histogram("parallel.queue_wait_seconds").total
        mean_wait = (wait_total / chunks) if chunks else 0.0
        rows.append(ScalingRow(
            workers=workers,
            backend=engine.last_backend,
            share_mode=engine.last_share_mode,
            chunks=chunks,
            steps=result.counters.steps,
            walk_seconds=wall,
            speedup=(base_wall / wall) if wall else 1.0,
            queue_wait_share=(mean_wait / wall) if wall else 0.0,
            cold_walk_seconds=cold.walk_seconds,
            pool_startup_seconds=pool_startup,
            warm_startup_seconds=warm_startup,
            pool_reuses=pool_reuses,
            dispatch_overhead_seconds=float(
                registry.gauge_value("parallel.dispatch_overhead_seconds") or 0.0),
        ))
    return rows


def format_scaling_table(rows: List[ScalingRow], title: str, notes) -> str:
    header = ("workers", "backend", "share", "chunks", "steps",
              "walk_s", "speedup", "q_wait", "cold_s", "pool_s", "warm_p_s")
    keys = ("workers", "backend", "share_mode", "chunks", "steps",
            "walk_s", "speedup", "queue_wait_share", "cold_walk_s",
            "pool_startup_s", "warm_startup_s")
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
        _notes.clear()
        return run_scaling(scaling_graph, spec, workload, seed=0, notes=_notes)

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    _rows["sweep"] = rows
    benchmark.extra_info.update(
        {f"W={row.workers}": row.snapshot() for row in rows}
    )


@pytest.fixture(scope="module", autouse=True)
def report():
    yield
    rows = _rows.get("sweep")
    if not rows:
        return
    # Oversubscribed counts (> cpu_count) are skipped with a note, so
    # the executed rows are a prefix of WORKER_COUNTS.
    executed = [row.workers for row in rows]
    expected = [w for w in WORKER_COUNTS
                if w <= max(1, os.cpu_count() or 1)] or [1]
    assert executed == expected, (
        f"sweep executed {executed}, expected {expected} on this host"
    )
    # Determinism: per-walk seeding -> identical sampled steps everywhere.
    steps = {row.steps for row in rows}
    assert len(steps) == 1, f"steps varied across worker counts: {steps}"
    # Warm-pool reuse: every multi-worker point's second (measured) run
    # must have found its pool alive.
    for row in rows:
        if row.workers > 1:
            assert row.warm_startup_seconds == 0.0, (
                f"{row.workers}-worker warm run rebuilt its pool "
                f"({row.warm_startup_seconds:.4f}s startup)"
            )
    title = (
        "Parallel walk executor strong scaling "
        f"(twitter@{0.5 * BENCH_SCALE:g}, node2vec, R={BENCH_R}, L=80)"
    )
    text = format_scaling_table(rows, title=title, notes=_notes)
    print(f"\n===== walk_scaling =====\n{text}")
    # Machine-readable normal form (the .txt artifact is retired): the
    # sweep rows verbatim, plus the rendered table for human diffing.
    write_json_result("walk_scaling", {
        "title": title,
        "worker_counts": list(WORKER_COUNTS),
        "executed_worker_counts": executed,
        "notes": list(_notes),
        "rows": [row.snapshot() for row in rows],
        "table": text,
    })
    # History: flatten the curve into one record so `repro bench
    # compare` can gate regressions on any point of it. Warm walk time
    # and cold pool startup are recorded separately — the pool-reuse
    # contract makes them independent axes of regression.
    metrics = {}
    for row in rows:
        metrics[f"walk_s_w{row.workers}"] = row.walk_seconds
        metrics[f"speedup_w{row.workers}"] = row.speedup
        metrics[f"pool_startup_s_w{row.workers}"] = row.pool_startup_seconds
        metrics[f"warm_startup_s_w{row.workers}"] = row.warm_startup_seconds
    from repro.kernels import resolve_backend

    record_history(
        "walk_scaling", metrics,
        dataset="twitter", scale=0.5 * BENCH_SCALE, r=BENCH_R, length=80,
        notes=list(_notes),
        kernel_backend=resolve_backend("auto").name,
    )
