"""Worker-side chunk execution for the parallel walk executor.

Every backend walks one engine object: serial and thread chunks run
against the :class:`~repro.parallel.engine.ParallelBatchTeaEngine`
itself, and a forked process worker runs against the same engine as it
inherited it through ``fork`` — the prepared index included, with no
copy, no rebuild and no attach. Everything run-scoped (start slices,
per-walk seeds, walk parameters, ``run_id``) ships inside each
:class:`ChunkTask`, so a warm pool (:mod:`repro.parallel.pool`) can
span many ``run()`` calls.

Every chunk execution carries a private :class:`CostCounters`, a private
:class:`MetricsRegistry`, and a private phase recorder with one
``walk.chunk`` frame — the per-worker telemetry discipline (see
:mod:`repro.sampling.counters`); the engine folds all three at the join
barrier. A chunk's randomness comes exclusively from its walks' planned
seeds (counter-based :class:`~repro.rng.LaneRng` streams), so the
produced walks are independent of which worker ran it, in which pool
generation, at what chunk size.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.engines.batch import FrontierResult
from repro.sampling.counters import CostCounters
from repro.telemetry import (
    LATENCY_BUCKETS,
    EventLog,
    MetricsRegistry,
    NULL_PROFILER,
    PhaseProfiler,
    events,
)
from repro.telemetry.clock import monotonic as _monotonic

if TYPE_CHECKING:
    from repro.parallel.engine import ParallelBatchTeaEngine


@dataclass
class ChunkTask:
    """One chunk of walks, fully self-describing, shipped per dispatch.

    Carries the run-scoped state a warm worker cannot inherit: the
    chunk's start/seed slices (small — ``chunk_size`` ints each), the
    walk parameters, and the parent's ``run_id`` so a pool that outlives
    runs stamps events with the *current* run, not the one it was warmed
    under. ``enqueue_ts`` is taken at submit, after the pool is warm —
    the resulting ``queue_wait_seconds`` measures only time spent
    unclaimed in the queue (pool spin-up is accounted separately by
    :mod:`repro.parallel.pool`).
    """

    chunk_id: int
    starts: np.ndarray
    seeds: np.ndarray
    max_length: int
    stop_probability: float
    keep_hops: bool
    run_id: Optional[str] = None
    profile: bool = False
    enqueue_ts: float = 0.0
    attempt: int = 0


@dataclass
class ChunkResult:
    """One chunk's walks plus its private telemetry, ready to fold.

    ``lengths``/``length_counts``/``hop_vertex``/``hop_time`` are the
    chunk's slice of the columnar frontier output (hop columns trimmed
    to the chunk's longest walk so process workers ship minimal bytes).
    ``snapshot`` is the chunk recorder's
    :meth:`~repro.telemetry.PhaseProfiler.snapshot`: its ``walk.chunk``
    span and rows, which the engine absorbs under its ``walk`` frame at
    the barrier.
    """

    chunk_id: int
    num_walks: int
    lengths: np.ndarray
    length_counts: np.ndarray
    hop_vertex: Optional[np.ndarray]
    hop_time: Optional[np.ndarray]
    counters: CostCounters
    registry: MetricsRegistry
    snapshot: dict
    queue_wait_seconds: float
    wall_seconds: float
    worker_label: str
    #: Events recorded *during this chunk* in a forked process worker,
    #: shipped back for the engine to fold into the parent's log.
    #: Thread/serial chunks leave this empty — they append into the
    #: shared parent log directly.
    events: List[dict] = field(default_factory=list)

    @property
    def total_steps(self) -> int:
        return int(self.lengths.sum())


def worker_label() -> str:
    """Stable identity of the executing worker for per-worker metrics."""
    thread = threading.current_thread()
    if thread is threading.main_thread():
        return f"pid-{os.getpid()}"
    return f"pid-{os.getpid()}/{thread.name}"


def execute_chunk(engine: ParallelBatchTeaEngine, task: ChunkTask) -> ChunkResult:
    """Walk ``task``'s chunk to completion on ``engine``.

    Runs the in-process executor of the serial engine
    (:meth:`~repro.engines.batch.BatchTeaEngine._walk_seeds`, so a chunk
    wider than :data:`~repro.engines.batch.FRONTIER_LANES` walks in
    slices too), with per-walk :class:`~repro.rng.LaneRng` streams keyed
    on the task's seed slice; telemetry goes to private per-chunk
    instances.

    ``task.attempt`` is the supervisor's retry ordinal: it keys the
    engine's ``fault_injector`` (``chunk`` site) only — the chunk's randomness still comes exclusively
    from its walks' planned seeds, so a retried chunk reproduces its
    exact paths (bit-determinism survives crashes, pool rebuilds, and
    backend degradation).
    """
    t0 = _monotonic()
    queue_wait = max(0.0, t0 - task.enqueue_ts)
    # Event shipping: thread/serial chunks emit straight into the
    # parent's installed log; a forked process worker emits into its own
    # log and ships only the events recorded during this chunk back on
    # the result. A warm worker may have been forked under an earlier
    # run (or before any run): re-stamp its log whenever the task's
    # run_id differs.
    in_child = multiprocessing.parent_process() is not None
    log = events.current()
    if in_child and task.run_id is not None and (
        log is None or log.run_id != task.run_id
    ):
        events.install(EventLog(run_id=task.run_id))
        log = events.current()
    event_mark = len(log) if (log is not None and in_child) else 0
    if engine.fault_injector is not None:
        engine.fault_injector.check("chunk", key=(task.chunk_id, task.attempt))
    counters = CostCounters()
    registry = MetricsRegistry()
    # The chunk's recorder, private to it like the registry; its hot-loop
    # phases only when the run is profiled (``task.profile``).
    recorder = PhaseProfiler.bare()
    label = worker_label()
    with recorder.span(
        "walk.chunk", chunk=task.chunk_id, walks=task.starts.size, worker=label
    ) as span:
        result: FrontierResult = engine._walk_seeds(
            task.starts, task.seeds, task.max_length,
            task.stop_probability, counters, task.keep_hops, registry,
            profiler=recorder if task.profile else NULL_PROFILER,
        )
        span.set("steps", result.total_steps)
        span.set("queue_wait_seconds", round(queue_wait, 6))
    registry.histogram(
        "parallel.queue_wait_seconds",
        "delay between chunk enqueue and execution start",
        **LATENCY_BUCKETS,
    ).observe(queue_wait)
    events.emit(
        "chunk.exec", chunk_id=int(task.chunk_id), attempt=int(task.attempt),
        worker=label, walks=int(task.starts.size),
        steps=int(result.total_steps),
        queue_wait_seconds=round(queue_wait, 6),
    )

    hop_vertex = hop_time = None
    if result.hop_vertex is not None:
        # Trim hop columns to this chunk's longest walk: correctness is
        # row-wise (walk i uses columns [:lengths[i]]), and process
        # workers pickle the result back to the parent.
        width = int(result.lengths.max()) if result.lengths.size else 0
        hop_vertex = np.ascontiguousarray(result.hop_vertex[:, :width])
        hop_time = np.ascontiguousarray(result.hop_time[:, :width])
    return ChunkResult(
        chunk_id=task.chunk_id,
        num_walks=int(task.starts.size),
        lengths=result.lengths,
        length_counts=result.length_counts,
        hop_vertex=hop_vertex,
        hop_time=hop_time,
        counters=counters,
        registry=registry,
        snapshot=recorder.snapshot(),
        queue_wait_seconds=queue_wait,
        wall_seconds=_monotonic() - t0,
        worker_label=label,
        events=(list(log.events[event_mark:])
                if (log is not None and in_child) else []),
    )


# -- process-backend entry points ------------------------------------------
#
# The process pool uses the fork start method, and every worker is forked
# while the engine that owns the pool is alive: the initializer only turns
# the weak reference it inherited into the worker's engine. A chunk task
# then costs one small ChunkTask pickle in and one ChunkResult pickle out.

_ENGINE: Optional[ParallelBatchTeaEngine] = None
_ATTACH_SECONDS: float = 0.0


def _process_init(engine_ref) -> None:
    global _ENGINE, _ATTACH_SECONDS
    t0 = _monotonic()
    _ENGINE = engine_ref()
    _ATTACH_SECONDS = _monotonic() - t0


def _warmup_ping() -> tuple:
    """Pool warmup probe: forces the worker to exist (and so to have run
    its initializer) and reports what the initializer cost."""
    return os.getpid(), _ATTACH_SECONDS


def _process_chunk(task: ChunkTask) -> ChunkResult:
    assert _ENGINE is not None, "worker not initialised"
    return execute_chunk(_ENGINE, task)
