"""Chunk-parallel walk execution over a shared prepared index.

The single-node multi-core counterpart to :mod:`repro.distributed`'s
simulated cluster: one preprocessing pass in the parent, then the
vectorised frontier kernel (:mod:`repro.engines.batch`) runs per chunk
of start vertices in a warm, engine-lifetime worker pool
(:mod:`repro.parallel.pool`), against index arrays shared zero-copy
(POSIX shared memory, falling back to fork copy-on-write). Randomness
is planned *per walk* (counter-based lane streams), so results are
bit-identical across worker counts, backends, chunk sizes (fixed or
adaptive), warm or cold pools, and scheduling orders; every worker's
counters/metrics/spans fold at the join barrier.

Public surface:

* :class:`~repro.parallel.engine.ParallelBatchTeaEngine` — the engine
  (registered as ``tea-parallel`` in the CLI);
* :func:`~repro.parallel.chunks.plan_chunks` /
  :func:`~repro.parallel.chunks.rechunk` /
  :func:`~repro.parallel.chunks.adaptive_chunk_size` /
  :class:`~repro.parallel.chunks.ChunkPlan` — deterministic per-walk
  seeding and (re)chunking;
* :class:`~repro.parallel.pool.WarmWorkerPool` — the persistent pool;
* :class:`~repro.parallel.sharing.SharedIndexImage` — the shared-memory
  image of the prepared arrays.

The strong-scaling sweep is ``benchmarks/test_walk_scaling.py``.
"""

from repro.parallel.chunks import (
    DEFAULT_CHUNK_TARGET_MS,
    ChunkPlan,
    adaptive_chunk_size,
    default_chunk_size,
    plan_chunks,
    rechunk,
)
from repro.parallel.engine import ParallelBatchTeaEngine
from repro.parallel.pool import WarmWorkerPool
from repro.parallel.sharing import SharedIndexImage
from repro.parallel.worker import (
    ChunkResult,
    ChunkTask,
    WorkerContext,
    execute_chunk,
)

__all__ = [
    "ChunkPlan",
    "ChunkResult",
    "ChunkTask",
    "DEFAULT_CHUNK_TARGET_MS",
    "ParallelBatchTeaEngine",
    "SharedIndexImage",
    "WarmWorkerPool",
    "WorkerContext",
    "adaptive_chunk_size",
    "default_chunk_size",
    "execute_chunk",
    "plan_chunks",
    "rechunk",
]
