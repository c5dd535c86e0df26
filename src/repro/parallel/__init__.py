"""Chunk-parallel walk execution over one prepared engine.

Multi-core walks on one node: one preprocessing pass in the parent, then
:class:`~repro.engines.batch.BatchTeaEngine`'s in-process executor runs
per chunk of lanes in a warm, engine-lifetime worker pool
(:mod:`repro.parallel.pool`). Every backend walks the same engine
object: threads share it, forked process workers inherit it. The engine
draws one seed per walk before it plans any chunk, and each walk's
counter-based lane stream is keyed on its seed, so results are
bit-identical across worker counts, backends, chunk plans, warm or cold
pools, and scheduling orders; every worker's counters/metrics/spans fold
at the join barrier.

Public surface:

* :class:`~repro.parallel.engine.ParallelBatchTeaEngine` — the engine
  (registered as ``tea-parallel`` in the CLI);
* :func:`~repro.parallel.chunks.chunk_bounds` — the chunk plan, a
  function of ``(lanes, workers)`` alone;
* :class:`~repro.parallel.pool.WarmWorkerPool` — the persistent pool.

The strong-scaling sweep is ``benchmarks/test_walk_scaling.py``.
"""

from repro.parallel.chunks import chunk_bounds
from repro.parallel.engine import ParallelBatchTeaEngine
from repro.parallel.pool import WarmWorkerPool
from repro.parallel.worker import ChunkResult, ChunkTask, execute_chunk

__all__ = [
    "ChunkResult",
    "ChunkTask",
    "ParallelBatchTeaEngine",
    "WarmWorkerPool",
    "chunk_bounds",
    "execute_chunk",
]
