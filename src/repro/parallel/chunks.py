"""Chunk planning for the parallel walk executor.

The workload's start vertices are split into contiguous chunks; chunks
are the unit of scheduling (a shared work queue hands them to whichever
worker is free) — but *walks* are the unit of randomness. Every walk
gets its own seed drawn up front from the run's root generator (one
:func:`~repro.rng.spawn_seeds` call over the whole start array), and
workers key a counter-based lane stream (:class:`~repro.rng.LaneRng`)
on it. Sampled walks therefore depend only on ``(starts, seed)`` —
never on chunk size, worker count, backend, or completion order — which
is what lets the adaptive planner re-chunk freely: ``--chunk-size 16``
and ``--chunk-target-ms 80`` walk bit-identical paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.rng import spawn_seeds

#: Chunks per worker the fallback planner aims for: enough queue slack
#: that an unlucky worker (long walks, slow core) doesn't become the
#: critical path, few enough that per-chunk overhead stays negligible.
CHUNKS_PER_WORKER = 4

#: Work per chunk the adaptive planner targets, in milliseconds: chunks
#: of 50–100 ms amortise queue/dispatch overhead (~1 ms each) to <2 %
#: while still giving the queue enough entries to balance load across
#: workers.
DEFAULT_CHUNK_TARGET_MS = 75.0

#: Walks the calibration probe executes when no prior timing exists.
PROBE_WALKS = 64


def default_chunk_size(num_walks: int, workers: int) -> int:
    """~:data:`CHUNKS_PER_WORKER` chunks per worker, at least one walk."""
    return max(1, -(-num_walks // (max(1, workers) * CHUNKS_PER_WORKER)))


def adaptive_chunk_size(
    num_walks: int,
    workers: int,
    per_walk_seconds: Optional[float],
    target_ms: float = DEFAULT_CHUNK_TARGET_MS,
) -> int:
    """Chunk size targeting ``target_ms`` of work per chunk.

    ``per_walk_seconds`` comes from a short calibration probe or the
    engine's prior-run ``chunk_exec`` self-time; when it is unknown or
    degenerate (``None``/``<= 0``) the planner falls back to
    :func:`default_chunk_size`. The result is clamped so every worker
    can still receive at least one chunk (``ceil(num_walks/workers)``)
    — a too-generous target must not serialise the run — and is
    monotone non-decreasing in ``target_ms``.
    """
    if num_walks <= 0:
        return 1
    if per_walk_seconds is None or per_walk_seconds <= 0.0:
        return default_chunk_size(num_walks, workers)
    size = math.ceil((float(target_ms) / 1000.0) / float(per_walk_seconds))
    cap = -(-num_walks // max(1, workers))
    return int(max(1, min(size, cap)))


@dataclass(frozen=True)
class ChunkPlan:
    """An immutable partition of the start array plus per-walk seeds.

    Chunk ``i`` covers ``starts[bounds[i]:bounds[i+1]]``; walk ``j`` is
    advanced by the counter-based lane stream keyed on ``seeds[j]``
    (``seeds`` aligns with ``starts``, one seed per walk). Because the
    seeds ignore the partition, :func:`rechunk` can change ``bounds``
    without changing a single sampled edge.
    """

    starts: np.ndarray
    bounds: np.ndarray
    seeds: np.ndarray

    @property
    def num_chunks(self) -> int:
        return int(self.bounds.size - 1)

    @property
    def num_walks(self) -> int:
        return int(self.starts.size)

    def chunk(self, chunk_id: int) -> Tuple[int, int]:
        """(lo, hi) slice bounds of ``chunk_id`` in the start array."""
        return int(self.bounds[chunk_id]), int(self.bounds[chunk_id + 1])


def _chunk_bounds(num_walks: int, chunk_size: int) -> np.ndarray:
    chunk_size = int(chunk_size)
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    bounds = np.arange(0, num_walks + chunk_size, chunk_size, dtype=np.int64)
    bounds[-1] = num_walks
    if bounds.size < 2:  # zero walks: one empty chunk keeps folds simple
        bounds = np.array([0, 0], dtype=np.int64)
    return bounds


def plan_chunks(
    starts: np.ndarray, chunk_size: int, rng: np.random.Generator
) -> ChunkPlan:
    """Split ``starts`` into fixed-size chunks and draw per-walk seeds.

    Seeds are drawn in walk order from ``rng`` (one
    :func:`~repro.rng.spawn_seeds` call over the whole start array),
    which pins the entire run's randomness before any worker starts and
    independently of ``chunk_size`` — the determinism contract the
    executor's tests assert.
    """
    starts = np.ascontiguousarray(starts, dtype=np.int64)
    bounds = _chunk_bounds(starts.size, chunk_size)
    seeds = spawn_seeds(rng, starts.size)
    return ChunkPlan(starts=starts, bounds=bounds, seeds=seeds)


def plan_for_seeds(
    starts: np.ndarray, seeds: np.ndarray, chunk_size: int
) -> ChunkPlan:
    """Build a plan from caller-supplied per-walk seeds.

    The serving layer (:mod:`repro.serve`) derives each request's lane
    seeds from the *request's own* seed, then concatenates requests into
    one plan — per-walk seeding makes the partition (and the batch
    composition) invisible to every sampled edge.
    """
    starts = np.ascontiguousarray(starts, dtype=np.int64)
    seeds = np.ascontiguousarray(seeds)
    if starts.size != seeds.size:
        raise ValueError("starts and seeds must be equal length")
    return ChunkPlan(
        starts=starts, bounds=_chunk_bounds(starts.size, chunk_size), seeds=seeds
    )


def rechunk(plan: ChunkPlan, chunk_size: int) -> ChunkPlan:
    """Repartition ``plan`` into ``chunk_size``-walk chunks.

    Seeds are per walk, so the new plan samples bit-identical walks —
    this is how the adaptive planner resizes chunks after calibration
    without re-drawing any randomness.
    """
    return ChunkPlan(
        starts=plan.starts,
        bounds=_chunk_bounds(plan.starts.size, chunk_size),
        seeds=plan.seeds,
    )
