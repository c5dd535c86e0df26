"""The chunk plan of the parallel walk executor.

A request's lanes are cut into contiguous chunks; chunks are the unit of
scheduling (a shared work queue hands them to whichever worker is free),
but *walks* are the unit of randomness. Walk ``i`` is keyed on its own
seed, drawn by :class:`~repro.engines.batch.BatchTeaEngine` before any
chunk exists, and advanced by a counter-based lane stream
(:class:`~repro.rng.LaneRng`). Sampled walks therefore depend only on
``(starts, seeds)`` — never on the plan, the worker count, the backend,
or completion order: ``--chunk-size 16`` and the default plan walk
bit-identical paths.

The default plan is the inline engine's slice width shared out over the
workers: each chunk is at most one
:data:`~repro.engines.batch.FRONTIER_LANES` slice, so every chunk walks
as one frontier, and the chunks number a multiple of the workers, so
each worker gets the same share. It depends only on ``(lanes,
workers)`` — a cold run, a warm run, ``run`` and ``run_lanes`` plan
alike.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.engines import batch


def chunk_bounds(num_walks: int, workers: int,
                 chunk_size: Optional[int] = None) -> np.ndarray:
    """Chunk ``i`` covers lanes ``[bounds[i], bounds[i + 1])``.

    Without ``chunk_size``: the fewest chunks that are each at most
    ``FRONTIER_LANES`` lanes and that number a multiple of ``workers``
    (fewer only when there are fewer lanes than that), equal to within
    one lane. ``chunk_size`` pins ``chunk_size``-lane chunks instead,
    the last one shorter. Zero lanes plan one empty chunk, which keeps
    the folds simple.
    """
    if not num_walks:
        return np.zeros(2, dtype=np.int64)
    if chunk_size is not None:
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        bounds = np.arange(0, num_walks + chunk_size, chunk_size, dtype=np.int64)
        bounds[-1] = num_walks
        return bounds
    per_worker = -(-num_walks // (workers * batch.FRONTIER_LANES))
    chunks = min(num_walks, workers * per_worker)
    return np.arange(chunks + 1, dtype=np.int64) * num_walks // chunks
