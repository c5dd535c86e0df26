"""Sequential per-vertex carry forest: the construction oracle.

This is the builder ``repro.core.incremental`` used before the forest
was built once per batch: one vertex at a time, one ``_Block`` per
append, every carry a *progressive* concatenate-and-rebuild. It is kept
here, unoptimised, as the reference the batch-wide builder must equal
bit for bit (block sizes, every array, the cost counter) — see
``tests/test_incremental.py::TestBatchWideEqualsSequential``.
"""

import numpy as np

from repro.exceptions import NotSupportedError
from repro.sampling.prefix_sum import build_prefix_sums


class OracleBlock:
    def __init__(self, dst, times, weights):
        self.size = int(dst.size)
        self.dst = dst
        self.times = times
        self.weights = weights
        self.c = build_prefix_sums(weights)

    @classmethod
    def merge(cls, newer, older):
        return cls(
            np.concatenate([newer.dst, older.dst]),
            np.concatenate([newer.times, older.times]),
            np.concatenate([newer.weights, older.weights]),
        )


class OracleVertexForest:
    def __init__(self, weight_model):
        self.weight_model = weight_model
        self.blocks = []  # newest first
        self.num_edges = 0
        self._t_ref = None
        self._t_newest = None
        self.merged_edges = 0

    def append_batch(self, dst, times):
        dst = np.asarray(dst, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        if dst.size == 0:
            return
        if times.size > 1 and np.any(times[:-1] > times[1:]):
            raise NotSupportedError("batch times must be ascending")
        if self._t_newest is not None and times[0] < self._t_newest:
            raise NotSupportedError("streaming updates must not precede existing edges")
        if self._t_ref is None:
            self._t_ref = float(times[0])
        self._t_newest = float(times[-1])
        weights = self._static_weights(times, base_rank=self.num_edges)
        block = OracleBlock(dst[::-1].copy(), times[::-1].copy(), weights[::-1].copy())
        while self.blocks and self.blocks[0].size <= block.size:
            absorbed = self.blocks.pop(0)
            self.merged_edges += absorbed.size + block.size
            block = OracleBlock.merge(block, absorbed)
        self.blocks.insert(0, block)
        self.num_edges += int(dst.size)

    def _static_weights(self, times, base_rank):
        kind = self.weight_model.kind
        if kind == "uniform":
            return np.ones_like(times)
        if kind == "linear_rank":
            return np.arange(base_rank + 1, base_rank + times.size + 1, dtype=np.float64)
        if kind == "linear_time":
            return times - self._t_ref + 1.0
        if kind == "exponential_decay":
            return np.exp((self._t_ref - times) / self.weight_model.scale)
        return np.exp((times - self._t_ref) / self.weight_model.scale)


def forest_state(vert):
    """Everything construction decides, as plain comparable values."""
    return (
        vert.num_edges, vert._t_ref, vert._t_newest, vert.merged_edges,
        [
            (b.size, b.dst.tobytes(), b.times.tobytes(), b.weights.tobytes(),
             b.c.tobytes())
            for b in vert.blocks
        ],
    )
