"""Sequential per-vertex carry forest: the construction oracle.

This is the builder ``repro.core.incremental`` used before the forest
was built once per batch: one vertex at a time, one ``_Block`` per
append, every carry a *progressive* concatenate-and-rebuild. It is kept
here, unoptimised, as the reference the batch-wide builder must equal
bit for bit (block sizes, exponents, every array, the cost counter) —
see ``tests/test_incremental.py::TestBatchWideEqualsSequential``.

The float-range rules are stated here step by step: a block's exponent
is 0 while all its raw weights are normal float64 values, otherwise the
floor of its heaviest edge's log2; a carry into a block with a nonzero
exponent stops before it would span more than ``SPAN`` scale units; a
batch that needs an exponent and spans more is appended as its longest
prefix within the span, then the rest.
"""

import numpy as np

from repro.exceptions import NotSupportedError
from repro.sampling.prefix_sum import build_prefix_sums

SPAN = 690.0


class OracleBlock:
    def __init__(self, dst, times, parts):
        """``parts``: ``(weights, exponent)`` pieces, newest first."""
        self.size = int(dst.size)
        self.dst = dst
        self.times = times
        self.exp = 0
        if any(k for _, k in parts):
            self.exp = max(k + int(np.frexp(w.max())[1]) for w, k in parts) - 1
            parts = [(np.ldexp(w, k - self.exp), k) for w, k in parts]
        self.weights = np.concatenate([w for w, _ in parts])
        self.c = build_prefix_sums(self.weights)

    @classmethod
    def merge(cls, newer, older):
        return cls(
            np.concatenate([newer.dst, older.dst]),
            np.concatenate([newer.times, older.times]),
            [(newer.weights, newer.exp), (older.weights, older.exp)],
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
        t_ref = float(times[0]) if self._t_ref is None else self._t_ref
        span = SPAN * self.weight_model.scale
        weights, logs = self._static_weights(times, t_ref, base_rank=self.num_edges)
        part = (weights, 0)
        if logs is not None and not np.all((weights >= np.finfo(float).tiny)
                                           & (weights <= np.finfo(float).max)):
            if times[-1] > times[0] + span:
                head = int(np.searchsorted(times, times[0] + span, side="right"))
                self.append_batch(dst[:head], times[:head])
                self.append_batch(dst[head:], times[head:])
                return
            log2s = logs / np.log(2.0)
            top = int(np.floor(log2s.max()))
            part = (np.exp2(log2s - top), top)
        self._t_ref = t_ref
        self._t_newest = float(times[-1])
        block = OracleBlock(dst[::-1].copy(), times[::-1].copy(),
                            [(part[0][::-1].copy(), part[1])])
        while self.blocks and self.blocks[0].size <= block.size:
            if (block.exp or self.blocks[0].exp) and (
                    block.times[0] > self.blocks[0].times[-1] + span):
                break
            absorbed = self.blocks.pop(0)
            self.merged_edges += absorbed.size + block.size
            block = OracleBlock.merge(block, absorbed)
        self.blocks.insert(0, block)
        self.num_edges += int(dst.size)

    def _static_weights(self, times, t_ref, base_rank):
        """Raw weights, and their natural logs for the exponential kinds."""
        kind = self.weight_model.kind
        if kind == "uniform":
            return np.ones_like(times), None
        if kind == "linear_rank":
            return np.arange(base_rank + 1, base_rank + times.size + 1,
                             dtype=np.float64), None
        if kind == "linear_time":
            return times - t_ref + 1.0, None
        if kind == "exponential_decay":
            logs = (t_ref - times) / self.weight_model.scale
        else:
            logs = (times - t_ref) / self.weight_model.scale
        with np.errstate(over="ignore", under="ignore"):
            return np.exp(logs), logs


def forest_state(vert):
    """Everything construction decides, as plain comparable values."""
    return (
        vert.num_edges, vert._t_ref, vert._t_newest, vert.merged_edges,
        [
            (b.size, b.exp, b.dst.tobytes(), b.times.tobytes(),
             b.weights.tobytes(), b.c.tobytes())
            for b in vert.blocks
        ],
    )
