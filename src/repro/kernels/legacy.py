"""The pre-fusion frontier kernel, preserved verbatim as a backend.

This is the exact code the fused backends replaced: per-call
temporaries, a full-population scan per bit of the ITS lockstep, the
``_popcount`` import inside the hot path, and separate uniform calls
per alias stage. It exists for two reasons:

* **parity oracle** — ``make kernel-smoke`` and the kernel tests assert
  the fused numpy and compiled C backends are
  bit-identical to this reference under both
  :class:`~repro.rng.LaneRng` and :class:`~repro.rng.GeneratorLanes`
  draw sources;
* **bench baseline** — ``benchmarks/test_kernel_fusion.py`` measures
  the fused backend's walk-throughput gain against this kernel (the
  ISSUE's ≥1.5x acceptance bar), so the comparison survives in-tree
  instead of living only in a PR description.

It is selectable (``kernel_backend="legacy"``) but deliberately not
offered by the CLI.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import KernelBackend
from repro.kernels.numpy_backend import scatter


def _sample_legacy(index, vs, ss, draw, lanes, counters):
    """The original ``hpat_sample_batch`` body, unchanged."""
    n = vs.size
    cbase = index.indptr[vs] + vs
    totals = index.c[cbase + ss]
    r = totals - draw.uniform(lanes) * totals  # draws in (0, total]

    # ITS over trunks, bit-scan lockstep: find the block of the binary
    # decomposition whose cumulative boundary covers r.
    remaining = ss.astype(np.int64).copy()
    offset = np.zeros(n, dtype=np.int64)
    level = np.zeros(n, dtype=np.int64)
    chosen = np.zeros(n, dtype=bool)
    max_bits = int(ss.max()).bit_length()
    for k in range(max_bits - 1, -1, -1):
        block = 1 << k
        rows = np.flatnonzero((~chosen) & ((remaining & block) != 0))
        if not rows.size:
            continue
        boundary = index.c[cbase[rows] + offset[rows] + block]
        take = boundary >= r[rows]
        take_rows = rows[take]
        level[take_rows] = k
        chosen[take_rows] = True
        offset[rows[~take]] += block
        remaining[rows] -= block

    if counters is not None:
        from repro.core.aux_index import _popcount

        blocks = _popcount(ss.astype(np.int64))
        probes = np.ceil(np.log2(np.maximum(blocks, 2))).astype(np.int64) + 1
        counters.binary_search_probes += int(probes.sum())
        counters.edges_evaluated += int(probes.sum())

    # Alias draw inside each selected trunk (level 0 is the identity).
    out = offset.copy()
    deep = level > 0
    if deep.any():
        dvs = vs[deep]
        k = level[deep]
        width = np.int64(1) << k
        start = index.lvl_ptr[index.lvl_base[dvs] + k - 1] + offset[deep]
        deep_lanes = lanes[deep]
        cell = (draw.uniform(deep_lanes) * width).astype(np.int64)
        cell = np.minimum(cell, width - 1)
        take_cell = draw.uniform(deep_lanes) < index.prob[start + cell]
        local = np.where(take_cell, cell, index.alias[start + cell])
        out[deep] = offset[deep] + local
        if counters is not None:
            counters.alias_draws += int(deep.sum())
            counters.edges_evaluated += int(deep.sum())
    return out


BACKEND = KernelBackend(
    name="legacy", select=None, alias=None, scatter=scatter,
    sample_override=_sample_legacy,
)
