"""The pre-fusion frontier kernel, kept as a test oracle and bench baseline.

The exact arithmetic the fused backends replaced — per-call temporaries,
a full-population scan per bit of the ITS lockstep, the cost model's
probe count from ``_popcount`` — written as the ``select``/``alias``
passes of :mod:`repro.kernels.base`, so it runs under the same
:func:`~repro.kernels.sample_batch` driver (which draws every uniform)
and the same ``_run_frontier`` loop as ``numpy`` and ``c``.

* **parity oracle** — ``tests/test_kernels.py`` and
  ``tests/test_kernel_passes.py`` hold ``numpy`` and ``c`` to it bit for
  bit, under both :class:`~repro.rng.LaneRng` and
  :class:`~repro.rng.GeneratorLanes`;
* **bench baseline** — ``benchmarks/test_kernel_fusion.py`` times the
  fused backends against it (``legacy_s``, ``sample_batch_us_legacy``).

Pass ``BACKEND`` wherever a backend name is accepted
(``resolve_backend`` hands a :class:`~repro.kernels.KernelBackend`
through unchanged); the product registry does not know it.
"""

import numpy as np

from repro.core.aux_index import _popcount
from repro.kernels import KernelBackend
from repro.kernels.numpy_backend import scatter


def select(index, vs, ss, u, level, out, scratch, count):
    """ITS over trunks, bit-scan lockstep: find the block of the binary
    decomposition whose cumulative boundary covers ``r``."""
    n = vs.size
    cbase = index.indptr[vs] + vs
    totals = index.c[cbase + ss]
    r = totals - u * totals  # draws in (0, total]

    remaining = ss.astype(np.int64).copy()
    level[:] = 0
    out[:] = 0
    chosen = np.zeros(n, dtype=bool)
    max_bits = int(ss.max()).bit_length()
    for k in range(max_bits - 1, -1, -1):
        block = 1 << k
        rows = np.flatnonzero((~chosen) & ((remaining & block) != 0))
        if not rows.size:
            continue
        boundary = index.c[cbase[rows] + out[rows] + block]
        take = boundary >= r[rows]
        take_rows = rows[take]
        level[take_rows] = k
        chosen[take_rows] = True
        out[rows[~take]] += block
        remaining[rows] -= block

    probes = 0
    if count:
        blocks = _popcount(ss.astype(np.int64))
        probes = int(
            (np.ceil(np.log2(np.maximum(blocks, 2))).astype(np.int64) + 1).sum())
    return np.flatnonzero(level > 0), probes


def alias(index, vs, level, out, deep, u_cell, u_take, scratch):
    """Alias draw inside each selected trunk (level 0 is the identity)."""
    dvs = vs[deep]
    k = level[deep]
    width = np.int64(1) << k
    start = index.lvl_ptr[index.lvl_base[dvs] + k - 1] + out[deep]
    cell = (u_cell * width).astype(np.int64)
    cell = np.minimum(cell, width - 1)
    take_cell = u_take < index.prob[start + cell]
    out[deep] += np.where(take_cell, cell, index.alias[start + cell])


BACKEND = KernelBackend(name="legacy", select=select, alias=alias,
                        scatter=scatter)
