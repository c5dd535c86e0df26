"""Fused numpy reference backend for the sampling kernel.

Semantics-identical (bit-identical, in fact — asserted against
``tests/legacy_kernel.py``) to the pre-fusion frontier kernel, with the ITS
lockstep reorganised around how skewed workloads actually resolve:

* the pre-fusion kernel scanned **global bit positions** high→low,
  paying three full-population mask ops plus a ``flatnonzero`` per bit
  (~17 bits on fig2-scale degrees) even after almost every lane had
  found its trunk;
* this backend instead probes, per round, **each active lane's own next
  set bit** over a compressed active set. A lane is gathered exactly
  once per trunk boundary it actually inspects, idle lanes cost
  nothing, and the active set shrinks by the per-round hit rate — on
  the paper's skewed workloads most draws resolve in the first
  (heaviest) trunk, so total work is ~O(lanes), not O(lanes · bits).

The probe order per lane — its set bits, highest first, with the same
``c[cbase + offset + block] >= r`` acceptance — is exactly the order
the global bit-scan visited, so ``level``/``offset`` match the
pre-fusion kernel bit for bit; selection is a pure function of ``r`` and the
prefix-sum array, and all uniforms are drawn by the shared driver.

``select``/``alias``/``scatter`` are the three-pass ABI of
:mod:`repro.kernels.base` over those kernels — the reference the
compiled backend is self-tested against, and the passes that serve
whenever it is absent or an array does not fit its ABI.
"""

from __future__ import annotations

import numpy as np

from repro.core.aux_index import _popcount
from repro.kernels.base import KernelBackend, KernelScratch, WalkState


def _reject(bad: np.ndarray, values: np.ndarray, what: str) -> None:
    if bad.any():
        row = int(np.flatnonzero(bad)[0])
        raise IndexError(f"kernel select: row {row}: {what} {values[row]}")


def select(index, vs, ss, u, level, out, scratch: KernelScratch, count):
    """Gather totals, ``r = total − u·total`` (in ``u``), ITS; see ABI."""
    n = vs.size
    indptr = index.indptr
    _reject((vs < 0) | (vs >= indptr.size - 1), vs, "no such vertex")
    cbase = scratch.array("cbase", n, np.int64)
    np.take(indptr, vs, out=cbase)
    _reject((ss < 1) | (ss > np.take(indptr, vs + 1) - cbase), ss,
            "candidate size outside 1..deg(v):")
    cbase += vs
    gidx = scratch.array("gidx", n, np.int64)
    np.add(cbase, ss, out=gidx)
    totals = scratch.array("totals", n, np.float64)
    np.take(index.c, gidx, out=totals)
    np.multiply(u, totals, out=u)
    np.subtract(totals, u, out=u)  # draws in (0, total]
    level[:] = 0
    out[:] = 0
    its_select(index.c, cbase, ss, u, level, out, scratch)
    probes = 0
    if count:
        blocks = _popcount(ss)
        probes = int(np.ceil(np.log2(np.maximum(blocks, 2))).sum()) + n
    return np.flatnonzero(level), probes


def alias(index, vs, level, out, deep, u_cell, u_take, scratch: KernelScratch):
    """Alias draw for the ``deep`` rows, added to ``out`` in place."""
    out_deep = scratch.array("out_deep", deep.size, np.int64)
    alias_select(
        index.prob, index.alias, index.lvl_ptr, index.lvl_base,
        vs[deep], level[deep], out[deep], u_cell, u_take, out_deep,
    )
    out[deep] = out_deep


def scatter(walk: WalkState, lanes, vs, idx, iteration, scratch):
    """Follow the drawn edges; returns the surviving lanes (a copy)."""
    pos = walk.indptr[vs] + idx
    nxt = walk.nbr[pos].astype(np.int64)
    t_next = walk.etime[pos]
    s_next = walk.candidate_sizes[pos].astype(np.int64)
    if walk.hop_vertex is not None:
        walk.hop_vertex[lanes, iteration] = nxt
        walk.hop_time[lanes, iteration] = t_next
    walk.prev[lanes] = vs
    walk.cur[lanes] = nxt
    walk.s[lanes] = s_next
    walk.steps_left[lanes] -= 1
    still = (s_next > 0) & (walk.steps_left[lanes] > 0)
    return lanes[still]


def its_select(
    c: np.ndarray,
    cbase: np.ndarray,
    ss: np.ndarray,
    r: np.ndarray,
    level: np.ndarray,
    offset: np.ndarray,
    scratch: KernelScratch,
) -> None:
    """ITS over the binary decomposition, next-set-bit probe rounds."""
    # Round 1 runs over the full population with no index vector: every
    # lane probes its highest set bit, and first-round winners keep
    # offset == 0 (the driver pre-zeroes it), so only ``level`` is
    # written. Survivors are compressed once into the loop state.
    _, e0 = np.frexp(ss)
    e0 = e0.astype(np.int64) - 1
    top0 = np.int64(1) << e0
    take0 = c[cbase + top0] >= r
    level[take0] = e0[take0]
    idx = np.flatnonzero(~take0)
    rem = ss[idx] - top0[idx]
    pos = cbase[idx] + top0[idx]
    rr = r[idx]
    while idx.size:
        # Highest set bit of each lane's remaining decomposition: exact
        # via frexp for any candidate size below 2^53.
        _, e = np.frexp(rem)
        e = e.astype(np.int64)
        top = np.int64(1) << (e - 1)
        bnd = c[pos + top]
        take = bnd >= rr
        done = idx[take]
        level[done] = e[take] - 1
        offset[done] = pos[take] - cbase[done]
        # Survivors skip past this trunk and probe their next set bit.
        keep = ~take
        idx = idx[keep]
        top = top[keep]
        rem = rem[keep] - top
        pos = pos[keep] + top
        rr = rr[keep]
        # The last set bit's boundary is the candidate total >= r, so
        # every lane terminates via ``take`` — rem never reaches zero.


def alias_select(
    prob: np.ndarray,
    alias: np.ndarray,
    lvl_ptr: np.ndarray,
    lvl_base: np.ndarray,
    vs: np.ndarray,
    level: np.ndarray,
    offset: np.ndarray,
    u_cell: np.ndarray,
    u_take: np.ndarray,
    out: np.ndarray,
) -> None:
    """Vectorised alias draw inside each lane's selected trunk."""
    width = np.int64(1) << level
    idx = lvl_ptr[lvl_base[vs] + level - 1]  # fresh gather: mutable
    np.add(idx, offset, out=idx)
    cell = (u_cell * width).astype(np.int64)
    np.minimum(cell, width - 1, out=cell)
    np.add(idx, cell, out=idx)
    # Alias redirect only where the cell's coin flip misses: the alias
    # table is gathered for the (compressed) rejected lanes alone.
    miss = np.flatnonzero(u_take >= prob[idx])
    cell[miss] = alias[idx[miss]]
    np.add(offset, cell, out=out)


BACKEND = KernelBackend(
    name="numpy", select=select, alias=alias, scatter=scatter
)
