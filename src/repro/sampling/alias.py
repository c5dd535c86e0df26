"""Walker/Vose alias tables, including a batched lock-step builder.

The alias method (paper Section 2.2) splits each item's probability mass
into pieces packed into ``n`` unit *trunk cells*, at most two pieces per
cell, so a draw is: pick a cell uniformly, then pick between its two
pieces — O(1). Construction is O(n) (Vose's algorithm).

TEA builds *many small* alias tables — one per PAT/HPAT trunk, totalling
O(|E| log D) entries. :func:`build_alias_tables` is the index build's one
entry point: it writes a batch of equal-width tables in place, in
compiled code (``alias_build`` in ``repro/kernels/hop.c``, which releases
the GIL) when the ``c`` kernel backend loaded. Otherwise, and as the
parity oracle, :func:`build_alias_arrays_batch` constructs them
simultaneously: the small/large worklists of Vose's algorithm are
advanced in lock step across all rows with vectorised numpy operations,
so the loop count is O(width) however many tables are built.

Every builder here computes ``q = row · (w / total)``. When ``w / total``
is not finite (``total < w · 2⁻¹⁰²⁴``: a subnormal or near-subnormal
total) the row and its total are first multiplied by :data:`RESCALE`,
2¹⁰²³ — exact, since nothing in such a row can overflow — and then
normalised; rows in the normal range keep their bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.sampling.counters import CostCounters

#: Exact power of two applied to a row whose ``w / total`` overflows.
RESCALE = 2.0 ** 1023


def build_alias_arrays(weights: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Vose construction for a single table.

    Returns ``(prob, alias)``: cell ``i`` keeps item ``i`` with probability
    ``prob[i]`` and item ``alias[i]`` otherwise. Weights must be
    non-negative with a positive sum.
    """
    w = np.asarray(weights, dtype=np.float64)
    n = w.size
    if n == 0:
        raise ValueError("cannot build alias table for zero items")
    total = float(w.sum())
    if not (total > 0.0):
        raise ValueError("weights must have positive sum")
    f, scale = n / total, 1.0
    if not math.isfinite(f):
        scale = RESCALE
        f = n / (total * scale)
    q = list(w * scale * f)
    prob = np.ones(n, dtype=np.float64)
    alias = np.arange(n, dtype=np.int64)
    small = [i for i in range(n) if q[i] < 1.0]
    large = [i for i in range(n) if q[i] >= 1.0]
    while small and large:
        s = small.pop()
        l = large.pop()
        prob[s] = q[s]
        alias[s] = l
        q[l] -= 1.0 - q[s]
        if q[l] < 1.0:
            small.append(l)
        else:
            large.append(l)
    # Remaining entries are numerically 1 (float drift); leave prob=1.
    return prob, alias


def build_alias_arrays_batch(weights_2d: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Vose construction for ``T`` tables of equal width ``w`` at once.

    ``weights_2d`` has shape ``(T, w)``; rows with zero total are invalid.
    Returns ``(prob, alias)`` of the same shape. The algorithm runs Vose's
    small/large pairing for all rows in lock step: every iteration pops one
    small and one large cell *per active row* using vectorised gathers, so
    the Python-level loop executes at most ``w`` times however many tables
    are being built.
    """
    q = np.asarray(weights_2d, dtype=np.float64)
    if q.ndim != 2:
        raise ValueError("weights_2d must be 2-D (tables, width)")
    T, w = q.shape
    if w == 0:
        raise ValueError("zero-width alias tables are invalid")
    totals = q.sum(axis=1)
    if np.any(totals <= 0.0):
        raise ValueError("every table needs a positive weight sum")
    if w == 1:
        return np.ones((T, 1)), np.zeros((T, 1), dtype=np.int64)
    if T < w:
        # Few wide tables: the lock-step loop (w iterations) would cost
        # more than per-row O(w) construction. Typical for the top HPAT
        # levels, where only the highest-degree hubs have trunks.
        prob = np.empty((T, w), dtype=np.float64)
        alias = np.empty((T, w), dtype=np.int64)
        for i in range(T):
            prob[i], alias[i] = build_alias_arrays(q[i])
        return prob, alias
    with np.errstate(over="ignore"):
        f = w / totals
    huge = ~np.isfinite(f)
    if np.any(huge):
        scale = np.where(huge, RESCALE, 1.0)
        f[huge] = w / (totals[huge] * RESCALE)
        q = q * scale[:, None]
    q = q * f[:, None]
    prob = np.ones((T, w), dtype=np.float64)
    alias = np.tile(np.arange(w, dtype=np.int64), (T, 1))

    # Per-row worklists, encoded as index stacks. stack[r, :tops[r]] holds
    # the pending cell indices for row r.
    is_small = q < 1.0
    small_stack = np.empty((T, w), dtype=np.int64)
    large_stack = np.empty((T, w), dtype=np.int64)
    small_top = np.zeros(T, dtype=np.int64)
    large_top = np.zeros(T, dtype=np.int64)
    cols = np.arange(w, dtype=np.int64)
    # Vectorised stack initialisation: positions of smalls/larges per row.
    small_counts = is_small.sum(axis=1)
    order = np.argsort(~is_small, axis=1, kind="stable")  # smalls first
    small_top[:] = small_counts
    large_top[:] = w - small_counts
    small_stack[:, :] = order  # first small_counts entries are smalls
    # Larges are order[:, small_counts:]; scatter them into the contiguous
    # front region of large_stack without a Python per-row loop.
    large_positions = order.copy()
    row_idx = np.repeat(np.arange(T), w).reshape(T, w)
    within = cols[None, :].repeat(T, axis=0)
    large_mask = within >= small_counts[:, None]
    flat_rows = row_idx[large_mask]
    flat_slot = (within[large_mask] - small_counts[flat_rows])
    large_stack[flat_rows, flat_slot] = large_positions[large_mask]

    active = (small_top > 0) & (large_top > 0)
    rows = np.flatnonzero(active)
    # Each iteration finalises one small cell per active row; a row has at
    # most w-1 such finalisations, so the loop is bounded by w-1.
    for _ in range(w - 1):
        if rows.size == 0:
            break
        st = small_top[rows] - 1
        s = small_stack[rows, st]
        lt = large_top[rows] - 1
        l = large_stack[rows, lt]
        qs = q[rows, s]
        prob[rows, s] = qs
        alias[rows, s] = l
        ql = q[rows, l] - (1.0 - qs)
        q[rows, l] = ql
        small_top[rows] = st
        went_small = ql < 1.0
        # Large cell either stays on the large stack (top unchanged — it is
        # already at position lt) or moves to the small stack.
        move = np.flatnonzero(went_small)
        if move.size:
            mrows = rows[move]
            large_top[mrows] = lt[move]
            stop = small_top[mrows]
            small_stack[mrows, stop] = l[move]
            small_top[mrows] = stop + 1
        keep = np.flatnonzero(~went_small)
        # For kept larges nothing changes: top still points above cell l.
        del keep
        still = (small_top[rows] > 0) & (large_top[rows] > 0)
        rows = rows[still]
    return prob, alias


def build_alias_tables(weights: np.ndarray, width: int, src: np.ndarray,
                       dst: np.ndarray, prob: np.ndarray,
                       alias: np.ndarray) -> None:
    """Build ``src.size`` Vose tables of one ``width`` in place.

    Table ``r`` reads ``weights[src[r]:src[r] + width]`` and writes
    ``prob``/``alias[dst[r]:dst[r] + width]`` (``alias`` local to the
    table); a row with no positive weight gets the identity table, which
    the index never draws from. Compiled when the ``c`` kernel backend
    loaded, else :func:`build_alias_arrays_batch` — the same bits either
    way, since both normalise by the row's numpy (pairwise) sum.
    """
    from repro.kernels import resolve_backend  # imports this package

    src = np.ascontiguousarray(src, dtype=np.int64)
    if not src.size:
        return
    dst = np.ascontiguousarray(dst, dtype=np.int64)
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    window = np.lib.stride_tricks.sliding_window_view(weights, width)
    totals = window[src].sum(axis=1)
    compiled = resolve_backend().alias_build
    if compiled is not None:
        compiled(width, src, dst, totals, weights, prob, alias)
        return
    rows = window[src]
    rows[~(totals > 0.0)] = 1.0
    p, a = build_alias_arrays_batch(rows)
    cells = (dst[:, None] + np.arange(width)).ravel()
    prob[cells] = p.ravel()
    alias[cells] = a.ravel()


def alias_draw(
    prob: np.ndarray,
    alias: np.ndarray,
    rng: np.random.Generator,
    lo: int = 0,
    hi: Optional[int] = None,
    counters: Optional[CostCounters] = None,
) -> int:
    """One O(1) draw from the table slice ``[lo, hi)`` of flat arrays.

    PAT/HPAT store many tables back to back in flat arrays; ``lo``/``hi``
    select one. Returns an index in ``[0, hi - lo)`` local to the table.
    """
    if hi is None:
        hi = prob.size
    n = hi - lo
    cell = int(rng.integers(0, n))
    if counters is not None:
        counters.record_alias_draw()
    if rng.random() < prob[lo + cell]:
        return cell
    return int(alias[lo + cell])


@dataclass
class AliasTable:
    """A standalone alias table over ``n`` items (weights need not be normalised)."""

    prob: np.ndarray
    alias: np.ndarray
    total_weight: float

    @classmethod
    def from_weights(cls, weights) -> "AliasTable":
        w = np.asarray(weights, dtype=np.float64)
        prob, alias = build_alias_arrays(w)
        return cls(prob=prob, alias=alias, total_weight=float(w.sum()))

    def __len__(self) -> int:
        return int(self.prob.size)

    def draw(self, rng: np.random.Generator, counters: Optional[CostCounters] = None) -> int:
        return alias_draw(self.prob, self.alias, rng, counters=counters)

    def nbytes(self) -> int:
        return int(self.prob.nbytes + self.alias.nbytes)
