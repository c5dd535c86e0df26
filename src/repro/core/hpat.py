"""Hierarchical Persistent Alias Table (HPAT) — paper Section 3.3.

HPAT keeps, for every vertex u and every level k ≤ floor(log2 d), alias
tables for the aligned trunks τ(k, i) covering positions
[i·2^k, (i+1)·2^k) of u's time-descending edge list. A candidate prefix of
size s splits into the binary decomposition of s (at most log2 s aligned
trunks); sampling is:

1. ITS across those ≤ log2(s) trunk boundaries — O(log log D) probes —
   using the per-vertex prefix-sum array C (P(g_j) ∝ C[cut_j]−C[cut_{j−1}]);
2. one O(1) alias draw inside the selected trunk.

Space is O(D log D) per vertex (every level stores ≤ D table entries);
level 0 trunks are single edges whose alias table is the identity, so
they need no storage (the paper's first "ad hoc optimisation" — edges
older than every possible arrival are likewise never materialised because
they are simply never addressed).

Flat layout: ``c`` is the shared prefix-sum array (vertex v's segment
starts at ``indptr[v] + v``); level tables for k ≥ 1 are concatenated in
``prob``/``alias`` with per-(vertex, level) offsets in ``lvl_ptr``
(indexed by ``lvl_base[v] + k - 1``), so locating any trunk's table is
pure arithmetic — the lock-free precomputed positions of Section 4.2.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.aux_index import AuxiliaryIndex
from repro.core.trunks import binary_decompose
from repro.exceptions import EmptyCandidateSetError
from repro.sampling.alias import alias_draw
from repro.sampling.counters import CostCounters
from repro.sampling.prefix_sum import draw_in_range


class HierarchicalPAT:
    """HPAT index over a :class:`TemporalGraph` with fixed static weights.

    Build with :func:`repro.core.builder.build_hpat`.
    ``aux`` is the optional :class:`AuxiliaryIndex` (read only by the scalar
    :meth:`sample`, attached only by :func:`repro.core.builder.preprocess`);
    without it the decomposition is recomputed per step (Figure 11's ablation).

    ``prob`` is float64 and ``alias`` int32 (12 B a cell): an alias entry
    is a cell offset inside its own width-2^k table, and the compiled
    kernel binds only an int32 ``alias``. ``indptr``, ``lvl_ptr`` and
    ``lvl_base`` are int64, ``c`` float64.
    """

    __slots__ = ("indptr", "c", "prob", "alias", "lvl_ptr", "lvl_base", "aux")

    def __init__(
        self,
        indptr: np.ndarray,
        c: np.ndarray,
        prob: np.ndarray,
        alias: np.ndarray,
        lvl_ptr: np.ndarray,
        lvl_base: np.ndarray,
        aux: Optional[AuxiliaryIndex] = None,
    ):
        self.indptr = indptr
        self.c = c
        self.prob = prob
        self.alias = alias
        self.lvl_ptr = lvl_ptr
        self.lvl_base = lvl_base
        self.aux = aux

    # -- layout helpers ------------------------------------------------------

    def c_base(self, v: int) -> int:
        return int(self.indptr[v] + v)

    def level_table_start(self, v: int, level: int) -> int:
        """Offset of vertex v's level-``level`` tables in ``prob``/``alias``."""
        return int(self.lvl_ptr[self.lvl_base[v] + level - 1])

    def candidate_weight(self, v: int, candidate_size: int) -> float:
        return float(self.c[self.c_base(v) + candidate_size])

    # -- sampling --------------------------------------------------------------

    def sample(
        self,
        v: int,
        candidate_size: int,
        rng: np.random.Generator,
        counters: Optional[CostCounters] = None,
        use_index: bool = True,
    ) -> int:
        """Sample an edge index in ``[0, candidate_size)`` of vertex v.

        ``use_index=False`` disables the auxiliary index: the binary
        decomposition is recomputed per call (O(log D) trunk finding), the
        configuration the paper's piecewise breakdown (Figure 11) measures
        against.
        """
        s = int(candidate_size)
        if s <= 0:
            raise EmptyCandidateSetError(f"vertex {v}: empty candidate set")
        base = self.c_base(v)
        total = self.c[base + s]
        if not (total > 0):
            raise EmptyCandidateSetError(f"vertex {v}: zero-weight candidate set")
        if use_index and self.aux is not None:
            levels, cuts = self.aux.lookup(s)
        else:
            blocks = binary_decompose(s)
            levels = [k for k, _ in blocks]
            cuts = [off + (1 << k) for k, off in blocks]
            if counters is not None:
                # Model the O(log D) trunk-finding the index removes: one
                # probe per level consulted while locating each trunk.
                counters.record_probe(max(1, s.bit_length() - 1))
        nblocks = len(levels)
        r = draw_in_range(rng, 0.0, total)
        # ITS over the block boundaries (≤ log2 s of them): binary search
        # for the first cut whose prefix weight covers the draw.
        lo_b, hi_b = -1, nblocks - 1
        while hi_b - lo_b > 1:
            mid = (lo_b + hi_b) // 2
            if counters is not None:
                counters.record_probe()
            if self.c[base + cuts[mid]] < r:
                lo_b = mid
            else:
                hi_b = mid
        if counters is not None:
            counters.record_probe()
        j = hi_b
        k = int(levels[j])
        cut = int(cuts[j])
        offset = cut - (1 << k)
        if k == 0:
            return offset
        start = self.level_table_start(v, k) + offset
        local = alias_draw(self.prob, self.alias, rng, start, start + (1 << k), counters)
        return offset + int(local)

    # -- accounting --------------------------------------------------------------

    def nbytes(self) -> int:
        return sum(self.memory_breakdown().values())

    def memory_breakdown(self) -> dict:
        out = {
            "prefix_sums": int(self.c.nbytes),
            "alias_tables": int(self.prob.nbytes + self.alias.nbytes),
            "level_offsets": int(self.lvl_ptr.nbytes + self.lvl_base.nbytes),
        }
        out["aux_index"] = int(self.aux.nbytes()) if self.aux is not None else 0
        return out
