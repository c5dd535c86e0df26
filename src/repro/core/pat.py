"""Persistent Alias Table (PAT) — paper Section 3.2.

PAT partitions each vertex's time-descending edge list into equal trunks
of ``trunkSize`` edges, builds one alias table per *complete* trunk, and
keeps prefix sums so ITS can pick a trunk. A sampling step over a
candidate prefix of size s:

1. ITS over the trunk boundaries (O(log(s / trunkSize)) probes) chooses a
   complete trunk or determines the draw lands in the trailing partial
   trunk;
2. complete trunk → O(1) alias draw inside it (case ① in Figure 5);
   partial trunk → ITS over the ≤ trunkSize edges inside it (case ②).

Space is O(D) per vertex: edge-aligned alias arrays plus a prefix-sum
array, versus the alias method's O(D²) for all candidate sets.

Flat layout shared with HPAT: per-vertex arrays are concatenated; vertex
v's prefix-sum segment (d+1 entries) starts at ``indptr[v] + v`` and its
alias entries are edge-aligned at ``indptr[v]``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import EmptyCandidateSetError
from repro.graph.temporal_graph import TemporalGraph
from repro.sampling.alias import alias_draw
from repro.sampling.counters import CostCounters
from repro.sampling.prefix_sum import draw_in_range, its_search


class PersistentAliasTable:
    """PAT index over a :class:`TemporalGraph` with fixed static weights.

    Build with :func:`repro.core.builder.build_pat` (or the
    :meth:`build` convenience wrapper).

    ``prob`` is float64 and ``alias`` int32, edge-aligned: a complete
    trunk's entry is an offset inside its trunk, any other entry the
    edge's own offset inside its vertex (never drawn). ``indptr`` and
    ``trunk_sizes`` are int64, ``c`` float64.
    """

    __slots__ = ("indptr", "c", "prob", "alias", "trunk_sizes")

    def __init__(
        self,
        indptr: np.ndarray,
        c: np.ndarray,
        prob: np.ndarray,
        alias: np.ndarray,
        trunk_sizes: np.ndarray,
    ):
        self.indptr = indptr
        self.c = c
        self.prob = prob
        self.alias = alias
        self.trunk_sizes = trunk_sizes

    @classmethod
    def build(cls, graph: TemporalGraph, weights: np.ndarray,
              trunk_size: Optional[int] = None) -> "PersistentAliasTable":
        """Construct a PAT (see :func:`repro.core.builder.build_pat`)."""
        from repro.core.builder import build_pat

        return build_pat(graph, weights, trunk_size=trunk_size)

    # -- layout helpers ------------------------------------------------------

    def c_base(self, v: int) -> int:
        """Start of vertex v's prefix-sum segment in the flat ``c`` array."""
        return int(self.indptr[v] + v)

    def candidate_weight(self, v: int, candidate_size: int) -> float:
        """Total static weight of v's candidate prefix."""
        return float(self.c[self.c_base(v) + candidate_size])

    # -- sampling --------------------------------------------------------------

    def sample(
        self,
        v: int,
        candidate_size: int,
        rng: np.random.Generator,
        counters: Optional[CostCounters] = None,
    ) -> int:
        """Sample an edge index in ``[0, candidate_size)`` of vertex v.

        The returned index is a position in v's time-descending adjacency
        (0 = newest edge), distributed proportionally to the static weights.
        """
        s = int(candidate_size)
        if s <= 0:
            raise EmptyCandidateSetError(f"vertex {v}: empty candidate set")
        base = self.c_base(v)
        total = self.c[base + s]
        if not (total > 0):
            raise EmptyCandidateSetError(f"vertex {v}: zero-weight candidate set")
        ts = int(self.trunk_sizes[v])
        full = s // ts
        r = draw_in_range(rng, 0.0, total)
        full_weight = self.c[base + full * ts]
        if full and r <= full_weight:
            # ITS over the complete-trunk boundaries: binary search for the
            # smallest j with C[j * ts] >= r.
            lo_j, hi_j = 0, full
            while hi_j - lo_j > 1:
                mid = (lo_j + hi_j) // 2
                if counters is not None:
                    counters.record_probe()
                if self.c[base + mid * ts] < r:
                    lo_j = mid
                else:
                    hi_j = mid
            trunk = lo_j
            edge_lo = self.indptr[v] + trunk * ts
            local = alias_draw(self.prob, self.alias, rng, edge_lo, edge_lo + ts, counters)
            return trunk * ts + int(local)
        # Case ②: the draw lands in the trailing partial trunk — ITS inside
        # it over positions [full * ts, s).
        if counters is not None:
            counters.record_probe()  # the boundary comparison above
        return its_search(self.c, r, base + full * ts, base + s, counters) - base

    # -- accounting --------------------------------------------------------------

    def nbytes(self) -> int:
        return int(
            self.c.nbytes + self.prob.nbytes + self.alias.nbytes + self.trunk_sizes.nbytes
        )

    def memory_breakdown(self) -> dict:
        return {
            "prefix_sums": int(self.c.nbytes),
            "alias_tables": int(self.prob.nbytes + self.alias.nbytes),
            "trunk_sizes": int(self.trunk_sizes.nbytes),
        }
