"""Full alias-method index: one alias table per candidate set.

The strawman the paper rules out (Sections 1, 3.1, Figure 12): to get O(1)
sampling from the alias method alone on a temporal graph, a vertex needs a
separate alias table for *every* candidate edge set — every prefix of its
time-descending adjacency — costing O(d²) space per vertex and
O(Σ_v d_v²) overall. On all but the smallest dataset this exceeds any
reasonable memory budget, which Figure 12 reports as OOM.

This module implements the structure honestly (it really is O(1) per
draw, the fastest option when it fits) but *checks the budget before
allocating* and raises :class:`~repro.exceptions.SimulatedOOM` when the
requirement exceeds it, so experiments reproduce the paper's OOM entries
without taking the machine down.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import EmptyCandidateSetError, SimulatedOOM
from repro.graph.temporal_graph import TemporalGraph
from repro.sampling.alias import alias_draw, build_alias_tables
from repro.sampling.counters import CostCounters

DEFAULT_BUDGET_BYTES = 512 * 1024 * 1024


def required_bytes(graph: TemporalGraph) -> int:
    """Bytes the full alias index would need: Σ_v d(d+1)/2 entries × 16 B."""
    d = graph.degrees().astype(np.float64)
    entries = float((d * (d + 1) / 2).sum())
    return int(entries * 16) + int(8 * (graph.num_vertices + 1))


class FullAliasIndex:
    """Alias tables for every (vertex, candidate-prefix-length) pair.

    Layout: vertex v's tables are concatenated prefix-length-ascending in
    flat ``prob``/``alias`` arrays; the table for prefix s starts at
    ``vbase[v] + s(s-1)/2`` and spans s entries.
    """

    __slots__ = ("indptr", "vbase", "prob", "alias")

    def __init__(self, indptr, vbase, prob, alias):
        self.indptr = indptr
        self.vbase = vbase
        self.prob = prob
        self.alias = alias

    @classmethod
    def build(
        cls,
        graph: TemporalGraph,
        weights: np.ndarray,
        budget_bytes: int = DEFAULT_BUDGET_BYTES,
    ) -> "FullAliasIndex":
        """Build all tables, or raise :class:`SimulatedOOM` if over budget."""
        need = required_bytes(graph)
        if need > budget_bytes:
            raise SimulatedOOM(need, budget_bytes, what="full alias index")
        n = graph.num_vertices
        d = graph.degrees()
        per_vertex = d * (d + 1) // 2
        vbase = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(per_vertex, out=vbase[1:])
        total = int(vbase[-1])
        prob = np.empty(total, dtype=np.float64)
        alias = np.empty(total, dtype=np.int64)
        # One builder call per prefix length builds every vertex's table of
        # that width (zero-weight prefixes, never sampled, get identities).
        max_d = int(d.max()) if n else 0
        for s in range(1, max_d + 1):
            vs = np.flatnonzero(d >= s)
            build_alias_tables(weights, s, graph.indptr[vs],
                               vbase[vs] + (s * (s - 1)) // 2, prob, alias)
        return cls(graph.indptr, vbase, prob, alias)

    def sample(
        self,
        v: int,
        candidate_size: int,
        rng: np.random.Generator,
        counters: Optional[CostCounters] = None,
    ) -> int:
        s = int(candidate_size)
        if s <= 0:
            raise EmptyCandidateSetError(f"vertex {v}: empty candidate set")
        start = int(self.vbase[v] + (s * (s - 1)) // 2)
        return int(alias_draw(self.prob, self.alias, rng, start, start + s, counters))

    def nbytes(self) -> int:
        return int(self.prob.nbytes + self.alias.nbytes + self.vbase.nbytes)
