"""Temporal neighborhood sampling for GNN mini-batches.

The TGN/TGAT access pattern: given a batch of (node, time) queries —
typically the endpoints of training interactions — gather, for each
query, up to ``k`` edges *earlier than* the query time (a model must not
see the future), optionally biased toward recent interactions; recurse
for multi-hop blocks.

Note the direction flip relative to walks: a walk samples edges *later*
than the arrival time (Γt), while GNN aggregation conditions on the
*past*. Both are prefix/suffix queries on the time-sorted adjacency; we
reuse the walk machinery by building the index over the **reversed-time
view** of the graph: negating timestamps turns "edges before t" into
"edges after −t", and recency bias becomes exactly the exponential
temporal weight. One graph transform, zero new sampling code — every
draw goes through the vectorised HPAT kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core import builder
from repro.core.weights import WeightModel
from repro.engines.batch import hpat_sample_batch
from repro.graph.edge_stream import EdgeStream
from repro.graph.temporal_graph import TemporalGraph
from repro.rng import RngLike, make_rng
from repro.sampling.counters import CostCounters


@dataclass
class NeighborBlock:
    """One hop of sampled temporal neighborhoods (padded arrays).

    For ``B`` queries and fanout ``k``:

    * ``seeds`` (B,), ``seed_times`` (B,) — the queried (node, time) pairs;
    * ``neighbors`` (B, k) — sampled neighbor ids (padding where masked);
    * ``times`` (B, k) — interaction times of the sampled edges;
    * ``mask`` (B, k) — True where a real sample exists (queries whose
      node has no earlier interactions produce all-False rows).

    Sampling is with replacement (the TGN convention — repeated draws of
    a dominant recent interaction are signal, not error).
    """

    seeds: np.ndarray
    seed_times: np.ndarray
    neighbors: np.ndarray
    times: np.ndarray
    mask: np.ndarray

    @property
    def fanout(self) -> int:
        return int(self.neighbors.shape[1])

    def flatten_frontier(self):
        """(nodes, times) of all real samples — the next hop's queries."""
        return self.neighbors[self.mask], self.times[self.mask]


class TemporalNeighborSampler:
    """HPAT-served temporal neighborhood sampler.

    Parameters
    ----------
    graph:
        The interaction graph (edge u→v at t means they interacted at t;
        for undirected interaction data, materialise both directions —
        :func:`repro.graph.generators.temporal_bipartite` already does).
    recency_scale:
        Exponential recency bias: an edge at age Δ before the query time
        carries weight exp(−Δ / recency_scale). ``None`` samples the
        past uniformly.
    """

    def __init__(
        self,
        graph: TemporalGraph,
        recency_scale: Optional[float] = None,
        seed: RngLike = None,
        kernel_backend="auto",
    ):
        from repro.kernels import KernelScratch, resolve_backend

        self.graph = graph
        self.recency_scale = recency_scale
        self.kernel = resolve_backend(kernel_backend)
        self._scratch = KernelScratch()
        # Reversed-time view: negate timestamps so "before t" becomes a
        # candidate prefix, and exp(t'/scale) on negated times equals
        # exp(-(t - t_i)/scale) recency decay on real times.
        src = np.repeat(np.arange(graph.num_vertices), np.diff(graph.indptr))
        self._rev = TemporalGraph.from_stream(
            EdgeStream(src, graph.nbr, -graph.etime, weight=graph.eweight),
            num_vertices=graph.num_vertices,
        )
        # In reversed-time coordinates t' = -t, recency weight
        # exp(-(t_query - t_i)/scale) ∝ exp(t_i/scale) = exp(-t'/scale):
        # a *decay* in the reversed key, hence the decay kind.
        model = (
            WeightModel("uniform")
            if recency_scale is None
            else WeightModel("exponential_decay", scale=float(recency_scale))
        )
        pre = builder.preprocess(self._rev, model)
        self._index = pre.index
        self._rng = make_rng(seed)
        self.counters = CostCounters()

    # -- queries -----------------------------------------------------------

    def num_earlier_interactions(self, node: int, t: float) -> int:
        """How many of ``node``'s interactions happened strictly before t."""
        return self._rev.candidate_count(node, -float(t))

    def sample_neighbors(
        self,
        nodes: Sequence[int],
        times: Sequence[float],
        k: int,
        rng: Optional[np.random.Generator] = None,
    ) -> NeighborBlock:
        """Sample up to ``k`` pre-``t`` neighbors per (node, time) query."""
        if k <= 0:
            raise ValueError("fanout k must be positive")
        rng = rng or self._rng
        nodes = np.asarray(nodes, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        if nodes.shape != times.shape or nodes.ndim != 1:
            raise ValueError("nodes and times must be equal-length 1-D")
        B = nodes.size
        neighbors = np.zeros((B, k), dtype=np.int64)
        out_times = np.zeros((B, k), dtype=np.float64)
        mask = np.zeros((B, k), dtype=bool)

        # Candidate sizes in the reversed view ("strictly before t") —
        # one vectorised searchsorted for the whole batch.
        sizes = self._rev.candidate_counts_batch(nodes, -times)
        live = np.flatnonzero(sizes > 0)
        if live.size:
            self.counters.steps += int(live.size) * k
            vs = np.repeat(nodes[live], k)
            ss = np.repeat(sizes[live], k)
            draws = hpat_sample_batch(self._index, vs, ss, rng, self.counters,
                                      backend=self.kernel,
                                      scratch=self._scratch)
            pos = self._rev.indptr[vs] + draws
            neighbors[live] = self._rev.nbr[pos].reshape(-1, k)
            out_times[live] = -self._rev.etime[pos].reshape(-1, k)
            mask[live] = True
        return NeighborBlock(
            seeds=nodes, seed_times=times,
            neighbors=neighbors, times=out_times, mask=mask,
        )

    def sample_blocks(
        self,
        seed_nodes: Sequence[int],
        seed_times: Sequence[float],
        fanouts: Sequence[int],
        rng: Optional[np.random.Generator] = None,
    ) -> List[NeighborBlock]:
        """Multi-hop blocks, innermost hop first in the returned list.

        Hop ``i+1`` queries the (neighbor, interaction-time) frontier of
        hop ``i`` — times shrink monotonically (the no-future-peeking
        guarantee, asserted by tests).
        """
        rng = rng or self._rng
        blocks: List[NeighborBlock] = []
        nodes = np.asarray(seed_nodes, dtype=np.int64)
        times = np.asarray(seed_times, dtype=np.float64)
        for k in fanouts:
            block = self.sample_neighbors(nodes, times, int(k), rng)
            blocks.append(block)
            nodes, times = block.flatten_frontier()
            if nodes.size == 0:
                break
        return blocks

    def nbytes(self) -> int:
        return int(self._rev.nbytes() + self._index.nbytes())
