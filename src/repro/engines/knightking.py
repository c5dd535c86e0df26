"""KnightKing-strategy baseline (paper Sections 1, 2.2, 4.3).

KnightKing's signature technique is rejection sampling: it never
materialises the transition distribution; each trial picks a uniform
candidate and accepts it against the max-weight envelope. That is ideal
when weights are near-uniform, and catastrophic for exponential temporal
weights, whose skew squeezes the accept area (the paper's 11,071
edges/step in Figure 2 and the Section 3.1 expected-trials analysis).

Per the paper's complexity table (Section 4.3):

* linear/static weights → ITS (like GraphWalker);
* exponential → rejection sampling;
* node2vec → rejection sampling for the weight + rejection for β (the β
  part is shared walk-loop machinery in :class:`Engine`).

``nodes > 1`` models the paper's 8-node cluster: temporal walks are
embarrassingly parallel across walkers, so reported walk time divides by
the node count (an *ideal* scaling model — stated explicitly so Table 4
comparisons read fairly; KnightKing's real cluster also pays network
overhead we do not charge it for).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.its_index import ITSIndex
from repro.engines.base import Engine
from repro.exceptions import EmptyCandidateSetError, SamplingBudgetExceeded
from repro.graph.temporal_graph import TemporalGraph
from repro.sampling.fullscan import full_scan_sample
from repro.telemetry import MemoryReport
from repro.walks.spec import WalkSpec

_STATIC_KINDS = ("uniform", "linear_rank", "linear_time")
DEFAULT_MAX_TRIALS = 200_000


class KnightKingEngine(Engine):
    """Rejection-sampling baseline with modeled multi-node execution."""

    def __init__(
        self,
        graph: TemporalGraph,
        spec: WalkSpec,
        nodes: int = 1,
        max_trials: int = DEFAULT_MAX_TRIALS,
        strict: bool = False,
    ):
        super().__init__(graph, spec)
        if nodes < 1:
            raise ValueError("nodes must be >= 1")
        self.time_divisor = float(nodes)
        self.max_trials = int(max_trials)
        self.strict = bool(strict)
        self.weights: Optional[np.ndarray] = None
        self.prefix_max: Optional[np.ndarray] = None
        self.index: Optional[ITSIndex] = None
        self.name = f"knightking-{nodes}node" if nodes > 1 else "knightking-1node"

    @property
    def _static(self) -> bool:
        return self.spec.weight_model.kind in _STATIC_KINDS

    def _prepare(self) -> None:
        with self.recorder.span("prepare.weights", kind=self.spec.weight_model.kind):
            self.weights = self.spec.weight_model.compute(self.graph)
        if self._static:
            with self.recorder.span("prepare.index_build", structure="its"):
                self.index = ITSIndex.build(self.graph, self.weights)
            return
        # Per-vertex prefix maxima give the O(1) envelope for any
        # candidate prefix (weights are time-monotone per segment, but we
        # compute the true prefix max so arbitrary weights stay correct).
        with self.recorder.span("prepare.envelope_build"):
            m = self.graph.num_edges
            self.prefix_max = np.empty(m, dtype=np.float64)
            indptr = self.graph.indptr
            for v in range(self.graph.num_vertices):
                lo, hi = indptr[v], indptr[v + 1]
                if hi > lo:
                    np.maximum.accumulate(
                        self.weights[lo:hi], out=self.prefix_max[lo:hi]
                    )

    def sample_edge(self, v, candidate_size, walker_time, rng, counters):
        if self._static:
            return self.index.sample(v, candidate_size, rng, counters)
        s = int(candidate_size)
        if s <= 0:
            raise EmptyCandidateSetError(f"vertex {v}: empty candidate set")
        lo = int(self.graph.indptr[v])
        w = self.weights
        w_max = self.prefix_max[lo + s - 1]
        for _ in range(self.max_trials):
            j = int(rng.integers(0, s))
            accept = rng.random() * w_max < w[lo + j]
            counters.record_trial(accept)
            if accept:
                return j
        if self.strict:
            raise SamplingBudgetExceeded(
                f"vertex {v}: no acceptance in {self.max_trials} trials"
            )
        # Bounded fallback: exact full-scan draw, accounted as a scan.
        return full_scan_sample(w[lo : lo + s], s, rng, counters)

    def expected_trials(self, v: int, candidate_size: int) -> float:
        """Analytic E[trials] = s · w_max / Σw for one candidate prefix."""
        self.prepare()
        lo = int(self.graph.indptr[v])
        s = int(candidate_size)
        w = self.weights[lo : lo + s]
        total = float(w.sum())
        if total <= 0:
            return float("inf")
        return s * float(w.max()) / total

    def publish_telemetry(self, registry) -> None:
        registry.gauge("engine.modeled_nodes", "modeled cluster size").set(
            self.time_divisor
        )
        registry.gauge("engine.max_trials", "rejection budget per step").set(
            self.max_trials
        )

    def memory_report(self) -> MemoryReport:
        report = super().memory_report()
        if self.weights is not None:
            report.add("weights", self.weights.nbytes)
        if self.prefix_max is not None:
            report.add("envelope", self.prefix_max.nbytes)
        if self.index is not None:
            report.add("prefix_sums", self.index.nbytes())
        return report
