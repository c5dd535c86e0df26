"""CTDNE-style reference baseline (paper Figure 10).

CTDNE is a graph-learning reference implementation, not a walk system: at
every step it materialises the candidate list, evaluates the dynamic
weight ``exp(t_i − t)`` edge by edge at interpreter speed, accumulates
the CDF, and inverse-samples it. No static-weight rewrite, no index —
the paper reports TEA up to 8,816× faster. We keep the per-edge Python
arithmetic deliberately (that *is* the baseline being modeled); only the
candidate-set binary search comes from the shared loop, whose search
caches ``Engine.prepare`` builds.
"""

from __future__ import annotations

import bisect
import math
from typing import Optional

from repro.engines.base import Engine
from repro.exceptions import EmptyCandidateSetError
from repro.telemetry import MemoryReport


class CtdneEngine(Engine):
    """Naive per-step dynamic-weight evaluation (reference-style)."""

    name = "ctdne"

    def _prepare(self) -> None:
        # CTDNE builds nothing of its own; the walk reads the graph directly
        # (Engine.prepare builds the graph's candidate-search caches).
        pass

    def sample_edge(self, v, candidate_size, walker_time, rng, counters):
        s = int(candidate_size)
        lo = int(self.graph.indptr[v])
        times = self.graph.etime
        model = self.spec.weight_model
        kind = model.kind
        t_ref = walker_time if walker_time is not None else float(times[lo])
        eweight = self.graph.eweight
        counters.record_scan(s)
        cdf = []
        acc = 0.0
        if kind == "exponential":
            inv_scale = 1.0 / model.scale
            for j in range(s):
                w = math.exp((times[lo + j] - t_ref) * inv_scale)
                if eweight is not None:
                    w *= eweight[lo + j]
                acc += w
                cdf.append(acc)
        elif kind == "uniform":
            for j in range(s):
                acc += 1.0 if eweight is None else float(eweight[lo + j])
                cdf.append(acc)
        else:  # linear kinds: rank among the candidate prefix
            for j in range(s):
                w = float(s - j)
                if eweight is not None:
                    w *= eweight[lo + j]
                acc += w
                cdf.append(acc)
        if not (acc > 0.0):
            raise EmptyCandidateSetError(f"vertex {v}: zero-weight candidate set")
        r = acc - rng.random() * acc  # draw in (0, acc]
        return bisect.bisect_left(cdf, r)

    def memory_report(self) -> MemoryReport:
        return super().memory_report()
