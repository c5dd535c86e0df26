"""Static temporal edge weights — TEA's weight rewrite.

The pivotal algebraic step of the paper (Equation 3): for the exponential
temporal walk, the transition probability

    P((u, v_i, t_i)) = exp(t_i - t) / Σ_j exp(t_j - t) = exp(t_i) / Σ_j exp(t_j)

does not actually depend on the walker's arrival time ``t`` — the common
factor cancels. The same holds trivially for linear weights. TEA therefore
precomputes one *static* weight per edge and builds its alias structures
once, instead of per arrival time.

Numerically, ``exp(t_i)`` overflows for realistic timestamps, so we apply
a *per-vertex* shift: ``exp((t_i - t_max(u)) / scale)``. Shifting by a
per-vertex constant multiplies all of u's weights by the same factor and
leaves every transition probability over every candidate set of u
unchanged (candidate sets never span vertices); ``scale`` is the
application's time-decay constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.graph.temporal_graph import TemporalGraph

KINDS = ("uniform", "linear_rank", "linear_time", "exponential",
         "exponential_decay")


@dataclass(frozen=True)
class WeightModel:
    """A named static-weight transform ``δ(u, v_i, t_i) = f(t_i)``.

    kind:
        * ``uniform`` — all weights 1 (unbiased temporal walk);
        * ``linear_rank`` — the paper's ``rank()`` variant of the linear
          temporal weight: the i-th oldest edge of a vertex gets weight i
          (1-based), so later edges are linearly preferred;
        * ``linear_time`` — weight ``t_i - t_min(u) + 1`` (the raw-time
          variant, shifted per vertex to stay positive);
        * ``exponential`` — ``exp((t_i - t_max(u)) / scale)`` (later is
          heavier: the paper's temporal walk bias);
        * ``exponential_decay`` — ``exp((t_min(u) - t_i) / scale)``
          (earlier is heavier: the recency bias of *reversed-time* views,
          used by the GNN neighborhood sampler).
    scale:
        Decay constant for the exponential kinds (ignored otherwise).
    """

    kind: str = "exponential"
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown weight kind {self.kind!r}; choose from {KINDS}")
        if self.kind.startswith("exponential") and not (self.scale > 0):
            raise ValueError("exponential scale must be positive")

    def compute(self, graph: TemporalGraph) -> np.ndarray:
        """Per-edge static weights aligned with the graph's CSR layout.

        Edges within each vertex segment are time-descending, so for the
        monotone kinds (on unweighted graphs) the weight array is
        non-increasing per segment — the property the rejection
        baseline's prefix-max envelope uses. On weighted graphs
        (``graph.eweight`` set) every value is multiplied by the user
        weight: δ(e) = w_e · f(t_e).
        """
        out = self._segments(graph.etime, graph.indptr)
        if graph.eweight is not None and out.size:
            out = out * graph.eweight
        return out

    def prefix(self, graph: TemporalGraph, v: int, s: int) -> np.ndarray:
        """The static weights of v's candidate prefix ``[0, s)``:
        :meth:`compute`'s values, from v's segment alone."""
        lo, hi = int(graph.indptr[v]), int(graph.indptr[v + 1])
        out = self._segments(graph.etime[lo:hi], np.array([0, hi - lo]))[:s]
        if graph.eweight is not None:
            out = out * graph.eweight[lo : lo + s]
        return out

    def _segments(self, etime: np.ndarray, indptr: np.ndarray) -> np.ndarray:
        """Temporal part of the weights of CSR segments ``indptr`` over
        time-descending ``etime`` (one segment per vertex) — the one
        definition of Eq. 3's static weights."""
        m = etime.size
        out = np.empty(m, dtype=np.float64)
        if m == 0:
            return out
        if self.kind == "uniform":
            out.fill(1.0)
            return out
        degrees = np.diff(indptr)
        if self.kind == "linear_rank":
            # Segment positions j = 0..d-1 (newest first) → rank d - j.
            pos = np.arange(m) - np.repeat(indptr[:-1], degrees)
            out[:] = np.repeat(degrees, degrees) - pos
            return out
        if self.kind == "linear_time":
            seg_min = np.minimum.reduceat(etime, np.minimum(indptr[:-1], m - 1))
            out[:] = etime - np.repeat(seg_min, degrees) + 1.0
            return out
        if self.kind == "exponential_decay":
            seg_min = np.minimum.reduceat(etime, np.minimum(indptr[:-1], m - 1))
            out[:] = np.exp((np.repeat(seg_min, degrees) - etime) / self.scale)
            return out
        # exponential
        seg_max = etime[np.minimum(indptr[:-1], m - 1)]
        out[:] = np.exp((etime - np.repeat(seg_max, degrees)) / self.scale)
        return out

    def weight_of_time(self, t: np.ndarray, t_ref: float = 0.0) -> np.ndarray:
        """The *dynamic* weight ``f(t)`` relative to a reference time.

        Used by the CTDNE-style baseline, which evaluates the weight per
        step instead of using the static rewrite. For the exponential kind
        this is ``exp((t - t_ref) / scale)`` — the un-cancelled Equation 3
        form.
        """
        t = np.asarray(t, dtype=np.float64)
        if self.kind == "uniform":
            return np.ones_like(t)
        if self.kind in ("linear_rank", "linear_time"):
            return t - t_ref + 1.0
        if self.kind == "exponential_decay":
            return np.exp((t_ref - t) / self.scale)
        return np.exp((t - t_ref) / self.scale)

    def describe(self) -> str:
        if self.kind == "exponential":
            return f"exponential(scale={self.scale:g})"
        return self.kind
