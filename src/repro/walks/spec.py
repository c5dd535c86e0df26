"""The temporal-centric programming model (paper Section 4.1, Table 2).

A temporal random-walk application is specified by three user hooks:

``Dynamic_weight``
    The temporal bias ``f(t)`` of an edge. TEA's key requirement is that
    after the per-vertex cancellation of Equation 3 the weight is a pure
    function of the edge's own timestamp — that is what makes the
    PAT/HPAT structures buildable once. Expressed here as a
    :class:`~repro.core.weights.WeightModel`.

``Dynamic_parameter``
    A bias that *does* depend on walker state (node2vec's β of Equation 4
    depends on the previous vertex). It cannot be baked into a static
    index, so the runtime applies it by rejection on top of the hybrid
    sampler (Algorithm 2 lines 18–22): sample an edge from the static
    distribution, accept with probability β / β_max. Applications without
    such a parameter simply always accept.

``Edges_interval``
    Subgraph (snapshot) selection: restrict the walk to edges in a time
    window before preprocessing. Maps to
    :meth:`repro.graph.edge_stream.EdgeStream.interval`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, Tuple

import numpy as np

from repro.core.weights import WeightModel
from repro.graph.edge_stream import EdgeStream
from repro.graph.temporal_graph import TemporalGraph


class DynamicParameter(Protocol):
    """Walker-state-dependent bias β(previous, candidate) ∈ (0, beta_max]."""

    beta_max: float

    def __call__(
        self, graph: TemporalGraph, prev_vertex: Optional[int], candidate_vertex: int
    ) -> float: ...


@dataclass(frozen=True)
class Node2VecParameter:
    """node2vec's β (Equation 4): 1/p if returning, 1 if common neighbor,
    1/q otherwise — evaluated against the *static* adjacency, as in
    node2vec on static graphs: the graph's one sorted key array
    (:meth:`~repro.graph.temporal_graph.TemporalGraph.static_keys`).
    :meth:`__call__` scores one pair, :meth:`values` arrays of them; the
    fused C hop binds the same keys.
    """

    p: float = 0.5
    q: float = 2.0

    @property
    def beta_max(self) -> float:
        return max(1.0 / self.p, 1.0, 1.0 / self.q)

    def __call__(
        self, graph: TemporalGraph, prev_vertex: Optional[int], candidate_vertex: int
    ) -> float:
        if prev_vertex is None:
            return self.beta_max  # first hop: no previous vertex, accept
        if candidate_vertex == prev_vertex:
            return 1.0 / self.p
        if graph.has_static_edge(prev_vertex, candidate_vertex):
            return 1.0
        return 1.0 / self.q

    def values(self, graph: TemporalGraph, prev: np.ndarray,
               cand: np.ndarray) -> np.ndarray:
        """:meth:`__call__` over arrays of pairs that all have a previous
        vertex: membership is one ``searchsorted`` over the static keys,
        (u, v) adjacent iff key ``u·|V| + v`` is present."""
        out = np.full(prev.size, 1.0 / self.p)
        undecided = cand != prev
        if undecided.any():
            keys = graph.static_keys()
            if keys.size == 0:  # ``keys[...]`` below would index out of bounds
                out[undecided] = 1.0 / self.q
                return out
            query = cand[undecided] + prev[undecided] * np.int64(graph.num_vertices)
            found = np.searchsorted(keys, query)
            is_neighbor = (found < keys.size) & (
                keys[np.minimum(found, keys.size - 1)] == query)
            out[undecided] = np.where(is_neighbor, 1.0, 1.0 / self.q)
        return out


@dataclass(frozen=True)
class CustomParameter:
    """User-defined Dynamic_parameter (Table 2's extension point).

    Wraps any function ``f(graph, prev_vertex, candidate_vertex) ->
    float`` in ``(0, beta_max]``. The runtime applies it by rejection
    exactly like node2vec's β, so any walker-state-dependent bias that
    admits an upper bound plugs straight into every engine.

    >>> teleport_averse = CustomParameter(
    ...     fn=lambda g, prev, cand: 0.5 if prev == cand else 1.0,
    ...     beta_max=1.0,
    ...     name="discourage-returns",
    ... )
    """

    fn: object
    beta_max: float = 1.0
    name: str = "custom"
    # Mirror Node2VecParameter's attributes so describe() stays uniform.
    p: float = float("nan")
    q: float = float("nan")

    def __post_init__(self):
        if not callable(self.fn):
            raise TypeError("fn must be callable")
        if not (self.beta_max > 0):
            raise ValueError("beta_max must be positive")

    def __call__(
        self, graph: TemporalGraph, prev_vertex: Optional[int], candidate_vertex: int
    ) -> float:
        if prev_vertex is None:
            return self.beta_max
        return self.fn(graph, prev_vertex, candidate_vertex)


@dataclass(frozen=True)
class WalkSpec:
    """A complete temporal random-walk application.

    Attributes
    ----------
    name:
        Label used by benchmarks and reports.
    weight_model:
        The ``Dynamic_weight`` hook in static form.
    dynamic_parameter:
        The ``Dynamic_parameter`` hook, or ``None`` when the application
        has no walker-state bias (the runtime then skips the rejection
        loop entirely — "we simply return Accepted", Section 4.1).
    time_window:
        Optional ``Edges_interval`` bounds applied before preprocessing.
    """

    name: str
    weight_model: WeightModel
    dynamic_parameter: Optional[DynamicParameter] = None
    time_window: Optional[Tuple[float, float]] = None

    def edges_interval(self, stream: EdgeStream) -> EdgeStream:
        """Apply the application's time window (identity if none)."""
        if self.time_window is None:
            return stream
        return stream.interval(*self.time_window)

    def restrict(self, graph: TemporalGraph) -> TemporalGraph:
        """Graph-level convenience around :meth:`edges_interval`."""
        if self.time_window is None:
            return graph
        return TemporalGraph.from_stream(
            self.edges_interval(graph.to_stream()), num_vertices=graph.num_vertices
        )

    @property
    def has_dynamic_parameter(self) -> bool:
        return self.dynamic_parameter is not None

    def describe(self) -> str:
        parts = [self.name, self.weight_model.describe()]
        beta = self.dynamic_parameter
        if isinstance(beta, Node2VecParameter):
            parts.append(f"beta(p={beta.p}, q={beta.q})")
        elif beta is not None:
            parts.append(f"beta({getattr(beta, 'name', 'custom')})")
        if self.time_window is not None:
            parts.append(f"window={self.time_window}")
        return ", ".join(parts)
